//! AoS vs SoA kernel comparison backing the columnar hot-path switch.
//!
//! Each group runs the same kernel over both layouts at a small (1k) and
//! large (64k) window so the crossover is visible: at 1k the columnar
//! path must be no slower than the array-of-structs one; at 64k the flat
//! `u32`/`f64` scans should win on cache traffic (28-byte `StreamItem`
//! strides vs contiguous columns). The grouping and selection groups also
//! run the threaded drains' 512-item frame, where the 10 % budget leaves
//! 64 items per stratum: every Floyd draw there uses the one-register
//! bitset.
//!
//! Inputs are round-robin interleaved across 8 strata — the worst case
//! for grouping, forcing the scatter pass instead of the grouped-input
//! fast path both layouts share.

use approxiot_core::{
    Allocation, Batch, ColumnarBatch, StrataIndex, StratumId, StreamItem, WhsSampler,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const STRATA: u32 = 8;

/// Round-robin interleaved batch: stratum `i % STRATA` at position `i`.
fn interleaved(total: usize) -> Batch {
    let items = (0..total)
        .map(|i| {
            StreamItem::with_meta(
                StratumId::new(i as u32 % STRATA),
                i as f64,
                i as u64,
                i as u64,
            )
        })
        .collect();
    Batch::from_items(items)
}

/// Grouping: `StrataIndex::build` over 28-byte items (scatter copies
/// whole items) vs `build_columns` over the raw `u32` column (scatter
/// fills a `u32` permutation only).
fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_kernels/grouping");
    for &total in &[512usize, 1_024, 65_536] {
        let aos = interleaved(total);
        let soa = ColumnarBatch::from_batch(&aos);
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("aos", total), &aos, |b, aos| {
            let mut index = StrataIndex::new();
            b.iter(|| {
                index.build(black_box(&aos.items));
                black_box(index.strata().count())
            })
        });
        group.bench_with_input(BenchmarkId::new("soa", total), &soa, |b, soa| {
            let mut index = StrataIndex::new();
            b.iter(|| {
                index.build_columns(black_box(&soa.strata));
                black_box(index.strata().count())
            })
        });
    }
    group.finish();
}

/// Weight-sum reduction: summing `item.value` through the item stride vs
/// a flat `f64` slice reduction.
fn bench_value_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_kernels/value_sum");
    for &total in &[1_024usize, 65_536] {
        let aos = interleaved(total);
        let soa = ColumnarBatch::from_batch(&aos);
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("aos", total), &aos, |b, aos| {
            b.iter(|| black_box(black_box(aos).value_sum()))
        });
        group.bench_with_input(BenchmarkId::new("soa", total), &soa, |b, soa| {
            b.iter(|| black_box(black_box(soa).value_sum()))
        });
    }
    group.finish();
}

/// Selection: the full WHS pass (group → allocate → Floyd select →
/// reweight) per layout at a 10% budget. Bit-identical outputs by
/// construction; this measures the layout cost alone.
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_kernels/whs_select");
    for &total in &[512usize, 1_024, 65_536] {
        let budget = total / 10;
        let aos = interleaved(total);
        let soa = ColumnarBatch::from_batch(&aos);
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("aos", total), &aos, |b, aos| {
            let mut sampler = WhsSampler::new(Allocation::Uniform);
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                black_box(sampler.sample_batch(black_box(aos), budget, &mut rng))
            })
        });
        group.bench_with_input(BenchmarkId::new("soa", total), &soa, |b, soa| {
            let mut sampler = WhsSampler::new(Allocation::Uniform);
            let mut out = ColumnarBatch::new();
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                sampler.sample_columns_into(black_box(soa), budget, &mut out, &mut rng);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Same smoke-level configuration as micro_samplers: cost checks, not
    // variance-sensitive regressions.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_grouping, bench_value_sum, bench_selection
}
criterion_main!(benches);
