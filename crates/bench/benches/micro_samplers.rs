//! Criterion micro-benchmarks backing the paper's "low overhead of our
//! sampling mechanism" claim (the Figure 6 discussion): per-item and
//! per-batch costs of the samplers and estimators, and of §III-E sharding,
//! whose shards run one after another on the calling thread — so the
//! `sharded_sampler` group measures what splitting the budget and the
//! arrival counts costs, not thread scaling.

use approxiot_core::{
    whs_sample, Allocation, Batch, Reservoir, ShardedSampler, SrsSampler, StratumId, StreamItem,
    ThetaStore, WeightMap, WhsSampler,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn batch(strata: u32, items_per_stratum: usize) -> Batch {
    let mut items = Vec::with_capacity(strata as usize * items_per_stratum);
    for s in 0..strata {
        for k in 0..items_per_stratum {
            items.push(StreamItem::with_meta(
                StratumId::new(s),
                k as f64,
                k as u64,
                0,
            ));
        }
    }
    Batch::from_items(items)
}

fn bench_reservoirs(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("algorithm_r", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut res = Reservoir::new(1_000);
            res.offer_all(black_box(0..n), &mut rng);
            black_box(res.len())
        })
    });
    group.finish();
}

/// The hot-path acceptance benchmark: 64k items over a strata sweep,
/// sampled at 10%. `whs_seed` is the original per-batch-allocating
/// Algorithm R path (`whs_sample`, kept as the comparison baseline);
/// `whs` is the rebuilt zero-copy `WhsSampler` hot path (StrataIndex +
/// slice allocation + Floyd's selection sampling for overflow).
fn bench_whs_vs_srs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler_per_batch");
    const TOTAL_ITEMS: usize = 65_536;
    const BUDGET: usize = TOTAL_ITEMS / 10;
    for &strata in &[1u32, 8, 64] {
        let input = batch(strata, TOTAL_ITEMS / strata as usize);
        group.throughput(Throughput::Elements(input.len() as u64));
        group.bench_with_input(BenchmarkId::new("whs_seed", strata), &input, |b, input| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                black_box(whs_sample(
                    black_box(input),
                    BUDGET,
                    &WeightMap::new(),
                    Allocation::Uniform,
                    &mut rng,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("whs", strata), &input, |b, input| {
            let mut sampler = WhsSampler::new(Allocation::Uniform);
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                black_box(sampler.sample_batch(black_box(input), BUDGET, &mut rng))
            })
        });
        group.bench_with_input(BenchmarkId::new("srs", strata), &input, |b, input| {
            let srs = SrsSampler::new(0.1).expect("valid");
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                black_box(srs.sample(black_box(input), &mut rng))
            })
        });
    }
    group.finish();
}

/// §III-E sharding: `ShardedSampler` across shard counts, on the calling
/// thread. Same 8-strata 64k-item window and 10% budget as the hot-path
/// group.
fn bench_sharded_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_sampler");
    const TOTAL_ITEMS: usize = 65_536;
    const BUDGET: usize = TOTAL_ITEMS / 10;
    let input = batch(8, TOTAL_ITEMS / 8);
    group.throughput(Throughput::Elements(input.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", workers), &input, |b, input| {
            let mut sampler = ShardedSampler::new(Allocation::Uniform, workers, 3);
            let w_in = WeightMap::new();
            b.iter(|| {
                black_box(sampler.sample_with_weights(black_box(&input.items), BUDGET, &w_in))
            })
        });
    }
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    // A realistic root window: 100 pairs of 100 sampled items over 16 strata.
    let theta: ThetaStore = (0..100)
        .map(|_| {
            let input = batch(16, 64);
            whs_sample(
                &input,
                100,
                &WeightMap::new(),
                Allocation::Uniform,
                &mut rng,
            )
        })
        .collect();
    let mut group = c.benchmark_group("estimator");
    group.bench_function("sum_with_variance", |b| {
        b.iter(|| black_box(theta.sum_estimate()))
    });
    group.bench_function("mean_with_variance", |b| {
        b.iter(|| black_box(theta.mean_estimate()))
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let input = batch(8, 1_000);
    let frame = approxiot_mq::codec::encode_batch(&input);
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| black_box(approxiot_mq::codec::encode_batch(black_box(&input))))
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(approxiot_mq::codec::decode_batch(black_box(&frame)).expect("valid")))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows: these are smoke-level cost checks backing
    // the "low overhead" claim, not variance-sensitive regressions.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_reservoirs, bench_whs_vs_srs, bench_sharded_scaling, bench_estimator, bench_codec
}
criterion_main!(benches);
