//! Property-based tests on the core data structures and algorithms.

use approxiot_core::{
    quantile, whs_sample, Allocation, Batch, Confidence, CostFunction, Estimate, Reservoir,
    SamplingBudget, StratumId, StreamItem, ThetaStore, WeightMap, WeightStore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn arb_counts() -> impl Strategy<Value = BTreeMap<StratumId, usize>> {
    proptest::collection::btree_map(0u32..8, 0usize..300, 1..6)
        .prop_map(|m| m.into_iter().map(|(s, c)| (StratumId::new(s), c)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- Reservoirs -------------------------------------------------------

    /// A reservoir retains exactly min(seen, capacity) items and counts
    /// every offer.
    #[test]
    fn reservoirs_respect_capacity(n in 0usize..2000, cap in 0usize..64, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Reservoir::new(cap);
        r.offer_all(0..n as u64, &mut rng);
        prop_assert_eq!(r.len(), n.min(cap));
        prop_assert_eq!(r.seen(), n as u64);
    }

    /// Reservoir contents are always distinct elements of the input.
    #[test]
    fn reservoir_contents_from_input(n in 1usize..500, cap in 1usize..32, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Reservoir::new(cap);
        r.offer_all(0..n as u64, &mut rng);
        let mut kept: Vec<u64> = r.into_items();
        kept.sort_unstable();
        let len_before = kept.len();
        kept.dedup();
        prop_assert_eq!(kept.len(), len_before, "distinct inputs stay distinct");
        prop_assert!(kept.iter().all(|&x| x < n as u64));
    }

    // ---- Allocation --------------------------------------------------------

    /// Any allocation policy: per-stratum size <= its count, total <= budget.
    #[test]
    fn allocation_respects_bounds(counts in arb_counts(), budget in 0usize..500) {
        for policy in [Allocation::Uniform, Allocation::Proportional] {
            let sizes = policy.reservoir_sizes(&counts, budget);
            let total: usize = sizes.values().sum();
            prop_assert!(total <= budget, "{policy:?} total {total} > budget {budget}");
            for (s, &size) in &sizes {
                prop_assert!(size <= counts[s], "{policy:?} over-allocates {s}");
            }
        }
    }

    /// Uniform allocation never wastes budget while any stratum is unserved.
    #[test]
    fn uniform_allocation_is_work_conserving(counts in arb_counts(), budget in 0usize..500) {
        let sizes = Allocation::Uniform.reservoir_sizes(&counts, budget);
        let total_assigned: usize = sizes.values().sum();
        let total_items: usize = counts.values().sum();
        prop_assert_eq!(total_assigned, budget.min(total_items));
    }

    // ---- Weight bookkeeping -----------------------------------------------

    /// The carry-forward store always returns the most recent explicit
    /// weight, or 1.0 before any.
    #[test]
    fn weight_store_carries_latest(updates in proptest::collection::vec((0u32..4, 1.0f64..50.0), 0..30)) {
        let mut store = WeightStore::new();
        let mut latest: BTreeMap<u32, f64> = BTreeMap::new();
        for (stratum, w) in updates {
            store.input_weight(StratumId::new(stratum), Some(w));
            latest.insert(stratum, w);
        }
        for s in 0u32..4 {
            let expected = latest.get(&s).copied().unwrap_or(1.0);
            assert_eq!(store.input_weight(StratumId::new(s), None), expected);
        }
    }

    /// WeightMap merge: the right-hand side wins on conflicts and nothing
    /// is lost.
    #[test]
    fn weight_map_merge_semantics(
        a in proptest::collection::vec((0u32..6, 1.0f64..10.0), 0..6),
        b in proptest::collection::vec((0u32..6, 1.0f64..10.0), 0..6),
    ) {
        let mut left: WeightMap = a.iter().map(|&(s, w)| (StratumId::new(s), w)).collect();
        let right: WeightMap = b.iter().map(|&(s, w)| (StratumId::new(s), w)).collect();
        left.merge_from(&right);
        for (s, w) in right.iter() {
            prop_assert_eq!(left.get(s), w);
        }
    }

    // ---- Budgets ------------------------------------------------------------

    /// Sample size is monotone in the fraction and in arrivals, never
    /// exceeding arrivals.
    #[test]
    fn budget_monotonicity(f1 in 0.01f64..1.0, f2 in 0.01f64..1.0, n in 0usize..10_000) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let b_lo = SamplingBudget::new(lo).expect("valid");
        let b_hi = SamplingBudget::new(hi).expect("valid");
        prop_assert!(b_lo.sample_size(n) <= b_hi.sample_size(n));
        prop_assert!(b_hi.sample_size(n) <= n);
        if n > 0 {
            prop_assert!(b_lo.sample_size(n) >= 1);
        }
    }

    // ---- Estimates ------------------------------------------------------------

    /// Confidence intervals nest: 68% ⊆ 95% ⊆ 99.7%.
    #[test]
    fn confidence_intervals_nest(value in -1e6f64..1e6, variance in 0.0f64..1e9) {
        let est = Estimate::new(value, variance);
        let (l68, h68) = est.interval(Confidence::P68);
        let (l95, h95) = est.interval(Confidence::P95);
        let (l99, h99) = est.interval(Confidence::P997);
        prop_assert!(l99 <= l95 && l95 <= l68);
        prop_assert!(h68 <= h95 && h95 <= h99);
        prop_assert!(est.covers(value, Confidence::P68));
    }

    // ---- Quantiles -------------------------------------------------------------

    /// Quantiles are monotone in q and inside the data range.
    #[test]
    fn quantiles_are_monotone(
        values in proptest::collection::vec(-1e4f64..1e4, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let theta: ThetaStore = [approxiot_core::WhsOutput {
            weights: WeightMap::new(),
            sample: values.iter().map(|&v| StreamItem::new(StratumId::new(0), v)).collect(),
        }].into_iter().collect();
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let v_lo = quantile::weighted_quantile(&theta, lo).expect("non-empty");
        let v_hi = quantile::weighted_quantile(&theta, hi).expect("non-empty");
        prop_assert!(v_lo <= v_hi);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min <= v_lo && v_hi <= max);
    }

    // ---- End-to-end sampling ----------------------------------------------------

    /// Two sequential WHS hops preserve the weighted count exactly.
    #[test]
    fn two_hop_weight_composition(
        n in 1usize..400,
        budget1 in 1usize..200,
        budget2 in 1usize..200,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = Batch::from_items(
            (0..n).map(|k| StreamItem::with_meta(StratumId::new(0), 1.0, k as u64, 0)).collect(),
        );
        let hop1 = whs_sample(&batch, budget1, &WeightMap::new(), Allocation::Uniform, &mut rng);
        if hop1.sample.is_empty() {
            return Ok(());
        }
        let hop2 = whs_sample(
            &hop1.clone().into_batch(),
            budget2,
            &hop1.weights,
            Allocation::Uniform,
            &mut rng,
        );
        if hop2.sample.is_empty() {
            return Ok(());
        }
        let theta: ThetaStore = [hop2].into_iter().collect();
        prop_assert!((theta.count_estimate() - n as f64).abs() < 1e-6);
    }
}

// ---- The rebuilt hot path (StrataIndex + WhsScratch + parallel shards) ----
//
// These properties pin the PR-1 rebuild to the seed implementation's
// statistics: same reservoir sizes, same count-reconstruction invariant
// (Eq. 9), genuine subsets, uniform per-item selection, and bit-exact
// determinism for a fixed (seed, workers) pair.

use approxiot_core::{ParallelShardedSampler, StrataIndex, WhsScratch};

/// The first stratum id `StrataIndex` keeps out of its dense table (in
/// its overflow map instead).
const TABLE_CAP: u32 = 1 << 19;

/// Runs of items per stratum: mostly small dense ids, plus ids on both
/// sides of [`TABLE_CAP`] and the largest id, so the dense table, the
/// overflow map and their mix all get indexed.
fn arb_items() -> impl Strategy<Value = Vec<StreamItem>> {
    let stratum = (0u32..10).prop_map(|pick| match pick {
        6 => TABLE_CAP - 1,
        7 => TABLE_CAP,
        8 => TABLE_CAP + 1,
        9 => u32::MAX,
        small => small,
    });
    proptest::collection::vec((stratum, 1usize..120), 1..5).prop_map(|spec| {
        let mut items = Vec::new();
        for (stratum, count) in spec {
            for k in 0..count {
                items.push(StreamItem::with_meta(
                    StratumId::new(stratum),
                    k as f64,
                    k as u64,
                    0,
                ));
            }
        }
        items
    })
}

/// Independent grouping oracle: naive per-item map grouping — ascending by
/// stratum, arrival order preserved within each.
fn group_by_stratum(items: &[StreamItem]) -> BTreeMap<StratumId, Vec<StreamItem>> {
    let mut map: BTreeMap<StratumId, Vec<StreamItem>> = BTreeMap::new();
    for item in items {
        map.entry(item.stratum).or_default().push(*item);
    }
    map
}

/// Riffle the grouped items into an interleaved order (same multiset,
/// breaks the StrataIndex grouped fast path so the scatter path runs too).
fn interleave(items: &[StreamItem]) -> Vec<StreamItem> {
    let mut out = Vec::with_capacity(items.len());
    let half = items.len() / 2;
    let (a, b) = items.split_at(half);
    for i in 0..half.max(items.len() - half) {
        if let Some(x) = a.get(i) {
            out.push(*x);
        }
        if let Some(y) = b.get(i) {
            out.push(*y);
        }
    }
    out
}

/// Deal the items out one stratum at a time in turn, each stratum's
/// items in arrival order: the round-robin shape of the drains' frames.
fn round_robin(items: &[StreamItem]) -> Vec<StreamItem> {
    let groups: Vec<Vec<StreamItem>> = group_by_stratum(items).into_values().collect();
    let longest = groups.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| groups.iter().filter_map(move |g| g.get(i).copied()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both builds group exactly like the naive map grouping for any
    /// input order — as generated, riffled or dealt round-robin — and
    /// report `grouped()` exactly when every stratum forms one run.
    #[test]
    fn strata_index_equals_map_grouping(items in arb_items(), order in 0u8..3) {
        let items = match order {
            0 => items,
            1 => interleave(&items),
            _ => round_robin(&items),
        };
        let by_map = group_by_stratum(&items);
        let runs = 1 + items.windows(2).filter(|w| w[0].stratum != w[1].stratum).count();
        let one_run_each = runs == by_map.len();

        let mut index = StrataIndex::new();
        index.build(&items);
        prop_assert_eq!(index.num_strata(), by_map.len());
        prop_assert_eq!(index.grouped(), one_run_each);
        for ((stratum, slice), (map_stratum, map_items)) in
            index.iter_in(&items).zip(by_map.iter())
        {
            prop_assert_eq!(stratum, *map_stratum);
            prop_assert_eq!(slice, map_items.as_slice());
        }

        let column: Vec<u32> = items.iter().map(|item| item.stratum.index()).collect();
        let mut columns = StrataIndex::new();
        columns.build_columns(&column);
        prop_assert_eq!(columns.num_strata(), by_map.len());
        prop_assert_eq!(columns.grouped(), one_run_each);
        for ((stratum, range), (map_stratum, map_items)) in
            columns.column_ranges().zip(by_map.iter())
        {
            prop_assert_eq!(stratum, *map_stratum);
            let gathered: Vec<StreamItem> =
                range.map(|pos| items[columns.src_index(pos)]).collect();
            prop_assert_eq!(&gathered, map_items);
        }
    }

    /// Eq. 9 on the index-based hot path, for grouped and interleaved
    /// inputs alike.
    #[test]
    fn hot_path_count_reconstruction(
        items in arb_items(),
        shuffle in proptest::bool::ANY,
        sample_size in 0usize..400,
        w_in_scale in 1u32..20,
        seed in 0u64..1000,
    ) {
        let items = if shuffle { interleave(&items) } else { items };
        let batch = Batch::from_items(items.clone());
        let mut w_in = WeightMap::new();
        for s in batch.strata() {
            w_in.set(s, w_in_scale as f64);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernel = WhsScratch::new();
        let out = kernel.sample_slice(&items, sample_size, &w_in, Allocation::Uniform, &mut rng);
        for (stratum, originals) in group_by_stratum(&items) {
            let kept = out.sample.iter().filter(|i| i.stratum == stratum).count();
            if kept == 0 {
                prop_assert!(out.weights.get_explicit(stratum).is_none());
                continue;
            }
            let lhs = out.weights.get(stratum) * kept as f64;
            let rhs = w_in.get(stratum) * originals.len() as f64;
            prop_assert!((lhs - rhs).abs() < 1e-6, "stratum {}: {} != {}", stratum, lhs, rhs);
        }
    }

    /// The hot path keeps exactly as many items per stratum as the legacy
    /// path (identical reservoir sizing), and its sample is a genuine
    /// subset of the input.
    #[test]
    fn hot_path_matches_legacy_sizes(
        items in arb_items(),
        shuffle in proptest::bool::ANY,
        sample_size in 0usize..400,
        seed in 0u64..1000,
    ) {
        let items = if shuffle { interleave(&items) } else { items };
        let batch = Batch::from_items(items.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = whs_sample(&batch, sample_size, &WeightMap::new(), Allocation::Uniform, &mut rng);
        let mut kernel = WhsScratch::new();
        let fast = kernel.sample_slice(&items, sample_size, &WeightMap::new(), Allocation::Uniform, &mut rng);
        for s in batch.strata() {
            let legacy_kept = legacy.sample.iter().filter(|i| i.stratum == s).count();
            let fast_kept = fast.sample.iter().filter(|i| i.stratum == s).count();
            prop_assert_eq!(legacy_kept, fast_kept, "kept counts diverge for {}", s);
            prop_assert_eq!(
                legacy.weights.get_explicit(s).is_some(),
                fast.weights.get_explicit(s).is_some()
            );
        }
        // Subset check: every sampled item exists in the input pool.
        let mut pool = items.clone();
        for item in &fast.sample {
            let pos = pool.iter().position(|p| p == item);
            prop_assert!(pos.is_some(), "sampled item not from input");
            pool.swap_remove(pos.expect("checked above"));
        }
    }

    /// Eq. 9 across the parallel shards: the union of per-shard outputs
    /// reconstructs every stratum count exactly.
    #[test]
    fn parallel_path_count_reconstruction(
        items in arb_items(),
        workers in 1usize..9,
        sample_size in 0usize..400,
        seed in 0u64..1000,
        threaded in proptest::bool::ANY,
    ) {
        let batch = Batch::from_items(items.clone());
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, workers, seed);
        sampler.set_threaded(threaded);
        let outs = sampler.sample_batch(&batch, sample_size);
        prop_assert_eq!(outs.len(), workers);
        // Per (shard, stratum) pair the invariant must hold against that
        // shard's local arrivals — which we can't see from outside — but
        // summing reconstructions over shards must give the global count.
        let theta: ThetaStore = outs.iter().filter(|o| !o.sample.is_empty()).cloned().collect();
        if !theta.is_empty() {
            for (stratum, originals) in group_by_stratum(&items) {
                let est = theta.stratum_estimates();
                let Some(e) = est.get(&stratum) else { continue };
                // Shards that dropped their whole sub-slice contribute
                // nothing; only check strata every holding shard kept.
                let kept: usize = outs
                    .iter()
                    .map(|o| o.sample.iter().filter(|i| i.stratum == stratum).count())
                    .sum();
                let shards_with_input = shard_holders(&items, workers, stratum);
                let shards_with_output = outs
                    .iter()
                    .filter(|o| o.sample.iter().any(|i| i.stratum == stratum))
                    .count();
                if kept > 0 && shards_with_output == shards_with_input {
                    prop_assert!(
                        (e.count_hat - originals.len() as f64).abs() < 1e-6,
                        "stratum {}: reconstructed {} of {}",
                        stratum, e.count_hat, originals.len()
                    );
                }
            }
        }
    }

    /// Fixed (seed, workers) reproduces identical samples, threaded or
    /// inline, across repeated constructions.
    #[test]
    fn parallel_path_is_deterministic(
        items in arb_items(),
        workers in 1usize..9,
        sample_size in 1usize..400,
        seed in 0u64..1000,
    ) {
        let batch = Batch::from_items(items);
        let run = |threaded: bool| {
            let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, workers, seed);
            sampler.set_threaded(threaded);
            sampler.sample_batch(&batch, sample_size)
        };
        let threaded = run(true);
        prop_assert_eq!(&threaded, &run(true));
        prop_assert_eq!(&threaded, &run(false));
    }
}

/// Number of shard slices that receive at least one item of `stratum`
/// under contiguous slice partitioning.
fn shard_holders(items: &[StreamItem], workers: usize, stratum: StratumId) -> usize {
    let n = items.len();
    let base = n / workers;
    let extra = n % workers;
    let mut holders = 0;
    let mut start = 0;
    for idx in 0..workers {
        let len = base + usize::from(idx < extra);
        if items[start..start + len]
            .iter()
            .any(|i| i.stratum == stratum)
        {
            holders += 1;
        }
        start += len;
    }
    holders
}

/// Per-item selection uniformity of the rebuilt hot path: every item of a
/// stratum must be kept with probability `N/c`, like the seed reservoirs.
#[test]
fn hot_path_selection_is_uniform() {
    let n = 20u64;
    let keep = 5usize;
    let trials = 20_000;
    let items: Vec<StreamItem> = (0..n)
        .map(|k| StreamItem::with_meta(StratumId::new(0), k as f64, k, 0))
        .collect();
    let mut counts = vec![0u32; n as usize];
    let mut rng = StdRng::seed_from_u64(0xF10D);
    let mut kernel = WhsScratch::new();
    for _ in 0..trials {
        let out = kernel.sample_slice(
            &items,
            keep,
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        assert_eq!(out.sample.len(), keep);
        for kept in &out.sample {
            counts[kept.seq as usize] += 1;
        }
    }
    let expected = trials as f64 * keep as f64 / n as f64;
    for (i, &c) in counts.iter().enumerate() {
        let rel = (c as f64 - expected).abs() / expected;
        assert!(
            rel < 0.08,
            "item {i} selected {c} times, expected ~{expected:.0} (rel err {rel:.3})"
        );
    }
}

/// Per-item selection uniformity through the parallel sharded path.
#[test]
fn parallel_path_selection_is_uniform() {
    let n = 24u64;
    let keep = 6usize;
    let trials = 20_000;
    let items: Vec<StreamItem> = (0..n)
        .map(|k| StreamItem::with_meta(StratumId::new(0), k as f64, k, 0))
        .collect();
    let batch = Batch::from_items(items);
    let mut counts = vec![0u32; n as usize];
    // A fresh seed per trial: determinism is a feature, but uniformity is
    // a statement over seeds.
    for trial in 0..trials {
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 3, trial as u64);
        for out in sampler.sample_batch(&batch, keep) {
            for kept in &out.sample {
                counts[kept.seq as usize] += 1;
            }
        }
    }
    let expected = trials as f64 * keep as f64 / n as f64;
    for (i, &c) in counts.iter().enumerate() {
        let rel = (c as f64 - expected).abs() / expected;
        assert!(
            rel < 0.08,
            "item {i} selected {c} times, expected ~{expected:.0} (rel err {rel:.3})"
        );
    }
}

// ---- The condensed Θ store against the per-item grouping it replaced ----
//
// `ThetaStore` keeps one (weight, Σv, n, Σv²) row per (pair, stratum)
// instead of the sampled items. The oracle below is the per-item code the
// store used to run at window close, over the same pairs kept whole: every
// estimate must match it bit for bit, including after a per-stratum
// weight rescale (what the root applies under fleet churn).

use approxiot_core::estimate::{count_of, mean_of, sum_of};
use approxiot_core::quantile::QuantileEstimate;
use approxiot_core::{StratumEstimate, WhsOutput};

/// Per-stratum estimates from whole pairs, grouped per item at close.
fn oracle_estimates(pairs: &[WhsOutput]) -> BTreeMap<StratumId, StratumEstimate> {
    #[derive(Default)]
    struct Acc {
        sum: f64,
        count_hat: f64,
        zeta: u64,
        value_sum: f64,
        value_sq_sum: f64,
    }
    let mut accs: BTreeMap<StratumId, Acc> = BTreeMap::new();
    for pair in pairs {
        let mut per: BTreeMap<StratumId, (f64, u64, f64)> = BTreeMap::new();
        for item in &pair.sample {
            let e = per.entry(item.stratum).or_insert((0.0, 0, 0.0));
            e.0 += item.value;
            e.1 += 1;
            e.2 += item.value * item.value;
        }
        for (stratum, (vsum, n, vsq)) in per {
            let w = pair.weights.get(stratum);
            let acc = accs.entry(stratum).or_default();
            acc.sum += vsum * w;
            acc.count_hat += n as f64 * w;
            acc.zeta += n;
            acc.value_sum += vsum;
            acc.value_sq_sum += vsq;
        }
    }
    accs.into_iter()
        .map(|(stratum, acc)| {
            let zeta = acc.zeta;
            let mean = if zeta > 0 {
                acc.value_sum / zeta as f64
            } else {
                0.0
            };
            let s2 = if zeta > 1 {
                ((acc.value_sq_sum - zeta as f64 * mean * mean) / (zeta as f64 - 1.0)).max(0.0)
            } else {
                0.0
            };
            let c = acc.count_hat;
            let fpc = (c - zeta as f64).max(0.0);
            let var = if zeta > 0 {
                c * fpc * s2 / zeta as f64
            } else {
                0.0
            };
            let est = StratumEstimate {
                sum: acc.sum,
                count_hat: c,
                zeta,
                sample_mean: mean,
                sample_variance: s2,
                sum_variance: var,
            };
            (stratum, est)
        })
        .collect()
}

/// The weighted-CDF quantile with bounds, read from whole pairs.
fn oracle_quantile(
    pairs: &[WhsOutput],
    q: f64,
    confidence: Confidence,
) -> Option<QuantileEstimate> {
    let mut values: Vec<(f64, f64)> = pairs
        .iter()
        .flat_map(|p| {
            p.sample
                .iter()
                .map(move |i| (i.value, p.weights.get(i.stratum)))
        })
        .collect();
    values.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    if values.is_empty() {
        return None;
    }
    let invert = |target: f64| {
        let mut acc = 0.0;
        for &(value, weight) in &values {
            acc += weight;
            if acc >= target {
                return value;
            }
        }
        values.last().map_or(0.0, |p| p.0)
    };
    let total: f64 = values.iter().map(|p| p.1).sum();
    let half_width = confidence.sigmas() * (q * (1.0 - q) / values.len() as f64).sqrt();
    Some(QuantileEstimate {
        value: invert(q * total),
        lo: invert((q - half_width).max(0.0) * total),
        hi: invert((q + half_width).min(1.0) * total),
        q,
    })
}

/// Random pairs over four strata: explicit weights for some strata, items
/// interleaved across strata, values often tied.
fn arb_pairs() -> impl Strategy<Value = Vec<WhsOutput>> {
    let pair = (
        proptest::collection::vec((0u32..4, 1.0f64..50.0), 0..4),
        proptest::collection::vec((0u32..4, 0u32..6, -1e3f64..1e3, proptest::bool::ANY), 0..40),
    )
        .prop_map(|(weights, items)| WhsOutput {
            weights: weights
                .into_iter()
                .map(|(s, w)| (StratumId::new(s), w))
                .collect(),
            sample: items
                .into_iter()
                .map(|(s, tie, free, tied)| {
                    StreamItem::new(StratumId::new(s), if tied { tie as f64 } else { free })
                })
                .collect(),
        });
    proptest::collection::vec(pair, 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Condensed rows answer every root query bit-identically to per-item
    /// grouping, before and after a per-stratum rescale.
    #[test]
    fn condensed_theta_matches_per_item_oracle(
        pairs in arb_pairs(),
        corrections in proptest::collection::vec((0u32..4, 0.2f64..3.0), 0..4),
    ) {
        let corrections: BTreeMap<StratumId, f64> =
            corrections.into_iter().map(|(s, c)| (StratumId::new(s), c)).collect();
        let mut theta: ThetaStore = pairs.iter().cloned().collect();
        let mut moments_only = ThetaStore::with_values(false);
        for pair in &pairs {
            moments_only.push_items(&pair.sample, |s| pair.weights.get(s));
        }
        // What the root's inclusion rescale did to the whole pairs.
        let mut rescaled = pairs.clone();
        for pair in &mut rescaled {
            let strata: std::collections::BTreeSet<StratumId> =
                pair.sample.iter().map(|i| i.stratum).collect();
            for stratum in strata {
                if let Some(&c) = corrections.get(&stratum) {
                    pair.weights.set(stratum, pair.weights.get(stratum) * c);
                }
            }
        }
        theta.rescale(|s| corrections.get(&s).copied());
        moments_only.rescale(|s| corrections.get(&s).copied());

        let oracle = oracle_estimates(&rescaled);
        let per = theta.stratum_estimates();
        let bits = |x: &dyn std::fmt::Debug| format!("{x:?}");
        prop_assert_eq!(bits(&per), bits(&oracle));
        prop_assert_eq!(bits(&moments_only.stratum_estimates()), bits(&oracle));
        prop_assert_eq!(bits(&theta.sum_estimate()), bits(&sum_of(&oracle)));
        prop_assert_eq!(bits(&theta.mean_estimate()), bits(&mean_of(&oracle)));
        prop_assert_eq!(bits(&theta.count_estimate()), bits(&count_of(&oracle)));
        prop_assert_eq!(
            bits(&quantile::top_k_strata(&theta, 3)),
            bits(&quantile::top_k_of(&oracle, 3))
        );
        prop_assert_eq!(theta.len(), pairs.len());
        prop_assert_eq!(
            theta.sampled_items(),
            pairs.iter().map(|p| p.sample.len()).sum::<usize>()
        );
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            prop_assert_eq!(
                bits(&quantile::quantile_with_bounds(&theta, q, Confidence::P95)),
                bits(&oracle_quantile(&rescaled, q, Confidence::P95))
            );
        }
        // One row per (pair, stratum present), stratum-ascending per pair.
        let rows: Vec<StratumId> = theta.rows().iter().map(|r| r.stratum).collect();
        let expected: Vec<StratumId> = pairs
            .iter()
            .flat_map(|p| {
                p.sample
                    .iter()
                    .map(|i| i.stratum)
                    .collect::<std::collections::BTreeSet<_>>()
            })
            .collect();
        prop_assert_eq!(rows, expected);
    }
}

/// A pair's items in another order over the same multiset: as generated
/// (random and repeated strata), grouped by stratum, or round-robin across
/// strata.
fn reorder(items: &[StreamItem], order: u8) -> Vec<StreamItem> {
    let groups = group_by_stratum(items);
    match order {
        0 => items.to_vec(),
        1 => groups.into_values().flatten().collect(),
        _ => {
            let longest = groups.values().map(Vec::len).max().unwrap_or(0);
            (0..longest)
                .flat_map(|k| groups.values().filter_map(move |g| g.get(k).copied()))
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The columnar entry point condenses exactly like the AoS one: the
    /// same rows bit for bit, the same kept values pointing at the same
    /// rows, and the same weight lookups in the same order.
    #[test]
    fn push_columns_matches_push_items(
        pairs in arb_pairs(),
        order in 0u8..3,
        keep_values in proptest::bool::ANY,
    ) {
        let mut by_items = ThetaStore::with_values(keep_values);
        let mut by_columns = ThetaStore::with_values(keep_values);
        let asked_items = std::cell::RefCell::new(Vec::new());
        let asked_columns = std::cell::RefCell::new(Vec::new());
        for pair in &pairs {
            let items = reorder(&pair.sample, order);
            let strata: Vec<u32> = items.iter().map(|i| i.stratum.index()).collect();
            let values: Vec<f64> = items.iter().map(|i| i.value).collect();
            by_items.push_items(&items, |s| {
                asked_items.borrow_mut().push(s);
                pair.weights.get(s)
            });
            by_columns.push_columns(&strata, &values, |s| {
                asked_columns.borrow_mut().push(s);
                pair.weights.get(s)
            });
        }
        let bits = |theta: &ThetaStore| -> Vec<(u32, u64, u64, u64, u64)> {
            theta
                .rows()
                .iter()
                .map(|r| {
                    let (w, v, q) = (r.weight.to_bits(), r.value_sum.to_bits(), r.value_sq_sum.to_bits());
                    (r.stratum.index(), w, v, r.n, q)
                })
                .collect()
        };
        prop_assert_eq!(bits(&by_columns), bits(&by_items));
        prop_assert_eq!(asked_columns.into_inner(), asked_items.into_inner());
        prop_assert_eq!(by_columns.len(), by_items.len());
        // Debug prints every float in its shortest round-trip form, so equal
        // text means equal kept values and row indices.
        prop_assert_eq!(format!("{by_columns:?}"), format!("{by_items:?}"));
        for q in [0.0, 0.25, 0.5, 0.75, 1.0].into_iter().filter(|_| keep_values) {
            prop_assert_eq!(
                format!("{:?}", quantile::quantile_with_bounds(&by_columns, q, Confidence::P95)),
                format!("{:?}", quantile::quantile_with_bounds(&by_items, q, Confidence::P95))
            );
        }
    }
}
