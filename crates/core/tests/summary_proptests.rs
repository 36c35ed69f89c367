//! Property-based tests on the mergeable stratum summaries: merge
//! commutativity/associativity at a fixed seed, the KLL rank-error bound,
//! and the Space-Saving guaranteed-count invariant.

use approxiot_core::{KllSketch, SketchConfig, SpaceSaving, StratumId, StratumSummaries};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One observation stream: `(stratum, identity, value)` triples. Identities
/// are made distinct by position so every observation is a distinct item.
fn arb_obs(max_len: usize) -> impl Strategy<Value = Vec<(u32, u64, f64)>> {
    proptest::collection::vec((0u32..6, 0u64..u64::MAX, -100.0f64..100.0), 0..max_len).prop_map(
        |v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (s, id, val))| (s, id ^ (i as u64) << 32, val))
                .collect()
        },
    )
}

fn summarize(config: SketchConfig, seed: u64, obs: &[(u32, u64, f64)]) -> StratumSummaries {
    let mut ss = StratumSummaries::new(config, seed);
    for &(stratum, identity, value) in obs {
        ss.observe(StratumId::new(stratum), identity, value);
    }
    ss
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Merging is bit-exactly commutative at a fixed seed: A·B == B·A for
    /// every component (moments are plain sums, KLL entries and Space-
    /// Saving counters are symmetric in their arguments).
    #[test]
    fn summaries_merge_is_bit_commutative(
        a in arb_obs(150),
        b in arb_obs(150),
        seed in 0u64..1000,
    ) {
        let config = SketchConfig::new(32, 4);
        let sa = summarize(config, seed, &a);
        let sb = summarize(config, seed, &b);
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Any split of the stream, summarized in parts and merged, is a
    /// function of the item multiset: counts and KLL sketches are
    /// bit-identical to the one-pass summary; moment sums agree to float
    /// re-association tolerance.
    #[test]
    fn summaries_split_merge_matches_bulk(
        obs in arb_obs(300),
        cut in 0usize..300,
        seed in 0u64..1000,
    ) {
        let config = SketchConfig::new(32, 4);
        let cut = cut.min(obs.len());
        let whole = summarize(config, seed, &obs);
        let mut merged = summarize(config, seed, &obs[..cut]);
        merged.merge(&summarize(config, seed, &obs[cut..]));
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.strata().len(), whole.strata().len());
        for (stratum, section) in whole.strata() {
            let mine = &merged.strata()[stratum];
            prop_assert_eq!(&mine.sketch, &section.sketch,
                "KLL state must be multiset-determined for {}", stratum);
            prop_assert_eq!(mine.moments.count, section.moments.count);
            let scale = 1.0 + section.moments.sum.abs();
            prop_assert!((mine.moments.sum - section.moments.sum).abs() < 1e-9 * scale);
        }
    }

    /// Three-way associativity: (A·B)·C and A·(B·C) agree exactly on
    /// counts and KLL state (both are pure functions of the multiset) and
    /// to float tolerance on the moment sums.
    #[test]
    fn summaries_merge_is_associative(
        a in arb_obs(100),
        b in arb_obs(100),
        c in arb_obs(100),
        seed in 0u64..1000,
    ) {
        let config = SketchConfig::new(32, 4);
        let (sa, sb, sc) = (
            summarize(config, seed, &a),
            summarize(config, seed, &b),
            summarize(config, seed, &c),
        );
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut right_tail = sb.clone();
        right_tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_tail);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.strata().len(), right.strata().len());
        for (stratum, section) in left.strata() {
            let theirs = &right.strata()[stratum];
            prop_assert_eq!(&theirs.sketch, &section.sketch,
                "KLL associativity for {}", stratum);
            prop_assert_eq!(theirs.moments.count, section.moments.count);
            let scale = 1.0 + section.moments.sum.abs();
            prop_assert!((theirs.moments.sum - section.moments.sum).abs() < 1e-9 * scale);
        }
    }

    /// The KLL rank estimate stays within a few sigma of the true rank for
    /// distinct values at any quantile, for arbitrary seeds.
    #[test]
    fn kll_rank_error_is_bounded_at_any_seed(
        n in 1000u64..4000,
        seed in 0u64..u64::MAX,
        q in 0.1f64..0.9,
    ) {
        let k = 256u32;
        let mut sketch = KllSketch::new(k, seed);
        for i in 0..n {
            sketch.update(i, i as f64);
        }
        let true_rank = (q * n as f64).floor();
        let rank = sketch.rank_of(true_rank - 0.5);
        // Binomial sigma of the hash-priority subsample at rate k/n, plus
        // one entry weight of discretization slack.
        let sigma = n as f64 * (0.25 / k as f64).sqrt();
        prop_assert!(
            (rank - true_rank).abs() < 6.0 * sigma + sketch.entry_weight(),
            "rank {} vs true {} (sigma {})",
            rank, true_rank, sigma
        );
    }

    /// The Space-Saving guarantee `weight − err ≤ true mass ≤ weight`
    /// holds for every tracked stratum after any update stream, and
    /// survives a split-and-merge of the same stream.
    #[test]
    fn space_saving_guarantee_survives_updates_and_merge(
        obs in proptest::collection::vec((0u32..12, 0.1f64..50.0), 1..200),
        capacity in 1u32..6,
        cut in 0usize..200,
    ) {
        let mut truth: BTreeMap<StratumId, f64> = BTreeMap::new();
        let mut whole = SpaceSaving::new(capacity);
        for &(stratum, mass) in &obs {
            whole.update(StratumId::new(stratum), mass);
            *truth.entry(StratumId::new(stratum)).or_default() += mass;
        }
        let cut = cut.min(obs.len());
        let mut left = SpaceSaving::new(capacity);
        for &(stratum, mass) in &obs[..cut] {
            left.update(StratumId::new(stratum), mass);
        }
        let mut right = SpaceSaving::new(capacity);
        for &(stratum, mass) in &obs[cut..] {
            right.update(StratumId::new(stratum), mass);
        }
        left.merge(&right);
        for summary in [&whole, &left] {
            prop_assert!(summary.entries().len() as u32 <= capacity);
            for (stratum, entry) in summary.entries() {
                let true_mass = truth.get(stratum).copied().unwrap_or(0.0);
                prop_assert!(
                    entry.weight - entry.err <= true_mass + 1e-9
                        && true_mass <= entry.weight + 1e-9,
                    "{}: tracked {:?} vs true {}",
                    stratum, entry, true_mass
                );
            }
        }
    }
}
