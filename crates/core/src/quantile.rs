//! Complex queries over weighted samples — the paper's future-work
//! extension ("we plan to extend the system to support more complex
//! queries such as joins, top-k, etc.", §VIII).
//!
//! Two query families compose naturally with weighted hierarchical
//! sampling because the `(value, weight)` pairs in `Θ` are an unbiased
//! weighted representation of the original stream:
//!
//! * **Quantiles** — [`weighted_quantile`] inverts the weighted empirical
//!   CDF; [`quantile_with_bounds`] adds the standard distribution-free
//!   order-statistic confidence interval.
//! * **Top-k** — [`top_k_strata`] ranks strata by their estimated sums,
//!   each carrying its variance from Equation 11.

use crate::error::{Confidence, Estimate};
use crate::estimate::{StratumEstimate, ThetaStore};
use crate::item::StratumId;
use std::collections::BTreeMap;

/// A quantile estimate with a distribution-free confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimate {
    /// The estimated quantile value.
    pub value: f64,
    /// Lower end of the confidence interval.
    pub lo: f64,
    /// Upper end of the confidence interval.
    pub hi: f64,
    /// The requested quantile in `[0, 1]`.
    pub q: f64,
}

/// Collects the `(value, weight)` pairs of a `Θ` store, sorted by value
/// (stable, so tied values keep item order).
fn weighted_values(theta: &ThetaStore) -> Vec<(f64, f64)> {
    debug_assert!(
        theta.keeps_values(),
        "quantiles read raw values; this store keeps only moments"
    );
    let mut pairs: Vec<(f64, f64)> = theta.weighted_values().collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    pairs
}

/// Inverts the weighted empirical CDF at cumulative weight `target`.
fn invert_cdf(pairs: &[(f64, f64)], target: f64) -> f64 {
    let mut acc = 0.0;
    for &(value, weight) in pairs {
        acc += weight;
        if acc >= target {
            return value;
        }
    }
    pairs.last().map_or(0.0, |p| p.0)
}

/// Estimates the `q`-quantile of the original stream from a window's `Θ`
/// store.
///
/// Each sampled item stands for `weight` original items, so the weighted
/// empirical CDF is an unbiased estimate of the original CDF; the quantile
/// is its inverse at `q`.
///
/// Returns `None` for an empty store.
///
/// # Panics
///
/// Panics unless `0 <= q <= 1`.
///
/// # Examples
///
/// ```
/// use approxiot_core::quantile::weighted_quantile;
/// use approxiot_core::{StratumId, StreamItem, ThetaStore, WeightMap, WhsOutput};
///
/// let mut weights = WeightMap::new();
/// weights.set(StratumId::new(0), 2.0);
/// let theta: ThetaStore = [WhsOutput {
///     weights,
///     sample: (1..=5).map(|v| StreamItem::new(StratumId::new(0), v as f64)).collect(),
/// }]
/// .into_iter()
/// .collect();
/// assert_eq!(weighted_quantile(&theta, 0.5), Some(3.0));
/// ```
pub fn weighted_quantile(theta: &ThetaStore, q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    let pairs = weighted_values(theta);
    if pairs.is_empty() {
        return None;
    }
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    Some(invert_cdf(&pairs, q * total))
}

/// Estimates the `q`-quantile with the distribution-free order-statistic
/// confidence interval: the interval endpoints are the weighted CDF
/// inverses at `q ± z·√(q(1−q)/ζ)` where `ζ` is the number of sampled
/// items and `z` the confidence level's sigma multiple.
///
/// Returns `None` for an empty store.
///
/// # Panics
///
/// Panics unless `0 <= q <= 1`.
pub fn quantile_with_bounds(
    theta: &ThetaStore,
    q: f64,
    confidence: Confidence,
) -> Option<QuantileEstimate> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    let pairs = weighted_values(theta);
    if pairs.is_empty() {
        return None;
    }
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let zeta = pairs.len() as f64;
    let half_width = confidence.sigmas() * (q * (1.0 - q) / zeta).sqrt();
    let q_lo = (q - half_width).max(0.0);
    let q_hi = (q + half_width).min(1.0);
    Some(QuantileEstimate {
        value: invert_cdf(&pairs, q * total),
        lo: invert_cdf(&pairs, q_lo * total),
        hi: invert_cdf(&pairs, q_hi * total),
        q,
    })
}

/// Ranks strata by estimated SUM, descending; returns at most `k` entries,
/// each with the Equation-11 variance so callers can reason about rank
/// stability.
///
/// # Examples
///
/// ```
/// use approxiot_core::quantile::top_k_strata;
/// use approxiot_core::{StratumId, StreamItem, ThetaStore, WeightMap, WhsOutput};
///
/// let mut theta = ThetaStore::new();
/// for (stratum, value) in [(0u32, 1.0), (1, 100.0), (2, 10.0)] {
///     let mut weights = WeightMap::new();
///     weights.set(StratumId::new(stratum), 1.0);
///     theta.push(WhsOutput {
///         weights,
///         sample: vec![StreamItem::new(StratumId::new(stratum), value)],
///     });
/// }
/// let top = top_k_strata(&theta, 2);
/// assert_eq!(top[0].0, StratumId::new(1));
/// assert_eq!(top[1].0, StratumId::new(2));
/// ```
pub fn top_k_strata(theta: &ThetaStore, k: usize) -> Vec<(StratumId, Estimate)> {
    top_k_of(&theta.stratum_estimates(), k)
}

/// [`top_k_strata`] from a store's per-stratum estimates, without
/// recomputing them.
pub fn top_k_of(
    per: &BTreeMap<StratumId, StratumEstimate>,
    k: usize,
) -> Vec<(StratumId, Estimate)> {
    let mut ranked: Vec<(StratumId, Estimate)> = per
        .iter()
        .map(|(&s, e)| (s, Estimate::new(e.sum, e.sum_variance)))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.value
            .partial_cmp(&a.1.value)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::item::StreamItem;
    use crate::sampling::allocation::Allocation;
    use crate::sampling::whs::whs_sample;
    use crate::weight::WeightMap;
    use crate::WhsOutput;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    fn theta_of(pairs: &[(u32, f64, Vec<f64>)]) -> ThetaStore {
        pairs
            .iter()
            .map(|(stratum, weight, values)| {
                let mut weights = WeightMap::new();
                weights.set(s(*stratum), *weight);
                WhsOutput {
                    weights,
                    sample: values
                        .iter()
                        .map(|&v| StreamItem::new(s(*stratum), v))
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn median_of_uniform_values() {
        let theta = theta_of(&[(0, 1.0, (1..=9).map(|v| v as f64).collect())]);
        assert_eq!(weighted_quantile(&theta, 0.5), Some(5.0));
        assert_eq!(weighted_quantile(&theta, 0.0), Some(1.0));
        assert_eq!(weighted_quantile(&theta, 1.0), Some(9.0));
    }

    #[test]
    fn weights_shift_the_quantile() {
        // Three small values at weight 1, one large value at weight 10: the
        // large value dominates the upper half of the weighted CDF.
        let mut theta = theta_of(&[(0, 1.0, vec![1.0, 2.0, 3.0])]);
        let mut weights = WeightMap::new();
        weights.set(s(1), 10.0);
        theta.push(WhsOutput {
            weights,
            sample: vec![StreamItem::new(s(1), 100.0)],
        });
        // Total weight 13: q = 0.9 → cumulative target 11.7 lands on the
        // heavy item; q = 0.05 → target 0.65 stays on the first value.
        assert_eq!(weighted_quantile(&theta, 0.9), Some(100.0));
        assert_eq!(weighted_quantile(&theta, 0.05), Some(1.0));
    }

    #[test]
    fn empty_store_yields_none() {
        let theta = ThetaStore::new();
        assert_eq!(weighted_quantile(&theta, 0.5), None);
        assert_eq!(quantile_with_bounds(&theta, 0.5, Confidence::P95), None);
        assert!(top_k_strata(&theta, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn rejects_out_of_range_quantile() {
        weighted_quantile(&ThetaStore::new(), 1.5);
    }

    #[test]
    fn bounds_bracket_the_estimate_and_tighten_with_samples() {
        let small = theta_of(&[(0, 10.0, (0..20).map(|v| v as f64).collect())]);
        let large = theta_of(&[(0, 10.0, (0..2000).map(|v| (v % 100) as f64).collect())]);
        let qs = quantile_with_bounds(&small, 0.5, Confidence::P95).expect("non-empty");
        let ql = quantile_with_bounds(&large, 0.5, Confidence::P95).expect("non-empty");
        assert!(qs.lo <= qs.value && qs.value <= qs.hi);
        assert!(ql.lo <= ql.value && ql.value <= ql.hi);
        let small_width = qs.hi - qs.lo;
        let large_width = ql.hi - ql.lo;
        assert!(
            large_width <= small_width,
            "more samples should not widen the interval: {large_width} vs {small_width}"
        );
    }

    #[test]
    fn quantile_of_sampled_stream_tracks_original() {
        // Sample 10% of a stream and check the median estimate lands near
        // the true median.
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<StreamItem> = (0..10_000)
            .map(|k| StreamItem::new(s(0), (k % 1000) as f64))
            .collect();
        let batch = Batch::from_items(items);
        let out = whs_sample(
            &batch,
            1_000,
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        let theta: ThetaStore = [out].into_iter().collect();
        let median = weighted_quantile(&theta, 0.5).expect("non-empty");
        assert!((median - 500.0).abs() < 50.0, "median {median}");
    }

    #[test]
    fn top_k_orders_by_estimated_sum() {
        let theta = theta_of(&[
            (0, 2.0, vec![1.0, 1.0]),   // sum 4
            (1, 3.0, vec![100.0]),      // sum 300
            (2, 1.0, vec![10.0, 10.0]), // sum 20
        ]);
        let top = top_k_strata(&theta, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, s(1));
        assert_eq!(top[0].1.value, 300.0);
        assert_eq!(top[1].0, s(2));
        // k larger than the stratum count returns everything.
        assert_eq!(top_k_strata(&theta, 10).len(), 3);
    }
}
