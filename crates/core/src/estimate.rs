//! The root node's estimators — Equations 3–5, 8 and 13 of the paper.
//!
//! The root accumulates `(W_out, sample)` pairs into a store `Θ` during each
//! window and, at window close, turns them into:
//!
//! * per-stratum **SUM** estimates: `SUM_i = Σ_pairs (Σ items) · W_out_i`,
//! * the reconstructed ground-truth **count** `ĉ_i,b = Σ_pairs |I_i| · W_out_i`
//!   (Equation 8 — exact by the count-reconstruction invariant),
//! * the global `SUM* = Σ_i SUM_i` and `MEAN* = SUM* / Σ_i ĉ_i,b`, and
//! * variance estimates for both (Equations 11 and 14), from which
//!   [`crate::Estimate`] derives the "68–95–99.7" error bounds.
//!
//! Those estimators read each pair only through its per-stratum weight,
//! `Σv`, `n` and `Σv²`, so `Θ` keeps exactly that: one [`ThetaRow`] per
//! `(pair, stratum)`, condensed as the pair arrives (from items or
//! columns, through one loop), instead of the sampled items. Rows sit in
//! pair order, stratum-ascending within a pair, and each
//! row's moments accumulate in item order — the order a per-item grouping
//! at window close would use — so every estimate is bit-identical to
//! grouping the buffered items. Raw values, which only the quantile
//! estimators read ([`crate::quantile`]), are kept beside the rows (in item
//! order, each pointing at its row for the weight) unless the store is
//! built with [`ThetaStore::with_values`]`(false)`.
//!
//! A pair may also arrive already condensed: a sketch root files each
//! child summary's exact per-stratum moments ([`crate::summary::Moments`])
//! as one pair of rows through [`ThetaStore::push_rows`], with no values.
//! At weight 1, `ĉ_i = ζ_i`, so those strata answer exactly, with
//! variance 0.
//!
//! [`ThetaStore::stratum_estimates`] is the one pass over the rows;
//! [`sum_of`], [`mean_of`] and [`count_of`] derive the global answers from
//! its map, so a caller answering several queries per window computes it
//! once.

use crate::error::Estimate;
use crate::item::{StratumId, StreamItem};
use crate::sampling::whs::WhsOutput;
use std::collections::BTreeMap;

/// Per-stratum aggregates the root derives from its `Θ` store.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StratumEstimate {
    /// Estimated sum of the stratum's original items (`SUM_i`, Equation 3).
    pub sum: f64,
    /// Reconstructed original item count (`ĉ_i,b`, Equation 8).
    pub count_hat: f64,
    /// Number of sampled items seen at the root (`ζ` in Equation 11).
    pub zeta: u64,
    /// Mean of the sampled item values (`Ī` in Equation 12).
    pub sample_mean: f64,
    /// Sample variance of the sampled item values (`s²`, Equation 12).
    pub sample_variance: f64,
    /// Estimated variance of `SUM_i` (Equation 11).
    pub sum_variance: f64,
}

/// One `(W_out, sample)` pair's items of one stratum, condensed to what
/// the estimators read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaRow {
    /// The stratum.
    pub stratum: StratumId,
    /// The pair's weight for the stratum (`W_out_i`).
    pub weight: f64,
    /// `Σv` over the pair's items of the stratum, in item order.
    pub value_sum: f64,
    /// Number of those items (`|I_i|`).
    pub n: u64,
    /// `Σv²` over the same items, in item order.
    pub value_sq_sum: f64,
}

/// The root's store of `(W_out, sample)` pairs for one window (`Θ` in
/// Algorithm 2), condensed to one [`ThetaRow`] per pair and stratum.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem, ThetaStore, WeightMap, WhsOutput};
///
/// let mut theta = ThetaStore::new();
/// let mut weights = WeightMap::new();
/// weights.set(StratumId::new(0), 3.0);
/// theta.push(WhsOutput {
///     weights,
///     sample: vec![StreamItem::new(StratumId::new(0), 5.0)],
/// });
/// let sum = theta.sum_estimate();
/// assert_eq!(sum.value, 15.0); // 5.0 * weight 3
/// assert_eq!(theta.rows().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ThetaStore {
    rows: Vec<ThetaRow>,
    /// `(value, row index)` per item, in item order; empty unless
    /// `keep_values`.
    values: Vec<(f64, usize)>,
    keep_values: bool,
    pairs: usize,
}

impl Default for ThetaStore {
    fn default() -> Self {
        ThetaStore::new()
    }
}

impl ThetaStore {
    /// Creates an empty store that keeps raw values, so every estimator —
    /// quantiles included — can read it.
    pub fn new() -> Self {
        ThetaStore::with_values(true)
    }

    /// Creates an empty store; with `keep_values` false it holds only the
    /// rows, for callers that never ask it for a quantile.
    pub fn with_values(keep_values: bool) -> Self {
        ThetaStore {
            rows: Vec::new(),
            values: Vec::new(),
            keep_values,
            pairs: 0,
        }
    }

    /// Whether the store keeps raw values for the quantile estimators.
    pub fn keeps_values(&self) -> bool {
        self.keep_values
    }

    /// Appends one `(W_out, sample)` pair (line 16 of Algorithm 2).
    pub fn push(&mut self, output: WhsOutput) {
        let WhsOutput { weights, sample } = output;
        self.push_items(&sample, |stratum| weights.get(stratum));
    }

    /// Appends one pair given as its items and the weight of each stratum
    /// present, condensing the items into one row per stratum. `weight_of`
    /// is called once per row.
    pub fn push_items(&mut self, items: &[StreamItem], weight_of: impl Fn(StratumId) -> f64) {
        let items = items.iter().map(|item| (item.stratum, item.value));
        self.condense(items, weight_of);
    }

    /// [`ThetaStore::push_items`] for a pair held as columns: item `k` has
    /// stratum `strata[k]` and value `values[k]`. The rows, kept values
    /// and `weight_of` calls are exactly those of `push_items` on the same
    /// items.
    ///
    /// # Panics
    ///
    /// Panics unless the two columns have the same length.
    pub fn push_columns(
        &mut self,
        strata: &[u32],
        values: &[f64],
        weight_of: impl Fn(StratumId) -> f64,
    ) {
        assert_eq!(strata.len(), values.len(), "columns of one pair");
        let items = strata.iter().zip(values);
        self.condense(items.map(|(&s, &v)| (StratumId::new(s), v)), weight_of);
    }

    /// Appends one pair given as its condensed rows, which must be in
    /// stratum-ascending order like the rows of any other pair. The pair
    /// keeps no raw values, so the quantile estimators do not see it.
    ///
    /// # Panics
    ///
    /// Panics unless the rows' strata are strictly ascending.
    pub fn push_rows(&mut self, rows: impl IntoIterator<Item = ThetaRow>) {
        let first_row = self.rows.len();
        self.rows.extend(rows);
        assert!(
            self.rows[first_row..]
                .windows(2)
                .all(|w| w[0].stratum < w[1].stratum),
            "one pair's rows are stratum-ascending"
        );
        self.pairs += 1;
    }

    /// The condense loop behind both entry points: one pair's
    /// `(stratum, value)` items, in item order.
    fn condense(
        &mut self,
        items: impl Iterator<Item = (StratumId, f64)> + Clone,
        weight_of: impl Fn(StratumId) -> f64,
    ) {
        self.pairs += 1;
        let first_row = self.rows.len();
        let first_value = self.values.len();
        let Some((first, _)) = items.clone().next() else {
            return;
        };
        // The current row's moments stay in registers while consecutive
        // items share its stratum (a grouped frame); on a change, the next
        // row is tried first (rows are created in first-seen order, so a
        // round-robin frame always hits it), then the pair's few rows are
        // scanned.
        let mut hit = self.row_for(first_row, first_row, first, &weight_of);
        let mut row = self.rows[hit];
        for (stratum, value) in items {
            if stratum != row.stratum {
                self.rows[hit] = row;
                let next = if hit + 1 < self.rows.len() {
                    hit + 1
                } else {
                    first_row
                };
                hit = self.row_for(first_row, next, stratum, &weight_of);
                row = self.rows[hit];
            }
            row.value_sum += value;
            row.n += 1;
            row.value_sq_sum += value * value;
            if self.keep_values {
                self.values.push((value, hit));
            }
        }
        self.rows[hit] = row;
        self.sort_pair(first_row, first_value);
    }

    /// The newest pair's row (rows from `first_row`) for `stratum`, tried
    /// at `guess` first; a new row weighted by `weight_of` if the pair has
    /// none yet.
    fn row_for(
        &mut self,
        first_row: usize,
        guess: usize,
        stratum: StratumId,
        weight_of: &impl Fn(StratumId) -> f64,
    ) -> usize {
        if self
            .rows
            .get(guess)
            .is_some_and(|row| row.stratum == stratum)
        {
            return guess;
        }
        if let Some(offset) = self.rows[first_row..]
            .iter()
            .position(|row| row.stratum == stratum)
        {
            return first_row + offset;
        }
        self.rows.push(ThetaRow {
            stratum,
            weight: weight_of(stratum),
            value_sum: 0.0,
            n: 0,
            value_sq_sum: 0.0,
        });
        self.rows.len() - 1
    }

    /// Puts the newest pair's rows (from `first_row`) in stratum order,
    /// repointing that pair's values (from `first_value`) at the moved
    /// rows.
    fn sort_pair(&mut self, first_row: usize, first_value: usize) {
        let pair = &mut self.rows[first_row..];
        if pair.windows(2).all(|w| w[0].stratum < w[1].stratum) {
            return;
        }
        if self.keep_values {
            let mut order: Vec<usize> = (0..pair.len()).collect();
            order.sort_unstable_by_key(|&offset| pair[offset].stratum);
            let mut moved_to = vec![0; pair.len()];
            for (new, &old) in order.iter().enumerate() {
                moved_to[old] = first_row + new;
            }
            for value in &mut self.values[first_value..] {
                value.1 = moved_to[value.1 - first_row];
            }
        }
        pair.sort_unstable_by_key(|row| row.stratum);
    }

    /// Number of buffered pairs.
    pub fn len(&self) -> usize {
        self.pairs
    }

    /// Returns `true` when no pair is buffered.
    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    /// Drops all buffered pairs for the next window.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.values.clear();
        self.pairs = 0;
    }

    /// The condensed rows: pair order, stratum-ascending within a pair.
    pub fn rows(&self) -> &[ThetaRow] {
        &self.rows
    }

    /// Every kept sampled item as `(value, weight)`, in item order (empty
    /// when the store does not keep values).
    pub(crate) fn weighted_values(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .map(|&(value, row)| (value, self.rows[row].weight))
    }

    /// Multiplies the weight of every row whose stratum `correction`
    /// answers for by that factor.
    pub fn rescale(&mut self, correction: impl Fn(StratumId) -> Option<f64>) {
        for row in &mut self.rows {
            if let Some(factor) = correction(row.stratum) {
                row.weight *= factor;
            }
        }
    }

    /// Total number of sampled items buffered (across strata).
    pub fn sampled_items(&self) -> usize {
        self.rows.iter().map(|row| row.n as usize).sum()
    }

    /// Computes all per-stratum aggregates (Equations 3, 8, 11, 12).
    pub fn stratum_estimates(&self) -> BTreeMap<StratumId, StratumEstimate> {
        // First pass: per-stratum sums, weighted counts, raw moments.
        #[derive(Default)]
        struct Acc {
            sum: f64,
            count_hat: f64,
            zeta: u64,
            value_sum: f64,
            value_sq_sum: f64,
        }
        let mut accs: BTreeMap<StratumId, Acc> = BTreeMap::new();
        for row in &self.rows {
            let acc = accs.entry(row.stratum).or_default();
            acc.sum += row.value_sum * row.weight;
            acc.count_hat += row.n as f64 * row.weight;
            acc.zeta += row.n;
            acc.value_sum += row.value_sum;
            acc.value_sq_sum += row.value_sq_sum;
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
                    // Numerically the two-pass form is better, but Θ keeps
                    // only moments; use the corrected sum-of-squares
                    // guarded against tiny negative round-off.
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
                (
                    stratum,
                    StratumEstimate {
                        sum: acc.sum,
                        count_hat: c,
                        zeta,
                        sample_mean: mean,
                        sample_variance: s2,
                        sum_variance: var,
                    },
                )
            })
            .collect()
    }

    /// The approximate total sum over all strata with its variance
    /// (`SUM*`, Equations 4 and 10–11).
    pub fn sum_estimate(&self) -> Estimate {
        sum_of(&self.stratum_estimates())
    }

    /// The approximate mean over all strata with its variance
    /// (`MEAN*`, Equations 13–14).
    ///
    /// Returns an estimate of `0` with zero variance when the store is
    /// empty.
    pub fn mean_estimate(&self) -> Estimate {
        mean_of(&self.stratum_estimates())
    }

    /// The reconstructed total item count `Σ_i ĉ_i,b` (Equation 8 summed).
    pub fn count_estimate(&self) -> f64 {
        count_of(&self.stratum_estimates())
    }
}

/// `SUM*` from a store's per-stratum estimates
/// ([`ThetaStore::sum_estimate`] without recomputing them).
pub fn sum_of(per: &BTreeMap<StratumId, StratumEstimate>) -> Estimate {
    let value: f64 = per.values().map(|e| e.sum).sum();
    let variance: f64 = per.values().map(|e| e.sum_variance).sum();
    Estimate::new(value, variance)
}

/// `MEAN*` from a store's per-stratum estimates
/// ([`ThetaStore::mean_estimate`] without recomputing them).
pub fn mean_of(per: &BTreeMap<StratumId, StratumEstimate>) -> Estimate {
    let total_count: f64 = per.values().map(|e| e.count_hat).sum();
    if total_count <= 0.0 {
        return Estimate::new(0.0, 0.0);
    }
    let mut value = 0.0;
    let mut variance = 0.0;
    for est in per.values() {
        let phi = est.count_hat / total_count;
        if est.zeta == 0 || est.count_hat <= 0.0 {
            continue;
        }
        let mean_i = est.sum / est.count_hat;
        value += phi * mean_i;
        let fpc = ((est.count_hat - est.zeta as f64) / est.count_hat).max(0.0);
        variance += phi * phi * est.sample_variance / est.zeta as f64 * fpc;
    }
    Estimate::new(value, variance)
}

/// `Σ_i ĉ_i,b` from a store's per-stratum estimates
/// ([`ThetaStore::count_estimate`] without recomputing them).
pub fn count_of(per: &BTreeMap<StratumId, StratumEstimate>) -> f64 {
    per.values().map(|e| e.count_hat).sum()
}

impl FromIterator<WhsOutput> for ThetaStore {
    fn from_iter<I: IntoIterator<Item = WhsOutput>>(iter: I) -> Self {
        let mut theta = ThetaStore::new();
        theta.extend(iter);
        theta
    }
}

impl Extend<WhsOutput> for ThetaStore {
    fn extend<I: IntoIterator<Item = WhsOutput>>(&mut self, iter: I) {
        for output in iter {
            self.push(output);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::item::StreamItem;
    use crate::sampling::allocation::Allocation;
    use crate::sampling::whs::whs_sample;
    use crate::weight::WeightMap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    fn pair(stratum: u32, weight: f64, values: &[f64]) -> WhsOutput {
        let mut weights = WeightMap::new();
        weights.set(s(stratum), weight);
        WhsOutput {
            weights,
            sample: values
                .iter()
                .map(|&v| StreamItem::new(s(stratum), v))
                .collect(),
        }
    }

    #[test]
    fn paper_figure_3_worked_example() {
        // Θ at root C holds (3, {item 5}) and (3, {item 3}); with item value
        // equal to its index the estimated sum is 3*5 + 3*3 = 24.
        let mut theta = ThetaStore::new();
        theta.push(pair(0, 3.0, &[5.0]));
        theta.push(pair(0, 3.0, &[3.0]));
        assert_eq!(theta.sum_estimate().value, 24.0);
        assert_eq!(theta.len(), 2);
        assert_eq!(theta.sampled_items(), 2);
    }

    #[test]
    fn empty_store_yields_zero_estimates() {
        let theta = ThetaStore::new();
        assert_eq!(theta.sum_estimate().value, 0.0);
        assert_eq!(theta.mean_estimate().value, 0.0);
        assert_eq!(theta.count_estimate(), 0.0);
        assert!(theta.is_empty());
    }

    #[test]
    fn count_hat_reconstructs_ground_truth_through_whs() {
        let mut rng = StdRng::seed_from_u64(21);
        let items: Vec<_> = (0..500).map(|i| StreamItem::new(s(0), i as f64)).collect();
        let out = whs_sample(
            &Batch::from_items(items),
            50,
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        let theta: ThetaStore = [out].into_iter().collect();
        assert!((theta.count_estimate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn unsampled_store_is_exact() {
        // When weights are all 1 (no sampling happened) both SUM* and MEAN*
        // are exact with zero variance.
        let mut theta = ThetaStore::new();
        theta.push(pair(0, 1.0, &[1.0, 2.0, 3.0]));
        theta.push(pair(1, 1.0, &[10.0]));
        let sum = theta.sum_estimate();
        assert_eq!(sum.value, 16.0);
        assert_eq!(sum.variance, 0.0);
        let mean = theta.mean_estimate();
        assert!((mean.value - 4.0).abs() < 1e-12);
        assert_eq!(mean.variance, 0.0);
    }

    #[test]
    fn variance_grows_with_weight() {
        // Same sampled values, heavier weight → larger extrapolation → more
        // variance.
        let light: ThetaStore = [pair(0, 2.0, &[1.0, 5.0, 9.0])].into_iter().collect();
        let heavy: ThetaStore = [pair(0, 20.0, &[1.0, 5.0, 9.0])].into_iter().collect();
        assert!(heavy.sum_estimate().variance > light.sum_estimate().variance);
    }

    #[test]
    fn zero_variance_for_constant_values() {
        let theta: ThetaStore = [pair(0, 4.0, &[7.0, 7.0, 7.0])].into_iter().collect();
        let est = theta.sum_estimate();
        assert_eq!(est.variance, 0.0, "constant samples have s² = 0");
        assert!((est.value - 4.0 * 21.0).abs() < 1e-12);
    }

    #[test]
    fn single_sampled_item_has_zero_s2_but_valid_sum() {
        let theta: ThetaStore = [pair(0, 10.0, &[3.0])].into_iter().collect();
        let per = theta.stratum_estimates();
        let e = &per[&s(0)];
        assert_eq!(e.zeta, 1);
        assert_eq!(e.sample_variance, 0.0);
        assert_eq!(e.sum, 30.0);
        assert_eq!(e.count_hat, 10.0);
    }

    #[test]
    fn strata_are_independent_in_the_store() {
        let mut theta = ThetaStore::new();
        theta.push(pair(0, 2.0, &[1.0]));
        theta.push(pair(1, 5.0, &[10.0, 20.0]));
        let per = theta.stratum_estimates();
        assert_eq!(per.len(), 2);
        assert_eq!(per[&s(0)].sum, 2.0);
        assert_eq!(per[&s(1)].sum, 150.0);
        assert_eq!(per[&s(1)].count_hat, 10.0);
    }

    #[test]
    fn mean_estimate_weights_strata_by_count() {
        // Stratum 0: 90 original items of value 1; stratum 1: 10 of value 11.
        // True mean = (90*1 + 10*11)/100 = 2.0.
        let mut theta = ThetaStore::new();
        theta.push(pair(0, 30.0, &[1.0, 1.0, 1.0])); // ĉ = 90
        theta.push(pair(1, 5.0, &[11.0, 11.0])); // ĉ = 10
        let mean = theta.mean_estimate();
        assert!((mean.value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_estimate_is_unbiased_over_repeated_sampling() {
        // End-to-end with real WHS: the average of many estimates converges
        // to the true sum.
        let mut rng = StdRng::seed_from_u64(22);
        let items: Vec<_> = (0..2_000)
            .map(|i| StreamItem::new(s((i % 4) as u32), (i % 13) as f64))
            .collect();
        let batch = Batch::from_items(items);
        let truth = batch.value_sum();
        let trials = 300;
        let mut acc = 0.0;
        for _ in 0..trials {
            let out = whs_sample(
                &batch,
                200,
                &WeightMap::new(),
                Allocation::Uniform,
                &mut rng,
            );
            let theta: ThetaStore = [out].into_iter().collect();
            acc += theta.sum_estimate().value;
        }
        let mean_est = acc / trials as f64;
        assert!(
            (mean_est - truth).abs() / truth < 0.02,
            "mean estimate {mean_est} vs truth {truth}"
        );
    }

    #[test]
    fn clear_resets_for_next_window() {
        let mut theta: ThetaStore = [pair(0, 1.0, &[1.0])].into_iter().collect();
        theta.clear();
        assert!(theta.is_empty());
        assert_eq!(theta.sum_estimate().value, 0.0);
    }

    #[test]
    fn push_rows_appends_one_pair_and_no_values() {
        let row = |stratum, weight, value_sum, n, value_sq_sum| ThetaRow {
            stratum: s(stratum),
            weight,
            value_sum,
            n,
            value_sq_sum,
        };
        let mut theta = ThetaStore::new();
        theta.push(pair(0, 2.0, &[1.0, 3.0]));
        let rows = [row(0, 1.0, 6.0, 3, 14.0), row(2, 1.0, 0.5, 1, 0.25)];
        theta.push_rows(rows);
        assert_eq!(theta.len(), 2, "one pair");
        assert_eq!(&theta.rows()[1..], &rows, "appended as given");
        assert_eq!(theta.sampled_items(), 6);
        let values: Vec<_> = theta.weighted_values().collect();
        assert_eq!(values, [(1.0, 2.0), (3.0, 2.0)], "the rows keep no values");
        let per = theta.stratum_estimates();
        assert_eq!(per[&s(0)].sum, 2.0 * 4.0 + 6.0);
        assert_eq!(per[&s(0)].count_hat, 7.0);
        // Weight 1: ĉ = ζ, so the stratum is exact.
        assert_eq!(per[&s(2)].count_hat, 1.0);
        assert_eq!(per[&s(2)].sum_variance, 0.0);
        theta.push_rows([]);
        assert_eq!(theta.len(), 3, "an empty pair still counts");
    }

    #[test]
    #[should_panic(expected = "stratum-ascending")]
    fn push_rows_rejects_unordered_rows() {
        let row = |stratum| ThetaRow {
            stratum: s(stratum),
            weight: 1.0,
            value_sum: 1.0,
            n: 1,
            value_sq_sum: 1.0,
        };
        ThetaStore::new().push_rows([row(1), row(0)]);
    }

    #[test]
    fn extend_appends_pairs() {
        let mut theta = ThetaStore::new();
        theta.extend([pair(0, 1.0, &[1.0]), pair(0, 1.0, &[2.0])]);
        assert_eq!(theta.len(), 2);
        assert_eq!(theta.sum_estimate().value, 3.0);
    }
}
