//! The root node: final sampling stage, windowed `Θ` store, query
//! execution and error bounds (Algorithm 2, lines 20–26).

use crate::churn::InclusionHandle;
use crate::node::{SamplingNode, Strategy};
use crate::query::{Query, QueryResults, QuerySet, QuerySpec, QueryValue};
use approxiot_core::estimate::count_of;
use approxiot_core::{
    Batch, ColumnarBatch, Confidence, Estimate, StratumId, StratumSummaries, ThetaRow, ThetaStore,
    WeightMap,
};
use approxiot_streams::{TumblingWindow, WindowBuffer, WindowId};
use std::collections::BTreeMap;
use std::time::Duration;

/// One window's approximate answer, as the root emits it
/// (`result ± error`).
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// The window index.
    pub window: WindowId,
    /// Window start (nanoseconds, inclusive).
    pub start_nanos: u64,
    /// Window end (nanoseconds, exclusive).
    pub end_nanos: u64,
    /// The primary query's estimate with variance (the first scalar query
    /// in the window's [`QuerySet`], SUM by default).
    pub estimate: Estimate,
    /// Per-stratum estimates of the primary query (for per-pollutant
    /// style reporting).
    pub per_stratum: BTreeMap<StratumId, Estimate>,
    /// Every registered query's answer for this window, in registration
    /// order.
    pub queries: QueryResults,
    /// Number of sampled items the estimate was computed from.
    pub sampled_items: usize,
    /// Reconstructed original item count for the window (Equation 8).
    pub count_hat: f64,
    /// Estimated fraction of the window's source items whose contribution
    /// survived in-flight loss, in `[0, 1]`. Exactly `1.0` on an
    /// unimpaired topology; under fault injection the engine fills it in
    /// from the delivered (pre-rescale) count against the true pushed
    /// count.
    pub completeness: f64,
    /// Items the root rejected for arriving past the allowed-lateness
    /// horizon since the previous result was emitted (the window they
    /// targeted had already been answered).
    pub dropped_late: u64,
}

impl WindowResult {
    /// The ± error at `confidence` (the paper's default reporting is 95%).
    pub fn error_bound(&self, confidence: Confidence) -> f64 {
        self.estimate.bound(confidence)
    }
}

/// Configuration of a [`RootNode`].
#[derive(Debug, Clone)]
pub struct RootConfig {
    /// The strategy the whole pipeline runs (decides how estimates are
    /// reconstructed).
    pub strategy: Strategy,
    /// The root's own sampling fraction (the root samples too, §IV).
    pub fraction: f64,
    /// End-to-end keep probability across all sampling layers — the SRS
    /// estimator's Horvitz–Thompson scale is `1 / overall_fraction`.
    pub overall_fraction: f64,
    /// The computation window.
    pub window: Duration,
    /// The queries to run per window.
    pub queries: QuerySet,
    /// RNG seed for the root's sampler.
    pub seed: u64,
    /// Expected delivered copies per source item under the topology's
    /// fault injection ([`crate::Topology::delivery_factor`]). The root
    /// divides every stratum weight by this factor (Horvitz–Thompson
    /// under uniform random loss) so SUM/COUNT stay unbiased; `1.0` — the
    /// unimpaired value — changes nothing.
    pub delivery_factor: f64,
    /// How far past a window's end the watermark handed to
    /// [`RootNode::advance_watermark`] must reach before the window
    /// closes; arrivals for a closed window are dropped and counted in
    /// [`WindowResult::dropped_late`]. (The wall-clock pipeline adds it to
    /// its in-band watermark too, so there it only bounds the wait for a
    /// silent child.)
    pub allowed_lateness: Duration,
}

impl RootConfig {
    /// A root for an ApproxIoT pipeline with the given per-layer and
    /// overall fractions, on a perfect (unimpaired) network.
    pub fn approxiot(fraction: f64, overall_fraction: f64, window: Duration) -> Self {
        RootConfig {
            strategy: Strategy::whs(),
            fraction,
            overall_fraction,
            window,
            queries: QuerySet::default(),
            seed: 0xB07,
            delivery_factor: 1.0,
            allowed_lateness: Duration::ZERO,
        }
    }
}

/// The datacenter node: samples its input one last time, accumulates
/// `(W_out, sample)` pairs per window, and at each watermark advance runs
/// the query and emits [`WindowResult`]s with rigorous error bounds.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem};
/// use approxiot_runtime::{Query, QuerySet, RootConfig, RootNode, Strategy};
/// use std::time::Duration;
///
/// let mut root = RootNode::new(RootConfig {
///     strategy: Strategy::whs(),
///     fraction: 1.0,
///     overall_fraction: 1.0,
///     window: Duration::from_secs(1),
///     queries: QuerySet::single(Query::Sum),
///     seed: 1,
///     delivery_factor: 1.0,
///     allowed_lateness: Duration::ZERO,
/// })?;
/// root.ingest(&Batch::from_items(vec![StreamItem::with_meta(StratumId::new(0), 5.0, 0, 10)]));
/// let results = root.advance_watermark(2_000_000_000);
/// assert_eq!(results[0].estimate.value, 5.0);
/// # Ok::<(), approxiot_core::BudgetError>(())
/// ```
#[derive(Debug)]
pub struct RootNode {
    sampler: SamplingNode,
    /// The sampler's output for the current columnar frame, reused across
    /// frames so sampling allocates no columns.
    sampled: ColumnarBatch,
    /// Each open window — exactly one [`OpenWindow`] per window.
    buffer: WindowBuffer<OpenWindow>,
    /// Whether `Θ` keeps raw values: only when a registered query reads
    /// them (`Quantile`).
    keep_values: bool,
    /// Items received (pre-sampling).
    items_in: u64,
    queries: QuerySet,
    /// The first scalar query (drives the result's primary `estimate`).
    primary: Query,
    strategy: Strategy,
    /// Horvitz–Thompson scale for SRS reconstruction (already divided by
    /// the delivery factor).
    srs_scale: f64,
    /// `1 / delivery_factor`: the loss correction applied to every
    /// stratum weight filed into `Θ`. Exactly `1.0` when the topology is
    /// unimpaired, in which case no weight is touched.
    loss_scale: f64,
    /// Items dropped for arriving past the allowed-lateness horizon.
    dropped_late: u64,
    /// `dropped_late` already attributed to an emitted result.
    dropped_late_reported: u64,
    /// Per-window, per-stratum inclusion tallies shared with the engine's
    /// churn driver (`None` on an unchurned topology). When present, the
    /// run-global `loss_scale` generalizes at answer time to
    /// `1 / (loss_scale_already_applied · inclusion_factor)` per stratum —
    /// the node-level Horvitz–Thompson rescale.
    inclusion: Option<InclusionHandle>,
}

impl RootNode {
    /// Creates a root node.
    ///
    /// # Errors
    ///
    /// Returns [`approxiot_core::BudgetError`] for fractions outside
    /// `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `delivery_factor` is finite and positive (loss is
    /// clamped below 1, so every real topology satisfies this).
    pub fn new(config: RootConfig) -> Result<Self, approxiot_core::BudgetError> {
        // Validate the overall fraction through the same gate.
        approxiot_core::SamplingBudget::new(config.overall_fraction)?;
        assert!(
            config.delivery_factor.is_finite() && config.delivery_factor > 0.0,
            "delivery factor must be finite and positive, got {}",
            config.delivery_factor
        );
        Ok(RootNode {
            sampler: SamplingNode::new(config.strategy, config.fraction, config.seed)?,
            sampled: ColumnarBatch::new(),
            buffer: WindowBuffer::new(TumblingWindow::new(config.window))
                .with_allowed_lateness(config.allowed_lateness),
            keep_values: config.queries.reads_values(),
            items_in: 0,
            primary: config.queries.primary(),
            queries: config.queries,
            strategy: config.strategy,
            srs_scale: 1.0 / (config.overall_fraction * config.delivery_factor),
            loss_scale: 1.0 / config.delivery_factor,
            dropped_late: 0,
            dropped_late_reported: 0,
            inclusion: None,
        })
    }

    /// Attaches the engine's per-window inclusion map (fleet churn): at
    /// answer time every stratum's weight is further divided by that
    /// window's inclusion factor, generalizing the run-global loss rescale
    /// to per-window, per-subtree delivery — SUM/COUNT stay unbiased while
    /// nodes are down. Never called on an unchurned topology.
    pub fn set_inclusion(&mut self, inclusion: InclusionHandle) {
        self.inclusion = Some(inclusion);
    }

    /// The primary (first scalar) query this root runs.
    pub fn query(&self) -> Query {
        self.primary
    }

    /// Every query this root runs per window.
    pub fn queries(&self) -> &QuerySet {
        &self.queries
    }

    /// The window scheme.
    pub fn window(&self) -> TumblingWindow {
        self.buffer.scheme()
    }

    /// Ingests one batch from the final edge layer: the root samples it,
    /// then condenses the weighted output into the per-window `Θ` store,
    /// with items split across windows by their event time. A native root
    /// condenses the batch itself, without copying it.
    pub fn ingest(&mut self, batch: &Batch) {
        self.ingest_frame(batch);
    }

    /// [`RootNode::ingest`] for callers holding the batch mutably. The
    /// batch is left untouched.
    pub fn ingest_mut(&mut self, batch: &mut Batch) {
        self.ingest(batch);
    }

    /// [`RootNode::ingest`] for a batch held as columns, as the threaded
    /// engine decodes it: condensed (under WHS or SRS, sampled first)
    /// without building items, bit-identically to `ingest`.
    pub fn ingest_columns(&mut self, batch: &ColumnarBatch) {
        self.ingest_frame(batch);
    }

    /// The one ingest body behind both layouts.
    fn ingest_frame<F: Frame>(&mut self, frame: &F) {
        self.items_in += frame.source_ts().len() as u64;
        if matches!(self.strategy, Strategy::Native) {
            self.file(frame);
        } else {
            frame.sample_and_file(self);
        }
    }

    /// Ingests windowed summary payloads from a sketch-strategy edge
    /// layer ([`crate::NodePayload::Summaries`]). Each window's summary
    /// becomes one pair in that window's `Θ` store: one row per stratum
    /// holding the stratum's exact moments, weighted by the loss scale
    /// (1 on every topology the sketch strategy runs on). Its sketches
    /// merge into the window's, which answer only `Quantile` and `TopK`.
    /// Payloads targeting a window that already closed (past the allowed
    /// lateness) are dropped and their exact item counts added to the
    /// late tally.
    pub fn ingest_summaries(&mut self, windows: Vec<(u64, StratumSummaries)>) {
        let scheme = self.buffer.scheme();
        let weight = self.loss_scale;
        for (window, summaries) in windows {
            if summaries.is_empty() {
                continue;
            }
            let Some(open) = self.window_at(scheme.start_of(window), summaries.count()) else {
                continue;
            };
            open.theta.push_rows(
                summaries
                    .strata()
                    .iter()
                    .map(|(&stratum, section)| ThetaRow {
                        stratum,
                        weight,
                        value_sum: section.moments.sum,
                        n: section.moments.count,
                        value_sq_sum: section.moments.sum_sq,
                    }),
            );
            match &mut open.sketches {
                Some(merged) => merged.merge(&summaries),
                None => open.sketches = Some(summaries),
            }
        }
    }

    /// Files the root's own sampled output into `Θ`. A frame whose items
    /// all fall in one window (the overwhelmingly common case — edge nodes
    /// forward at window granularity) becomes one pair in that window; only
    /// frames genuinely straddling a window boundary are split, one pair
    /// per window. Items targeting a window that already closed (past the
    /// allowed lateness) are dropped and counted.
    fn file<F: Frame>(&mut self, sampled: &F) {
        let Some(first) = sampled.source_ts().next() else {
            return;
        };
        let scheme = self.buffer.scheme();
        let window = scheme.index_of(first);
        let span = scheme.start_of(window)..scheme.end_of(window);
        let weight_of = self.row_weight(sampled.weights());
        if sampled.source_ts().all(|ts| span.contains(&ts)) {
            if let Some(open) = self.window_at(span.start, sampled.source_ts().len() as u64) {
                sampled.condense_into(&mut open.theta, weight_of);
            }
            return;
        }
        // Replicating the weight map across splits is safe: Θ's estimators
        // sum |I|·W per pair, which is invariant under splitting.
        let mut per_window: BTreeMap<WindowId, (Vec<u32>, Vec<f64>)> = BTreeMap::new();
        for (ts, (stratum, value)) in sampled.source_ts().zip(sampled.items()) {
            let (strata, values) = per_window.entry(scheme.index_of(ts)).or_default();
            strata.push(stratum);
            values.push(value);
        }
        for (window, (strata, values)) in per_window {
            if let Some(open) = self.window_at(scheme.start_of(window), strata.len() as u64) {
                open.theta.push_columns(&strata, &values, &weight_of);
            }
        }
    }

    /// The open window starting at `start`; `None` — the pair's `items`
    /// counted as late — when that window already closed.
    fn window_at(&mut self, start: u64, items: u64) -> Option<&mut OpenWindow> {
        let keep_values = self.keep_values;
        let Some(open) = self.buffer.window_mut(start) else {
            self.dropped_late += items;
            return None;
        };
        if open.is_empty() {
            open.push(OpenWindow {
                theta: ThetaStore::with_values(keep_values),
                sketches: None,
            });
        }
        open.first_mut()
    }

    /// The weight `Θ` records per stratum for a pair carrying `weights`:
    /// WHS keeps the sampled weight; SRS substitutes the Horvitz–Thompson
    /// scale; native forces weight 1 (exact). On an impaired topology every
    /// weight is additionally divided by the delivery factor so randomly
    /// lost contributions are extrapolated back in (Horvitz–Thompson under
    /// uniform loss); the SRS scale already includes it.
    fn row_weight<'a>(&self, weights: &'a WeightMap) -> impl Fn(StratumId) -> f64 + 'a {
        let (strategy, srs_scale, loss_scale) = (self.strategy, self.srs_scale, self.loss_scale);
        move |stratum| match strategy {
            Strategy::Whs { .. } => weights.get(stratum) * loss_scale,
            Strategy::Srs => srs_scale,
            Strategy::Native => loss_scale,
            Strategy::Sketch(_) => unreachable!("sketch roots file summaries' moments, not items"),
        }
    }

    /// The node-level Horvitz–Thompson rescale (fleet churn only): divides
    /// every stratum weight by the window's effective inclusion factor —
    /// the expected delivered weight per pushed item, built by the engine
    /// from per-sender path delivery factors over the leaves actually
    /// alive that window. The `loss_scale` already applied at ingest is
    /// part of the factor, so the combined multiplier per stratum is
    /// exactly `1 / factor(window, stratum)` relative to the raw sampled
    /// weights; with every node healthy the factor equals the run-global
    /// delivery factor and the correction cancels. Strata whose factor is
    /// zero (nothing could have arrived) are left untouched — there is no
    /// unbiased extrapolation from an empty stratum.
    fn rescale_for_inclusion(&self, window: WindowId, theta: &mut ThetaStore) {
        let Some(inclusion) = &self.inclusion else {
            return;
        };
        let map = inclusion
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(tallies) = map.get(&window) else {
            return;
        };
        theta.rescale(|stratum| {
            let factor = tallies.get(&stratum)?.factor();
            (factor > 0.0).then(|| 1.0 / (self.loss_scale * factor))
        });
    }

    /// Advances the event-time watermark, closing and answering every
    /// window that ended at or before it.
    pub fn advance_watermark(&mut self, watermark_nanos: u64) -> Vec<WindowResult> {
        let closed = self.buffer.drain_closed(watermark_nanos);
        closed
            .into_iter()
            .map(|(id, stores)| self.answer(id, stores))
            .collect()
    }

    /// Flushes all remaining windows (end of stream).
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let all = self.buffer.drain_all();
        all.into_iter()
            .map(|(id, stores)| self.answer(id, stores))
            .collect()
    }

    /// The per-stratum variant of the primary query, for the result's
    /// `per_stratum` field.
    fn per_stratum_spec(&self) -> QuerySpec {
        match self.primary {
            Query::Sum => QuerySpec::SumPerStratum,
            Query::Mean => QuerySpec::MeanPerStratum,
            Query::Count => QuerySpec::CountPerStratum,
        }
    }

    /// Answers one window from its `Θ` store, computing the per-stratum
    /// estimates once for every registered query and the result's own
    /// fields.
    fn answer(&mut self, window: WindowId, open: Vec<OpenWindow>) -> WindowResult {
        // `window_at` keeps exactly one per window.
        let OpenWindow {
            mut theta,
            sketches,
        } = open.into_iter().next().unwrap_or_default();
        self.rescale_for_inclusion(window, &mut theta);
        let per = theta.stratum_estimates();
        let queries = self.queries.run_with(&theta, &per, sketches.as_ref());
        // Reuse the registered answers for the result's primary fields;
        // only derive them separately when the set doesn't cover them.
        let estimate = queries
            .get(QuerySpec::from(self.primary))
            .and_then(QueryValue::scalar)
            .copied()
            .unwrap_or_else(|| self.primary.answer(&per));
        let per_stratum = queries
            .per_stratum(self.per_stratum_spec())
            .cloned()
            .unwrap_or_else(|| self.primary.answer_per_stratum(&per));
        // What a sketch window holds is retained sketch entries plus
        // heavy-hitter counters, not sampled items.
        let sampled_items = match &sketches {
            Some(merged) => {
                merged
                    .strata()
                    .values()
                    .map(|s| s.sketch.len())
                    .sum::<usize>()
                    + merged.heavy().entries().len()
            }
            None => per.values().map(|e| e.zeta as usize).sum(),
        };
        let scheme = self.buffer.scheme();
        // Late drops are attributed to the result emitted after they
        // happened (their own window is already gone by definition).
        let dropped_late = self.dropped_late - self.dropped_late_reported;
        self.dropped_late_reported = self.dropped_late;
        WindowResult {
            window,
            start_nanos: scheme.start_of(window),
            end_nanos: scheme.end_of(window),
            estimate,
            per_stratum,
            queries,
            sampled_items,
            count_hat: count_of(&per),
            completeness: 1.0,
            dropped_late,
        }
    }

    /// Total items dropped for arriving past the allowed-lateness horizon.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Items received (pre-sampling) by the root.
    pub fn items_in(&self) -> u64 {
        self.items_in
    }
}

/// One open window at the root: its `Θ` store and, on a sketch root, the
/// child summaries' sketches merged in arrival order.
#[derive(Debug, Default)]
struct OpenWindow {
    theta: ThetaStore,
    sketches: Option<StratumSummaries>,
}

/// A frame the root ingests, in either in-flight layout: the [`Batch`]
/// the sim engine hands it or the [`ColumnarBatch`] the threaded engine
/// decodes from the wire. Each layout condenses through its own `Θ` entry
/// point; the two are bit-identical.
trait Frame {
    fn weights(&self) -> &WeightMap;
    /// Item event times, in item order.
    fn source_ts(&self) -> impl ExactSizeIterator<Item = u64> + '_;
    /// `(stratum, value)` per item, in item order.
    fn items(&self) -> impl Iterator<Item = (u32, f64)> + '_;
    /// Condenses the whole frame into `theta` as one pair.
    fn condense_into(&self, theta: &mut ThetaStore, weight_of: impl Fn(StratumId) -> f64);
    /// Runs the root's sampler over this frame and files its output, in
    /// the same layout.
    fn sample_and_file(&self, root: &mut RootNode);
}

impl Frame for Batch {
    fn weights(&self) -> &WeightMap {
        &self.weights
    }

    fn source_ts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.items.iter().map(|item| item.source_ts)
    }

    fn items(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.items
            .iter()
            .map(|item| (item.stratum.index(), item.value))
    }

    fn condense_into(&self, theta: &mut ThetaStore, weight_of: impl Fn(StratumId) -> f64) {
        theta.push_items(&self.items, weight_of);
    }

    fn sample_and_file(&self, root: &mut RootNode) {
        let sampled = root.sampler.process_batch(self);
        root.file(&sampled);
    }
}

impl Frame for ColumnarBatch {
    fn weights(&self) -> &WeightMap {
        &self.weights
    }

    fn source_ts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.source_ts.iter().copied()
    }

    fn items(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.strata.iter().copied().zip(self.values.iter().copied())
    }

    fn condense_into(&self, theta: &mut ThetaStore, weight_of: impl Fn(StratumId) -> f64) {
        theta.push_columns(&self.strata, &self.values, weight_of);
    }

    fn sample_and_file(&self, root: &mut RootNode) {
        // Sample into the root's reused columns, lent out while `file`
        // borrows the root.
        let mut sampled = std::mem::take(&mut root.sampled);
        root.sampler.process_columns_into(self, &mut sampled);
        root.file(&sampled);
        root.sampled = sampled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::StreamItem;

    const SEC: u64 = 1_000_000_000;

    fn cfg(strategy: Strategy, fraction: f64, overall: f64) -> RootConfig {
        RootConfig {
            strategy,
            fraction,
            overall_fraction: overall,
            window: Duration::from_secs(1),
            queries: QuerySet::single(Query::Sum),
            seed: 7,
            delivery_factor: 1.0,
            allowed_lateness: Duration::ZERO,
        }
    }

    fn items(stratum: u32, n: usize, value: f64, ts: u64) -> Batch {
        Batch::from_items(
            (0..n)
                .map(|k| StreamItem::with_meta(StratumId::new(stratum), value, k as u64, ts))
                .collect(),
        )
    }

    #[test]
    fn unsampled_root_is_exact() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 1.0, 1.0)).expect("valid");
        root.ingest(&items(0, 10, 2.0, 100));
        let results = root.advance_watermark(SEC);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].estimate.value, 20.0);
        assert_eq!(results[0].estimate.variance, 0.0);
        assert_eq!(results[0].count_hat, 10.0);
    }

    #[test]
    fn watermark_only_closes_finished_windows() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 1.0, 1.0)).expect("valid");
        root.ingest(&items(0, 1, 1.0, 100)); // window 0
        root.ingest(&items(0, 1, 1.0, SEC + 100)); // window 1
        let r = root.advance_watermark(SEC);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].window, 0);
        let rest = root.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].window, 1);
    }

    #[test]
    fn ingest_mut_consumes_native_batches_without_cloning() {
        let mut root = RootNode::new(cfg(Strategy::Native, 1.0, 1.0)).expect("valid");
        let mut batch = items(0, 10, 2.0, 100);
        let sent = batch.clone();
        root.ingest_mut(&mut batch);
        assert_eq!(batch, sent, "the batch is left untouched");
        let results = root.advance_watermark(SEC);
        assert_eq!(results[0].estimate.value, 20.0);
        assert_eq!(results[0].estimate.variance, 0.0);
        assert_eq!(results[0].count_hat, 10.0);
        assert_eq!(results[0].sampled_items, 10);
    }

    #[test]
    fn open_windows_hold_rows_per_frame_and_stratum_not_items() {
        let (frames, strata, per_stratum) = (50, 4, 64);
        let mut root = RootNode::new(cfg(Strategy::Native, 1.0, 1.0)).expect("valid");
        let mut batch = Batch::new();
        for frame in 0..frames {
            batch.clear();
            for k in 0..strata * per_stratum {
                let stratum = StratumId::new((k % strata) as u32);
                batch
                    .items
                    .push(StreamItem::with_meta(stratum, 1.0, k as u64, 100 + frame));
            }
            root.ingest_mut(&mut batch);
        }
        let theta = &root.buffer.window_mut(100).expect("window 0 is open")[0].theta;
        assert_eq!(theta.rows().len(), frames as usize * strata);
        assert_eq!(
            theta.sampled_items(),
            frames as usize * strata * per_stratum
        );
        assert!(!theta.keeps_values(), "a SUM-only root keeps no raw values");
        let results = root.advance_watermark(SEC);
        assert_eq!(
            results[0].count_hat,
            (frames as usize * strata * per_stratum) as f64
        );
    }

    #[test]
    fn ingest_mut_matches_ingest_for_whs() {
        let mut by_ref = RootNode::new(cfg(Strategy::whs(), 0.5, 0.5)).expect("valid");
        let mut by_mut = RootNode::new(cfg(Strategy::whs(), 0.5, 0.5)).expect("valid");
        let batch = items(0, 200, 1.0, 100);
        by_ref.ingest(&batch);
        let mut owned = batch.clone();
        by_mut.ingest_mut(&mut owned);
        assert_eq!(owned.len(), 200, "WHS root samples from, not consumes");
        let a = by_ref.advance_watermark(SEC);
        let b = by_mut.advance_watermark(SEC);
        assert_eq!(a[0].estimate.value, b[0].estimate.value);
        assert_eq!(a[0].count_hat, b[0].count_hat);
    }

    #[test]
    fn ingest_columns_matches_ingest_bit_for_bit() {
        // Interleaved strata with one explicit weight per frame.
        let frame = |strata: u32, n: usize, ts: &dyn Fn(usize) -> u64, weight: f64| {
            let mut batch = Batch::from_items(
                (0..n)
                    .map(|k| {
                        let stratum = StratumId::new(k as u32 % strata);
                        let value = (k * 7 % 13) as f64 + 0.25;
                        StreamItem::with_meta(stratum, value, k as u64, ts(k))
                    })
                    .collect(),
            );
            batch.weights.set(StratumId::new(1), weight);
            batch
        };
        let open = [
            frame(3, 300, &|_| 100, 4.0),
            // Straddles the boundary between windows 0 and 1.
            frame(
                4,
                200,
                &|k| if k % 2 == 0 { SEC - 50 } else { SEC + 50 },
                2.5,
            ),
        ];
        // For window 0, after it closed.
        let late = frame(2, 40, &|_| 300, 1.5);
        let tail = frame(3, 120, &|k| SEC + 1000 + k as u64, 3.0);
        for strategy in [Strategy::Native, Strategy::whs(), Strategy::Srs] {
            let fraction = if matches!(strategy, Strategy::Native) {
                1.0
            } else {
                0.5
            };
            let mut config = cfg(strategy, fraction, fraction);
            config.queries = QuerySet::new()
                .with(QuerySpec::Sum)
                .with(QuerySpec::Mean)
                .with(QuerySpec::Quantile(0.5));
            let run = |columns: bool| {
                let mut root = RootNode::new(config.clone()).expect("valid");
                let ingest = |root: &mut RootNode, batch: &Batch| {
                    if columns {
                        root.ingest_columns(&ColumnarBatch::from_batch(batch));
                    } else {
                        root.ingest(batch);
                    }
                };
                for batch in &open {
                    ingest(&mut root, batch);
                }
                let mut results = root.advance_watermark(SEC);
                ingest(&mut root, &late);
                ingest(&mut root, &tail);
                results.extend(root.flush());
                assert_eq!(results.len(), 2);
                assert!(root.dropped_late() > 0, "the late frame is dropped");
                (format!("{results:?}"), root.items_in(), root.dropped_late())
            };
            assert_eq!(run(false), run(true), "{}", strategy.label());
        }
    }

    #[test]
    fn batch_spanning_windows_is_split() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 1.0, 1.0)).expect("valid");
        let mut batch = items(0, 1, 5.0, 100);
        batch.extend(items(0, 1, 7.0, SEC + 100).items);
        root.ingest(&batch);
        let results = root.advance_watermark(2 * SEC);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].estimate.value, 5.0);
        assert_eq!(results[1].estimate.value, 7.0);
    }

    #[test]
    fn root_applies_its_own_sampling() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 0.1, 0.1)).expect("valid");
        root.ingest(&items(0, 1000, 1.0, 100));
        let results = root.advance_watermark(SEC);
        assert_eq!(results[0].sampled_items, 100);
        // The estimate still reconstructs the original count.
        assert!((results[0].count_hat - 1000.0).abs() < 1e-9);
        assert!((results[0].estimate.value - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn srs_root_scales_by_inverse_fraction() {
        let mut root = RootNode::new(cfg(Strategy::Srs, 0.5, 0.5)).expect("valid");
        root.ingest(&items(0, 10_000, 2.0, 100));
        let results = root.advance_watermark(SEC);
        let est = results[0].estimate.value;
        let truth = 20_000.0;
        assert!(
            (est - truth).abs() / truth < 0.1,
            "estimate {est} vs {truth}"
        );
    }

    #[test]
    fn native_root_reports_exact_values() {
        let mut root = RootNode::new(cfg(Strategy::Native, 1.0, 1.0)).expect("valid");
        root.ingest(&items(0, 123, 3.0, 100));
        let results = root.advance_watermark(SEC);
        assert_eq!(results[0].estimate.value, 369.0);
        assert_eq!(results[0].estimate.variance, 0.0);
    }

    #[test]
    fn per_stratum_estimates_present() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 1.0, 1.0)).expect("valid");
        root.ingest(&items(0, 2, 1.0, 100));
        root.ingest(&items(1, 3, 10.0, 100));
        let results = root.advance_watermark(SEC);
        assert_eq!(results[0].per_stratum.len(), 2);
        assert_eq!(results[0].per_stratum[&StratumId::new(1)].value, 30.0);
    }

    #[test]
    fn empty_windows_produce_no_results() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 1.0, 1.0)).expect("valid");
        assert!(root.advance_watermark(100 * SEC).is_empty());
        assert!(root.flush().is_empty());
    }

    #[test]
    fn error_bound_scales_with_confidence() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 0.2, 0.2)).expect("valid");
        // Mixed values so the sample variance is non-zero.
        let batch = Batch::from_items(
            (0..500)
                .map(|k| StreamItem::with_meta(StratumId::new(0), (k % 10) as f64, k as u64, 100))
                .collect(),
        );
        root.ingest(&batch);
        let results = root.advance_watermark(SEC);
        let r = &results[0];
        assert!(r.error_bound(Confidence::P68) < r.error_bound(Confidence::P95));
        assert!(r.error_bound(Confidence::P95) < r.error_bound(Confidence::P997));
        assert!(r.error_bound(Confidence::P95) > 0.0);
    }

    #[test]
    fn rejects_invalid_overall_fraction() {
        assert!(RootNode::new(cfg(Strategy::Srs, 0.5, 0.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "delivery factor must be finite")]
    fn rejects_non_positive_delivery_factor() {
        let mut config = cfg(Strategy::whs(), 1.0, 1.0);
        config.delivery_factor = 0.0;
        let _ = RootNode::new(config);
    }

    #[test]
    fn loss_rescale_extrapolates_lost_contributions() {
        // Half the frames were lost in flight (delivery factor 0.5): the
        // surviving half, rescaled, still reconstructs the full total.
        for strategy in [Strategy::whs(), Strategy::Srs, Strategy::Native] {
            let mut config = cfg(strategy, 1.0, 1.0);
            config.delivery_factor = 0.5;
            let mut root = RootNode::new(config).expect("valid");
            // 10 of 20 original items actually arrive.
            root.ingest(&items(0, 10, 2.0, 100));
            let results = root.advance_watermark(SEC);
            assert_eq!(
                results[0].estimate.value,
                40.0,
                "{} under 50% loss",
                strategy.label()
            );
            assert_eq!(results[0].count_hat, 20.0);
        }
    }

    #[test]
    fn loss_rescale_keeps_mean_invariant() {
        // MEAN is a ratio: the uniform weight rescale must cancel out.
        let mut config = cfg(Strategy::whs(), 1.0, 1.0);
        config.delivery_factor = 0.8;
        config.queries = QuerySet::single(Query::Mean);
        let mut root = RootNode::new(config).expect("valid");
        root.ingest(&items(0, 8, 5.0, 100));
        let results = root.advance_watermark(SEC);
        assert!((results[0].estimate.value - 5.0).abs() < 1e-12);
    }

    #[test]
    fn net_duplication_rescales_weights_below_one() {
        // Delivery factor above 1 (duplication dominates): delivered items
        // are over-represented and must be scaled *down*.
        let mut config = cfg(Strategy::whs(), 1.0, 1.0);
        config.delivery_factor = 2.0;
        let mut root = RootNode::new(config).expect("valid");
        // Every item delivered twice: 5 originals arrive as 10 copies.
        root.ingest(&items(0, 10, 3.0, 100));
        let results = root.advance_watermark(SEC);
        assert_eq!(results[0].estimate.value, 15.0);
        assert_eq!(results[0].count_hat, 5.0);
    }

    #[test]
    fn late_arrivals_are_dropped_and_attributed() {
        let mut root = RootNode::new(cfg(Strategy::whs(), 1.0, 1.0)).expect("valid");
        root.ingest(&items(0, 4, 1.0, 100));
        let first = root.advance_watermark(SEC);
        assert_eq!(first[0].dropped_late, 0);
        // Window 0 is answered; a straggler for it must not resurrect it.
        root.ingest(&items(0, 3, 1.0, 200));
        root.ingest(&items(0, 2, 1.0, SEC + 100));
        assert_eq!(root.dropped_late(), 3);
        let rest = root.flush();
        assert_eq!(rest.len(), 1, "no duplicate window 0 result");
        assert_eq!(rest[0].window, 1);
        assert_eq!(rest[0].dropped_late, 3, "attributed to the next result");
    }

    #[test]
    fn allowed_lateness_admits_stragglers() {
        let mut config = cfg(Strategy::whs(), 1.0, 1.0);
        config.allowed_lateness = Duration::from_millis(500);
        let mut root = RootNode::new(config).expect("valid");
        root.ingest(&items(0, 4, 1.0, 100));
        // Watermark inside the lateness horizon: window 0 stays open.
        assert!(root.advance_watermark(SEC + 400_000_000).is_empty());
        root.ingest(&items(0, 1, 1.0, 200));
        assert_eq!(root.dropped_late(), 0);
        let results = root.advance_watermark(SEC + 500_000_000);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].estimate.value, 5.0, "straggler included");
    }

    #[test]
    fn multi_query_windows_answer_every_registered_query() {
        use crate::query::QuerySpec;
        let mut config = cfg(Strategy::whs(), 1.0, 1.0);
        config.queries = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(2));
        let mut root = RootNode::new(config).expect("valid");
        root.ingest(&items(0, 9, 1.0, 100));
        root.ingest(&items(1, 1, 50.0, 100));
        let results = root.advance_watermark(SEC);
        let r = &results[0];
        assert_eq!(r.queries.len(), 3);
        assert_eq!(r.estimate.value, 59.0, "primary estimate is the SUM");
        let median = r.queries.quantile(0.5).expect("non-empty window");
        assert_eq!(median.value, 1.0);
        let top = r.queries.top_k(2).expect("top-k answer");
        assert_eq!(top[0].0, StratumId::new(1), "heavy stratum ranks first");
        assert_eq!(top[0].1.value, 50.0);
        assert_eq!(top[1].1.value, 9.0);
    }

    #[test]
    fn sketch_root_merges_summaries_and_answers_exact_moments() {
        use crate::query::QuerySpec;
        use approxiot_core::{SketchConfig, StratumSummaries};
        let mut config = cfg(Strategy::sketch(), 1.0, 1.0);
        config.queries = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Count)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(1));
        let mut root = RootNode::new(config).expect("valid");
        let sketch = SketchConfig::default();
        // Two senders contribute to window 0, one to window 1.
        let mut a = StratumSummaries::new(sketch, 9);
        for i in 0..10u64 {
            a.observe(StratumId::new(0), i, 1.0);
        }
        let mut b = StratumSummaries::new(sketch, 9);
        b.observe(StratumId::new(1), 100, 50.0);
        let mut c = StratumSummaries::new(sketch, 9);
        c.observe(StratumId::new(0), 200, 7.0);
        root.ingest_summaries(vec![(0, a), (1, c)]);
        root.ingest_summaries(vec![(0, b)]);
        let results = root.advance_watermark(SEC);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.window, 0);
        assert_eq!(r.estimate.value, 60.0, "moments merge exactly");
        assert_eq!(r.estimate.variance, 0.0);
        assert_eq!(r.count_hat, 11.0);
        assert_eq!(r.queries.count().map(|e| e.value), Some(11.0));
        assert_eq!(
            r.queries.top_k(1).map(|top| top[0].0),
            Some(StratumId::new(1))
        );
        assert!(r.queries.quantile(0.5).is_some());
        assert_eq!(r.per_stratum[&StratumId::new(1)].value, 50.0);
        assert!(r.sampled_items > 0);
        let rest = root.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].estimate.value, 7.0);
    }

    #[test]
    fn sketch_root_answers_every_query_kind_from_theta_rows() {
        use crate::query::QuerySpec;
        use approxiot_core::{Moments, SketchConfig, StratumSummaries};
        let mut config = cfg(Strategy::sketch(), 1.0, 1.0);
        config.queries = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Mean)
            .with(QuerySpec::Count)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(2))
            .with(QuerySpec::SumPerStratum)
            .with(QuerySpec::MeanPerStratum)
            .with(QuerySpec::CountPerStratum);
        let mut root = RootNode::new(config).expect("valid");
        // Three child summaries of window 0 over overlapping strata. The
        // values round when summed, so summation order would show; the
        // sketches are small enough to compact and evict.
        let strata: [&[u32]; 3] = [&[0, 1], &[0, 1, 2], &[1, 3]];
        let children: Vec<StratumSummaries> = strata
            .iter()
            .enumerate()
            .map(|(c, strata)| {
                let mut child = StratumSummaries::new(SketchConfig::new(16, 2), 5);
                for i in 0..40 + 17 * c {
                    let stratum = StratumId::new(strata[i % strata.len()]);
                    let value = 0.1 * i as f64 - c as f64 / 3.0;
                    child.observe(stratum, (c * 1000 + i) as u64, value);
                }
                child
            })
            .collect();
        // The oracle: moments folded per stratum and sketches merged, in
        // arrival order; one weight-1 row per stratum per child.
        let mut oracle: BTreeMap<StratumId, Moments> = BTreeMap::new();
        let mut merged = children[0].clone();
        let mut rows = Vec::new();
        for (c, child) in children.iter().enumerate() {
            for (&stratum, section) in child.strata() {
                oracle
                    .entry(stratum)
                    .and_modify(|m| m.merge(&section.moments))
                    .or_insert(section.moments);
                rows.push(ThetaRow {
                    stratum,
                    weight: 1.0,
                    value_sum: section.moments.sum,
                    n: section.moments.count,
                    value_sq_sum: section.moments.sum_sq,
                });
            }
            if c > 0 {
                merged.merge(child);
            }
            root.ingest_summaries(vec![(0, child.clone())]);
        }
        let theta = &root.buffer.window_mut(0).expect("window 0 is open")[0].theta;
        assert_eq!(theta.len(), children.len(), "one pair per child summary");
        assert_eq!(theta.rows(), &rows[..], "one row per stratum per child");
        assert_eq!(theta.rows().len(), 7);

        let results = root.advance_watermark(SEC);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        let bits = |e: Option<&Estimate>| e.map(|e| e.value.to_bits());
        let sum: f64 = oracle.values().map(|m| m.sum).sum();
        let count = oracle.values().map(|m| m.count).sum::<u64>() as f64;
        assert_eq!(bits(r.queries.sum()), Some(sum.to_bits()));
        assert_eq!(r.estimate.value.to_bits(), sum.to_bits());
        assert_eq!(bits(r.queries.count()), Some(count.to_bits()));
        assert_eq!(r.count_hat.to_bits(), count.to_bits());
        // MEAN* is Σφᵢ·(Sᵢ/ĉᵢ), which rounds differently from S/C.
        let mean = r.queries.mean().expect("registered").value;
        assert!((mean - sum / count).abs() <= 1e-12 * (sum / count).abs());
        let per = |spec| r.queries.per_stratum(spec).expect("registered");
        let (sums, means, counts) = (
            per(QuerySpec::SumPerStratum),
            per(QuerySpec::MeanPerStratum),
            per(QuerySpec::CountPerStratum),
        );
        for map in [sums, means, counts] {
            assert_eq!(
                map.keys().collect::<Vec<_>>(),
                oracle.keys().collect::<Vec<_>>()
            );
        }
        for (stratum, m) in &oracle {
            assert_eq!(sums[stratum].value.to_bits(), m.sum.to_bits());
            assert_eq!(counts[stratum].value.to_bits(), (m.count as f64).to_bits());
            let mean_i = m.sum / m.count as f64;
            assert_eq!(means[stratum].value.to_bits(), mean_i.to_bits());
        }
        assert_eq!(&r.per_stratum, sums, "the primary query is SUM");
        // Weight 1 makes ĉ = ζ, so every variance is exactly 0.
        let mut variances = vec![r.estimate.variance];
        for (_, value) in r.queries.iter() {
            match value {
                QueryValue::Scalar(e) => variances.push(e.variance),
                QueryValue::PerStratum(map) => variances.extend(map.values().map(|e| e.variance)),
                QueryValue::Quantile(_) | QueryValue::TopK(_) => {}
            }
        }
        variances.extend(r.per_stratum.values().map(|e| e.variance));
        assert_eq!(variances.len(), 1 + 3 + 3 * 4 + 4);
        assert!(variances.iter().all(|&v| v == 0.0), "{variances:?}");
        // Quantiles come from the KLL sketches, top-k from Space-Saving.
        assert_eq!(
            r.queries.quantile(0.5),
            merged.quantile(0.5, Confidence::P95).as_ref()
        );
        assert_eq!(r.queries.top_k(2), Some(&merged.top_k(2)[..]));
        // A sketch window holds retained sketch entries and heavy-hitter
        // counters, not sampled items.
        let held = merged
            .strata()
            .values()
            .map(|s| s.sketch.len())
            .sum::<usize>()
            + merged.heavy().entries().len();
        assert_eq!(r.sampled_items, held);
        assert!(r.sampled_items < count as usize, "the sketches compacted");
    }

    #[test]
    fn sketch_root_drops_late_summaries_with_exact_counts() {
        use approxiot_core::{SketchConfig, StratumSummaries};
        let mut root = RootNode::new(cfg(Strategy::sketch(), 1.0, 1.0)).expect("valid");
        let sketch = SketchConfig::default();
        let mut w0 = StratumSummaries::new(sketch, 9);
        for i in 0..4u64 {
            w0.observe(StratumId::new(0), i, 1.0);
        }
        root.ingest_summaries(vec![(0, w0.clone())]);
        let first = root.advance_watermark(SEC);
        assert_eq!(first[0].dropped_late, 0);
        // Window 0 is answered; a straggling summary for it is dropped
        // with its exact item count tallied.
        let mut w1 = StratumSummaries::new(sketch, 9);
        w1.observe(StratumId::new(0), 10, 2.0);
        root.ingest_summaries(vec![(0, w0), (1, w1)]);
        assert_eq!(root.dropped_late(), 4);
        let rest = root.flush();
        assert_eq!(rest.len(), 1, "no duplicate window 0 result");
        assert_eq!(rest[0].window, 1);
        assert_eq!(rest[0].dropped_late, 4);
    }

    #[test]
    fn query_set_without_scalar_still_produces_sum_primary() {
        use crate::query::QuerySpec;
        let mut config = cfg(Strategy::whs(), 1.0, 1.0);
        config.queries = QuerySet::new().with(QuerySpec::Quantile(0.25));
        let mut root = RootNode::new(config).expect("valid");
        assert_eq!(root.query(), Query::Sum);
        assert_eq!(root.queries().specs().len(), 1);
        root.ingest(&items(0, 4, 2.0, 100));
        let results = root.advance_watermark(SEC);
        assert_eq!(results[0].estimate.value, 8.0);
        assert_eq!(results[0].queries.len(), 1);
    }
}
