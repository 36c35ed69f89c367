//! Queries executed at the root node.
//!
//! The paper's case studies ask *approximate linear queries* — windowed
//! SUM, MEAN and COUNT over the weighted samples in `Θ` ("total payment
//! per window", "total pollution value per window") — and its future-work
//! section gestures at richer ones. This module covers both:
//!
//! * [`Query`] — a single linear query: the first scalar query of a set,
//!   which drives each window result's primary `estimate`.
//! * [`QuerySet`] — any number of concurrent window queries, each a
//!   [`QuerySpec`]: the linear three, their per-stratum variants, and
//!   [`QuerySpec::Quantile`] / [`QuerySpec::TopK`] backed by
//!   [`approxiot_core::quantile`]. The root runs the whole set over each
//!   closed window's `Θ` store and files the answers into a
//!   [`QueryResults`] map on the window result. On a sketch root, whose
//!   `Θ` rows are the summaries' exact moments, the merged summaries
//!   answer `Quantile` and `TopK` instead.

use approxiot_core::estimate::{count_of, mean_of, sum_of};
use approxiot_core::quantile::{quantile_with_bounds, top_k_of, QuantileEstimate};
use approxiot_core::{
    Confidence, Estimate, StratumEstimate, StratumId, StratumSummaries, ThetaStore,
};
use std::collections::BTreeMap;

/// A linear streaming query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Query {
    /// Total of item values per window (the case studies' query).
    #[default]
    Sum,
    /// Mean item value per window.
    Mean,
    /// Number of items per window.
    Count,
}

impl Query {
    /// Executes the query over a window's per-stratum estimates
    /// ([`ThetaStore::stratum_estimates`]), returning the estimate with its
    /// variance (§III-C and §III-D).
    pub(crate) fn answer(self, per: &BTreeMap<StratumId, StratumEstimate>) -> Estimate {
        match self {
            Query::Sum => sum_of(per),
            Query::Mean => mean_of(per),
            // COUNT is SUM with all values 1; its estimator is the exact
            // count reconstruction (Equation 8), variance 0 by the
            // invariant.
            Query::Count => Estimate::new(count_of(per), 0.0),
        }
    }

    /// The query's answer per stratum (the per-pollutant variant of the
    /// Brasov query), from a window's per-stratum estimates.
    pub(crate) fn answer_per_stratum(
        self,
        per: &BTreeMap<StratumId, StratumEstimate>,
    ) -> BTreeMap<StratumId, Estimate> {
        per.iter()
            .map(|(&stratum, est)| {
                let e = match self {
                    Query::Sum => Estimate::new(est.sum, est.sum_variance),
                    Query::Mean => {
                        if est.count_hat > 0.0 && est.zeta > 0 {
                            let mean = est.sum / est.count_hat;
                            let fpc = ((est.count_hat - est.zeta as f64) / est.count_hat).max(0.0);
                            Estimate::new(mean, est.sample_variance / est.zeta as f64 * fpc)
                        } else {
                            Estimate::new(0.0, 0.0)
                        }
                    }
                    Query::Count => Estimate::new(est.count_hat, 0.0),
                };
                (stratum, e)
            })
            .collect()
    }

    /// The exact (ground-truth) answer over raw values, for
    /// accuracy-loss computation in tests and benches.
    pub fn exact(self, values: &[f64]) -> f64 {
        match self {
            Query::Sum => values.iter().sum(),
            Query::Mean => {
                if values.is_empty() {
                    0.0
                } else {
                    values.iter().sum::<f64>() / values.len() as f64
                }
            }
            Query::Count => values.len() as f64,
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::Sum => write!(f, "SUM"),
            Query::Mean => write!(f, "MEAN"),
            Query::Count => write!(f, "COUNT"),
        }
    }
}

/// One window query in a [`QuerySet`].
///
/// The linear three answer with a scalar [`Estimate`]; the per-stratum
/// variants answer with one estimate per stratum; `Quantile` and `TopK`
/// run the [`approxiot_core::quantile`] estimators over the window's
/// weighted sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// Total of item values per window.
    Sum,
    /// Mean item value per window.
    Mean,
    /// Number of items per window.
    Count,
    /// SUM broken out per stratum (the per-pollutant reporting variant).
    SumPerStratum,
    /// MEAN broken out per stratum.
    MeanPerStratum,
    /// COUNT broken out per stratum.
    CountPerStratum,
    /// The `q`-quantile of item values (`0 <= q <= 1`), with the
    /// distribution-free order-statistic confidence interval.
    Quantile(f64),
    /// The `k` strata with the largest estimated SUM, each with its
    /// Equation-11 variance.
    TopK(usize),
}

impl QuerySpec {
    /// Whether this query answers with a scalar [`Estimate`] the window
    /// result can surface as its primary estimate.
    pub fn is_scalar(self) -> bool {
        matches!(self, QuerySpec::Sum | QuerySpec::Mean | QuerySpec::Count)
    }
}

impl From<Query> for QuerySpec {
    fn from(query: Query) -> Self {
        match query {
            Query::Sum => QuerySpec::Sum,
            Query::Mean => QuerySpec::Mean,
            Query::Count => QuerySpec::Count,
        }
    }
}

impl std::fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySpec::Sum => write!(f, "SUM"),
            QuerySpec::Mean => write!(f, "MEAN"),
            QuerySpec::Count => write!(f, "COUNT"),
            QuerySpec::SumPerStratum => write!(f, "SUM/stratum"),
            QuerySpec::MeanPerStratum => write!(f, "MEAN/stratum"),
            QuerySpec::CountPerStratum => write!(f, "COUNT/stratum"),
            QuerySpec::Quantile(q) => write!(f, "QUANTILE({q})"),
            QuerySpec::TopK(k) => write!(f, "TOP{k}"),
        }
    }
}

/// One query's answer for one window.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A scalar estimate with variance (Sum / Mean / Count).
    Scalar(Estimate),
    /// Per-stratum estimates.
    PerStratum(BTreeMap<StratumId, Estimate>),
    /// A quantile with its confidence interval; `None` for an empty window.
    Quantile(Option<QuantileEstimate>),
    /// Strata ranked by estimated SUM, largest first.
    TopK(Vec<(StratumId, Estimate)>),
}

impl QueryValue {
    /// The scalar estimate, if this answer is one.
    pub fn scalar(&self) -> Option<&Estimate> {
        match self {
            QueryValue::Scalar(est) => Some(est),
            _ => None,
        }
    }

    /// The quantile estimate, if this answer is one.
    pub fn quantile(&self) -> Option<&QuantileEstimate> {
        match self {
            QueryValue::Quantile(q) => q.as_ref(),
            _ => None,
        }
    }

    /// The ranked strata, if this answer is a top-k.
    pub fn top_k(&self) -> Option<&[(StratumId, Estimate)]> {
        match self {
            QueryValue::TopK(ranked) => Some(ranked),
            _ => None,
        }
    }

    /// The per-stratum map, if this answer is one.
    pub fn per_stratum(&self) -> Option<&BTreeMap<StratumId, Estimate>> {
        match self {
            QueryValue::PerStratum(map) => Some(map),
            _ => None,
        }
    }
}

/// The per-query result map of one window: every registered
/// [`QuerySpec`] paired with its [`QueryValue`], in registration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResults {
    answers: Vec<(QuerySpec, QueryValue)>,
}

impl QueryResults {
    /// The answer for `spec`, if it was registered.
    pub fn get(&self, spec: QuerySpec) -> Option<&QueryValue> {
        self.answers
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|(_, v)| v)
    }

    /// All `(spec, answer)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &(QuerySpec, QueryValue)> {
        self.answers.iter()
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether no queries were registered.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The SUM estimate, if a SUM query was registered.
    pub fn sum(&self) -> Option<&Estimate> {
        self.get(QuerySpec::Sum).and_then(QueryValue::scalar)
    }

    /// The MEAN estimate, if a MEAN query was registered.
    pub fn mean(&self) -> Option<&Estimate> {
        self.get(QuerySpec::Mean).and_then(QueryValue::scalar)
    }

    /// The COUNT estimate, if a COUNT query was registered.
    pub fn count(&self) -> Option<&Estimate> {
        self.get(QuerySpec::Count).and_then(QueryValue::scalar)
    }

    /// The `q`-quantile estimate, if that exact quantile was registered
    /// and the window was non-empty.
    pub fn quantile(&self, q: f64) -> Option<&QuantileEstimate> {
        self.get(QuerySpec::Quantile(q))
            .and_then(QueryValue::quantile)
    }

    /// The ranked strata of a TOP-`k` query, if that exact `k` was
    /// registered.
    pub fn top_k(&self, k: usize) -> Option<&[(StratumId, Estimate)]> {
        self.get(QuerySpec::TopK(k)).and_then(QueryValue::top_k)
    }

    /// The per-stratum map for `spec`, if it was registered and answers
    /// per stratum.
    pub fn per_stratum(&self, spec: QuerySpec) -> Option<&BTreeMap<StratumId, Estimate>> {
        self.get(spec).and_then(QueryValue::per_stratum)
    }
}

/// Any number of concurrent window queries, run together over each closed
/// window's `Θ` store.
///
/// # Examples
///
/// ```
/// use approxiot_runtime::{QuerySet, QuerySpec};
///
/// let queries = QuerySet::new()
///     .with(QuerySpec::Sum)
///     .with(QuerySpec::Quantile(0.5))
///     .with(QuerySpec::TopK(3));
/// assert_eq!(queries.specs().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySet {
    specs: Vec<QuerySpec>,
    confidence: Confidence,
}

impl Default for QuerySet {
    /// A single SUM query (the case studies' default).
    fn default() -> Self {
        QuerySet::single(Query::Sum)
    }
}

impl From<Query> for QuerySet {
    fn from(query: Query) -> Self {
        QuerySet::single(query)
    }
}

impl QuerySet {
    /// An empty set; add queries with [`QuerySet::with`].
    pub fn new() -> Self {
        QuerySet {
            specs: Vec::new(),
            confidence: Confidence::P95,
        }
    }

    /// The set holding exactly the legacy single query.
    pub fn single(query: Query) -> Self {
        QuerySet::new().with(query.into())
    }

    /// Adds one query.
    pub fn with(mut self, spec: QuerySpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Confidence level used for quantile intervals (default 95%).
    pub fn with_confidence(mut self, confidence: Confidence) -> Self {
        self.confidence = confidence;
        self
    }

    /// The registered queries, in registration order.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// The first scalar query in the set (drives the window result's
    /// primary `estimate` field), defaulting to SUM.
    pub fn primary(&self) -> Query {
        self.specs
            .iter()
            .find_map(|spec| match spec {
                QuerySpec::Sum => Some(Query::Sum),
                QuerySpec::Mean => Some(Query::Mean),
                QuerySpec::Count => Some(Query::Count),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Whether any registered query reads raw sampled values (only
    /// `Quantile` does; everything else reads per-stratum moments).
    pub(crate) fn reads_values(&self) -> bool {
        self.specs
            .iter()
            .any(|spec| matches!(spec, QuerySpec::Quantile(_)))
    }

    /// Runs every registered query over a window's `Θ` store, given the
    /// store's per-stratum estimates so a caller that needs them too
    /// computes them once per window. A sketch window passes its merged
    /// `sketches`, which answer `Quantile` (KLL) and `TopK` (Space-Saving);
    /// every other query reads `per` alone.
    pub(crate) fn run_with(
        &self,
        theta: &ThetaStore,
        per: &BTreeMap<StratumId, StratumEstimate>,
        sketches: Option<&StratumSummaries>,
    ) -> QueryResults {
        let answers = self
            .specs
            .iter()
            .map(|&spec| {
                let value = match spec {
                    QuerySpec::Sum => QueryValue::Scalar(Query::Sum.answer(per)),
                    QuerySpec::Mean => QueryValue::Scalar(Query::Mean.answer(per)),
                    QuerySpec::Count => QueryValue::Scalar(Query::Count.answer(per)),
                    QuerySpec::SumPerStratum => {
                        QueryValue::PerStratum(Query::Sum.answer_per_stratum(per))
                    }
                    QuerySpec::MeanPerStratum => {
                        QueryValue::PerStratum(Query::Mean.answer_per_stratum(per))
                    }
                    QuerySpec::CountPerStratum => {
                        QueryValue::PerStratum(Query::Count.answer_per_stratum(per))
                    }
                    QuerySpec::Quantile(q) => QueryValue::Quantile(match sketches {
                        Some(sketches) => sketches.quantile(q, self.confidence),
                        None => quantile_with_bounds(theta, q, self.confidence),
                    }),
                    QuerySpec::TopK(k) => QueryValue::TopK(match sketches {
                        Some(sketches) => sketches.top_k(k),
                        None => top_k_of(per, k),
                    }),
                };
                (spec, value)
            })
            .collect();
        QueryResults { answers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::{StreamItem, WeightMap, WhsOutput};

    fn theta(pairs: &[(u32, f64, &[f64])]) -> ThetaStore {
        pairs
            .iter()
            .map(|&(stratum, weight, values)| {
                let mut weights = WeightMap::new();
                weights.set(StratumId::new(stratum), weight);
                WhsOutput {
                    weights,
                    sample: values
                        .iter()
                        .map(|&v| StreamItem::new(StratumId::new(stratum), v))
                        .collect(),
                }
            })
            .collect()
    }

    fn run(set: &QuerySet, theta: &ThetaStore) -> QueryResults {
        set.run_with(theta, &theta.stratum_estimates(), None)
    }

    fn answer(query: Query, theta: &ThetaStore) -> Estimate {
        query.answer(&theta.stratum_estimates())
    }

    #[test]
    fn sum_query_scales_by_weight() {
        let t = theta(&[(0, 2.0, &[3.0, 4.0])]);
        assert_eq!(answer(Query::Sum, &t).value, 14.0);
    }

    #[test]
    fn count_query_reconstructs_exactly() {
        let t = theta(&[(0, 5.0, &[1.0, 1.0])]);
        let est = answer(Query::Count, &t);
        assert_eq!(est.value, 10.0);
        assert_eq!(est.variance, 0.0);
    }

    #[test]
    fn mean_query_weights_strata() {
        // 10 items of value 1 (weight 5 x 2 samples), 10 of value 3.
        let t = theta(&[(0, 5.0, &[1.0, 1.0]), (1, 5.0, &[3.0, 3.0])]);
        let est = answer(Query::Mean, &t);
        assert!((est.value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_stratum_results_are_separate() {
        let t = theta(&[(0, 2.0, &[1.0]), (1, 3.0, &[10.0])]);
        let set = QuerySet::new()
            .with(QuerySpec::SumPerStratum)
            .with(QuerySpec::CountPerStratum)
            .with(QuerySpec::MeanPerStratum);
        let results = run(&set, &t);
        let per = |spec| results.per_stratum(spec).expect("registered");
        let sums = per(QuerySpec::SumPerStratum);
        assert_eq!(sums[&StratumId::new(0)].value, 2.0);
        assert_eq!(sums[&StratumId::new(1)].value, 30.0);
        let counts = per(QuerySpec::CountPerStratum);
        assert_eq!(counts[&StratumId::new(1)].value, 3.0);
        let means = per(QuerySpec::MeanPerStratum);
        assert_eq!(means[&StratumId::new(1)].value, 10.0);
    }

    #[test]
    fn exact_matches_plain_arithmetic() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(Query::Sum.exact(&values), 6.0);
        assert_eq!(Query::Mean.exact(&values), 2.0);
        assert_eq!(Query::Count.exact(&values), 3.0);
        assert_eq!(Query::Mean.exact(&[]), 0.0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Query::Sum.to_string(), "SUM");
        assert_eq!(Query::Mean.to_string(), "MEAN");
        assert_eq!(Query::Count.to_string(), "COUNT");
        assert_eq!(Query::default(), Query::Sum);
        assert_eq!(QuerySpec::Quantile(0.5).to_string(), "QUANTILE(0.5)");
        assert_eq!(QuerySpec::TopK(3).to_string(), "TOP3");
        assert_eq!(QuerySpec::SumPerStratum.to_string(), "SUM/stratum");
    }

    #[test]
    fn query_set_runs_every_registered_query() {
        let t = theta(&[(0, 2.0, &[1.0, 2.0, 3.0]), (1, 1.0, &[100.0])]);
        let set = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Count)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(1))
            .with(QuerySpec::SumPerStratum);
        let results = run(&set, &t);
        assert_eq!(results.len(), 5);
        assert_eq!(results.sum(), Some(&answer(Query::Sum, &t)));
        let median = results.quantile(0.5).expect("non-empty window");
        // Weighted CDF: weights 2,2,2,1; total 7, target 3.5 → value 2.
        assert_eq!(median.value, 2.0);
        assert!(median.lo <= median.value && median.value <= median.hi);
        let top = results.top_k(1).expect("top-k answer");
        assert_eq!(top[0].0, StratumId::new(1));
        assert_eq!(top[0].1.value, 100.0);
        let per = results
            .per_stratum(QuerySpec::SumPerStratum)
            .expect("per-stratum answer");
        assert_eq!(per[&StratumId::new(0)].value, 12.0);
    }

    #[test]
    fn query_set_quantile_of_empty_window_is_none() {
        let set = QuerySet::new().with(QuerySpec::Quantile(0.9));
        let results = run(&set, &ThetaStore::new());
        assert_eq!(
            results.get(QuerySpec::Quantile(0.9)),
            Some(&QueryValue::Quantile(None))
        );
        assert!(results.get(QuerySpec::Quantile(0.5)).is_none());
    }

    #[test]
    fn typed_accessors_return_registered_answers_only() {
        let t = theta(&[(0, 2.0, &[1.0, 2.0, 3.0]), (1, 1.0, &[100.0])]);
        let set = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(1))
            .with(QuerySpec::CountPerStratum);
        let results = run(&set, &t);
        assert_eq!(results.sum().map(|e| e.value), Some(112.0));
        assert!(results.mean().is_none(), "MEAN was not registered");
        assert!(results.count().is_none(), "COUNT was not registered");
        assert_eq!(results.quantile(0.5).map(|q| q.value), Some(2.0));
        assert!(results.quantile(0.9).is_none(), "only 0.5 registered");
        assert_eq!(results.top_k(1).map(<[_]>::len), Some(1));
        assert!(results.top_k(2).is_none(), "only k=1 registered");
        let counts = results
            .per_stratum(QuerySpec::CountPerStratum)
            .expect("registered per-stratum query");
        assert_eq!(counts[&StratumId::new(0)].value, 6.0);
        assert!(results.per_stratum(QuerySpec::SumPerStratum).is_none());
    }

    #[test]
    fn primary_is_first_scalar_query() {
        let set = QuerySet::new()
            .with(QuerySpec::TopK(2))
            .with(QuerySpec::Mean)
            .with(QuerySpec::Sum);
        assert_eq!(set.primary(), Query::Mean);
        assert_eq!(QuerySet::new().primary(), Query::Sum, "default when none");
        assert_eq!(QuerySet::default(), QuerySet::single(Query::Sum));
        assert_eq!(QuerySet::from(Query::Count).primary(), Query::Count);
    }
}
