//! Per-stratum weight bookkeeping.
//!
//! Every sampled batch travelling up the tree carries a *weight map*: for
//! each stratum, the factor by which the surviving items must be scaled to
//! represent the items discarded below. Weights start at `1.0` at the
//! sources and are multiplied at every node whose reservoir overflows
//! (Equation 2 of the paper).
//!
//! The paper's Figure 3 adds a subtlety — the *carry-forward rule*: items of
//! a stratum may arrive at a node in an interval where no weight metadata
//! for that stratum arrived. The node must then reuse the **last seen**
//! input weight for that stratum. [`WeightStore`] implements exactly that.

use crate::item::StratumId;
use std::collections::BTreeMap;
use std::fmt;

/// Immutable map from stratum to its current weight.
///
/// A missing entry means the weight is the initial `1.0` (the convention for
/// sources, paper §III-C case (i)).
///
/// # Examples
///
/// ```
/// use approxiot_core::{StratumId, WeightMap};
///
/// let mut w = WeightMap::new();
/// w.set(StratumId::new(0), 1.5);
/// assert_eq!(w.get(StratumId::new(0)), 1.5);
/// assert_eq!(w.get(StratumId::new(9)), 1.0); // unknown strata weigh 1
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeightMap {
    entries: BTreeMap<StratumId, f64>,
}

impl WeightMap {
    /// Creates an empty weight map (every stratum implicitly weighs `1.0`).
    pub fn new() -> Self {
        WeightMap {
            entries: BTreeMap::new(),
        }
    }

    /// Returns the weight for `stratum`, defaulting to `1.0`.
    pub fn get(&self, stratum: StratumId) -> f64 {
        self.entries.get(&stratum).copied().unwrap_or(1.0)
    }

    /// Returns the weight for `stratum` only if it was explicitly recorded.
    pub fn get_explicit(&self, stratum: StratumId) -> Option<f64> {
        self.entries.get(&stratum).copied()
    }

    /// Records the weight for `stratum`, returning the previous explicit
    /// value if any.
    ///
    /// Hierarchical *sampling* only ever produces weights ≥ 1 (it can only
    /// discard items), but the root's loss-aware Horvitz–Thompson rescale
    /// divides weights by the expected delivery factor — which exceeds one
    /// on a net-duplicating network, legitimately pushing a weight below
    /// one. The map therefore admits any positive finite weight.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is finite and positive.
    pub fn set(&mut self, stratum: StratumId, weight: f64) -> Option<f64> {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be finite and positive, got {weight}"
        );
        self.entries.insert(stratum, weight)
    }

    /// Number of strata with an explicit weight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no stratum has an explicit weight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(stratum, weight)` pairs in stratum order.
    pub fn iter(&self) -> impl Iterator<Item = (StratumId, f64)> + '_ {
        self.entries.iter().map(|(s, w)| (*s, *w))
    }

    /// Merges `other` into `self`, overwriting on conflict. Used when a node
    /// folds several upstream weight maps into its view of an interval.
    pub fn merge_from(&mut self, other: &WeightMap) {
        for (s, w) in other.iter() {
            self.entries.insert(s, w);
        }
    }

    /// Removes every explicit weight (all strata weigh `1.0` again). Used
    /// when a batch's storage is refilled, e.g. by the wire decoders.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl fmt::Display for WeightMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, w)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}: {w:.3}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(StratumId, f64)> for WeightMap {
    fn from_iter<I: IntoIterator<Item = (StratumId, f64)>>(iter: I) -> Self {
        let mut map = WeightMap::new();
        for (s, w) in iter {
            map.set(s, w);
        }
        map
    }
}

impl Extend<(StratumId, f64)> for WeightMap {
    fn extend<I: IntoIterator<Item = (StratumId, f64)>>(&mut self, iter: I) {
        for (s, w) in iter {
            self.set(s, w);
        }
    }
}

/// Mutable per-node store implementing the paper's weight *carry-forward*
/// rule (Figure 3).
///
/// A node observes weight metadata as batches arrive. When a later batch of
/// the same stratum arrives **without** weight metadata (because the weight
/// and its items crossed an interval boundary in transit), the store hands
/// back the most recently observed weight for that stratum.
///
/// # Examples
///
/// ```
/// use approxiot_core::{StratumId, WeightStore};
///
/// let s = StratumId::new(4);
/// let mut store = WeightStore::new();
/// assert_eq!(store.input_weight(s, None), 1.0);        // nothing seen yet
/// assert_eq!(store.input_weight(s, Some(1.5)), 1.5);   // metadata arrives
/// assert_eq!(store.input_weight(s, None), 1.5);        // carried forward
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightStore {
    last_seen: BTreeMap<StratumId, f64>,
}

impl WeightStore {
    /// Creates an empty store; unknown strata weigh `1.0`.
    pub fn new() -> Self {
        WeightStore {
            last_seen: BTreeMap::new(),
        }
    }

    /// Resolves the input weight for a batch of `stratum` items.
    ///
    /// If the batch carried explicit weight metadata (`observed`), that value
    /// is remembered and returned; otherwise the last seen weight for the
    /// stratum (or `1.0`) is returned.
    pub fn input_weight(&mut self, stratum: StratumId, observed: Option<f64>) -> f64 {
        match observed {
            Some(w) => {
                self.last_seen.insert(stratum, w);
                w
            }
            None => self.last_seen.get(&stratum).copied().unwrap_or(1.0),
        }
    }

    /// Resolves input weights for a whole incoming weight map: explicit
    /// entries update the store, missing strata fall back to carried values.
    pub fn resolve(
        &mut self,
        strata: impl IntoIterator<Item = StratumId>,
        observed: &WeightMap,
    ) -> WeightMap {
        strata
            .into_iter()
            .map(|s| (s, self.input_weight(s, observed.get_explicit(s))))
            .collect()
    }

    /// Number of strata with a remembered weight.
    pub fn len(&self) -> usize {
        self.last_seen.len()
    }

    /// Returns `true` when no weight has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.last_seen.is_empty()
    }

    /// Clears all remembered weights (used between independent runs).
    pub fn clear(&mut self) {
        self.last_seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    #[test]
    fn default_weight_is_one() {
        let w = WeightMap::new();
        assert_eq!(w.get(s(0)), 1.0);
        assert_eq!(w.get_explicit(s(0)), None);
        assert!(w.is_empty());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut w = WeightMap::new();
        assert_eq!(w.set(s(1), 2.0), None);
        assert_eq!(w.set(s(1), 3.0), Some(2.0));
        assert_eq!(w.get(s(1)), 3.0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn rejects_non_positive_weight() {
        WeightMap::new().set(s(0), 0.0);
    }

    #[test]
    fn admits_sub_unit_weights_for_loss_rescaling() {
        // The root's Horvitz–Thompson correction divides by the delivery
        // factor; under net duplication that lands below one.
        let mut w = WeightMap::new();
        w.set(s(0), 0.5);
        assert_eq!(w.get(s(0)), 0.5);
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn rejects_nan_weight() {
        WeightMap::new().set(s(0), f64::NAN);
    }

    #[test]
    fn merge_overwrites_conflicts() {
        let mut a: WeightMap = [(s(0), 2.0), (s(1), 3.0)].into_iter().collect();
        let b: WeightMap = [(s(1), 5.0), (s(2), 7.0)].into_iter().collect();
        a.merge_from(&b);
        assert_eq!(a.get(s(0)), 2.0);
        assert_eq!(a.get(s(1)), 5.0);
        assert_eq!(a.get(s(2)), 7.0);
    }

    #[test]
    fn display_lists_entries() {
        let w: WeightMap = [(s(0), 1.5)].into_iter().collect();
        assert_eq!(w.to_string(), "{S0: 1.500}");
    }

    #[test]
    fn store_carries_last_weight_forward() {
        // Reproduces the Figure 3 scenario: items 3 and 4 arrive at node B in
        // interval v+1 with no weight; B must reuse w = 1.5 from interval v.
        let mut store = WeightStore::new();
        assert_eq!(store.input_weight(s(0), Some(1.5)), 1.5);
        assert_eq!(store.input_weight(s(0), None), 1.5);
        assert_eq!(store.input_weight(s(0), None), 1.5);
        assert_eq!(store.input_weight(s(0), Some(3.0)), 3.0);
        assert_eq!(store.input_weight(s(0), None), 3.0);
    }

    #[test]
    fn store_defaults_to_one_for_unseen_strata() {
        let mut store = WeightStore::new();
        assert_eq!(store.input_weight(s(9), None), 1.0);
        assert!(store.is_empty());
    }

    #[test]
    fn resolve_mixes_explicit_and_carried() {
        let mut store = WeightStore::new();
        store.input_weight(s(0), Some(2.0));
        let observed: WeightMap = [(s(1), 4.0)].into_iter().collect();
        let resolved = store.resolve([s(0), s(1), s(2)], &observed);
        assert_eq!(resolved.get(s(0)), 2.0); // carried
        assert_eq!(resolved.get(s(1)), 4.0); // explicit
        assert_eq!(resolved.get(s(2)), 1.0); // default
                                             // The explicit observation is now remembered.
        assert_eq!(store.input_weight(s(1), None), 4.0);
    }

    #[test]
    fn clear_resets_store() {
        let mut store = WeightStore::new();
        store.input_weight(s(0), Some(2.0));
        store.clear();
        assert_eq!(store.input_weight(s(0), None), 1.0);
    }
}
