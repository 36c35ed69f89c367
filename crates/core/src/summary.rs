//! Mergeable per-stratum summaries — the sketch strategy's data plane.
//!
//! The paper's accuracy-vs-bandwidth frontier stops where sample vectors
//! start: every hop of the WHS/SRS strategies ships sampled *items*, so
//! even at tiny fractions inner nodes pay per-item cost and per-item
//! bytes. This module pushes below that floor with three classical
//! mergeable summaries, each deterministic at fixed seed:
//!
//! * [`Moments`] — exact count / sum / sum-of-squares accumulators,
//!   merged by addition. The root files them into its `Θ` store as
//!   weight-1 rows ([`crate::ThetaStore::push_rows`]), so `Sum`/`Mean`/
//!   `Count` and their per-stratum variants answer through the same
//!   estimators as sampled items, exactly and with variance 0.
//! * [`KllSketch`] — a KLL-style quantile sketch implemented as a
//!   **hash-priority layered subsample**: every item gets a deterministic
//!   64-bit priority from splitmix64 over `(seed, identity, value bits)`;
//!   an item survives at level `l` iff its priority falls below the
//!   `2^-l` threshold, and the sketch stores the survivors of the
//!   smallest level with at most `k` of them, each standing for `2^l`
//!   originals. Unlike textbook KLL compaction (whose pair-discarding
//!   depends on arrival order), survival here is a pure function of the
//!   item, so the sketch state is a function of the item *multiset*:
//!   updates and merges are exactly associative and commutative, bit for
//!   bit, at fixed seed. Rank error behaves like a uniform sample of
//!   size ~`k`: ε ≈ `z·√(q(1−q)/k)`.
//! * [`SpaceSaving`] — heavy hitters keyed by [`StratumId`], tracking
//!   each stratum's value mass in at most `m` counters with the
//!   classical guaranteed bound `weight − err ≤ true ≤ weight`. Merging
//!   is the symmetric mergeable-summaries rule (commutative bit for bit;
//!   the bound survives every merge).
//!
//! [`StratumSummaries`] bundles the three per window: one `Moments` +
//! `KllSketch` per stratum plus one shared `SpaceSaving`, with a
//! [`StratumSummaries::merge`] an inner tree node applies to child
//! summaries instead of doing any per-item work. Wire encoding (the v3
//! summary frame) lives in `approxiot-mq`.

use crate::error::{Confidence, Estimate};
use crate::item::StratumId;
use crate::quantile::QuantileEstimate;
use std::collections::BTreeMap;

/// Sizing knobs of the sketch strategy, shared by every node of a sketch
/// topology (and carried in the v3 wire frame so decoders can rebuild
/// summaries without out-of-band state).
///
/// A component sized to zero is **disabled**: `kll_k == 0` drops the
/// quantile sketch (quantile queries become unsupportable, which
/// `Strategy::supports` surfaces at build time), `heavy_capacity == 0`
/// likewise drops the heavy-hitter summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// Capacity of each per-stratum quantile sketch (entries retained).
    pub kll_k: u32,
    /// Counters tracked by the shared Space-Saving heavy-hitter summary.
    pub heavy_capacity: u32,
}

impl SketchConfig {
    /// A config with both components enabled.
    pub const fn new(kll_k: u32, heavy_capacity: u32) -> Self {
        SketchConfig {
            kll_k,
            heavy_capacity,
        }
    }

    /// Moments only: exact Sum/Mean/Count at minimal bytes; quantile and
    /// top-k queries are rejected at build time.
    pub const fn counts_only() -> Self {
        SketchConfig {
            kll_k: 0,
            heavy_capacity: 0,
        }
    }
}

impl Default for SketchConfig {
    /// `k = 256` holds median rank error near 1–2% at 95% confidence;
    /// 64 heavy-hitter counters cover every workload in the repo exactly.
    fn default() -> Self {
        SketchConfig {
            kll_k: 256,
            heavy_capacity: 64,
        }
    }
}

/// The seed of one stratum's quantile sketch, derived from the
/// topology-wide sketch seed. Public so the wire codec can rebuild
/// per-stratum sketches from a decoded v3 frame without carrying one
/// seed per stratum on the wire.
#[inline]
pub fn stratum_sketch_seed(seed: u64, stratum: StratumId) -> u64 {
    seed ^ splitmix64(u64::from(stratum.index()))
}

/// splitmix64 — the repo's standard seed/priority mixer (same finalizer
/// the `Topology` seed helpers use).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exact first/second-moment accumulators for one stratum.
///
/// `merge` is plain addition: bit-exactly commutative (IEEE `a + b`
/// equals `b + a`) and associative up to float re-association — the only
/// summary component with any merge-order sensitivity, and it is bounded
/// by one ulp per add.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    /// Items observed.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values.
    pub sum_sq: f64,
}

impl Moments {
    /// An empty accumulator.
    pub const fn new() -> Self {
        Moments {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Folds one value in.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }
}

/// One retained sketch entry: the item's priority hash and its value.
type KllEntry = (u64, f64);

/// Canonical order of retained entries: by priority, ties by value bits.
/// Keeping the store sorted in this order at all times is what makes two
/// sketches over the same item multiset bit-identical regardless of
/// update or merge order.
#[inline]
fn entry_key(e: &KllEntry) -> (u64, u64) {
    (e.0, e.1.to_bits())
}

/// A KLL-style quantile sketch: deterministic hash-priority layered
/// subsampling (see the module docs for the construction and why it is
/// exactly mergeable).
#[derive(Debug, Clone, PartialEq)]
pub struct KllSketch {
    seed: u64,
    capacity: u32,
    /// Active level: every retained entry stands for `2^level` originals.
    level: u32,
    /// Total items observed (exact).
    n: u64,
    /// Survivors at `level`, canonically sorted by [`entry_key`].
    entries: Vec<KllEntry>,
}

impl KllSketch {
    /// An empty sketch retaining at most `capacity` entries. The seed
    /// must be shared by every sketch that will ever merge (the
    /// `Topology::sketch_seed` helper hands one to the whole tree).
    pub fn new(capacity: u32, seed: u64) -> Self {
        KllSketch {
            seed,
            capacity: capacity.max(1),
            level: 0,
            n: 0,
            entries: Vec::new(),
        }
    }

    /// Items observed so far (exact, survives merging).
    pub fn observed(&self) -> u64 {
        self.n
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The Horvitz–Thompson weight of each retained entry.
    pub fn entry_weight(&self) -> f64 {
        (1u64 << self.level.min(63)) as f64
    }

    /// The retained `(value, weight)` pairs (unsorted by value).
    pub fn weighted_values(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let w = self.entry_weight();
        self.entries.iter().map(move |&(_, v)| (v, w))
    }

    /// Raw retained entries in canonical order (wire codec accessor).
    pub fn entries(&self) -> &[(u64, f64)] {
        &self.entries
    }

    /// Active level (wire codec accessor).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Rebuilds a sketch from its serialized parts, re-imposing the
    /// canonical entry order (a decoded frame may have been produced by
    /// any encoder).
    pub fn from_parts(
        capacity: u32,
        seed: u64,
        level: u32,
        n: u64,
        mut entries: Vec<(u64, f64)>,
    ) -> Self {
        entries.sort_unstable_by_key(entry_key);
        KllSketch {
            seed,
            capacity: capacity.max(1),
            level,
            n,
            entries,
        }
    }

    /// Whether a priority survives at `level` (level 0 keeps everything,
    /// each further level halves the survivor set).
    #[inline]
    fn survives(hash: u64, level: u32) -> bool {
        level == 0 || hash <= (u64::MAX >> level.min(63))
    }

    /// Folds one item in. `identity` disambiguates equal values (callers
    /// pass a mix of the item's provenance fields, e.g. seq ⊕ source_ts);
    /// the priority is a pure function of `(seed, identity, value)`, so
    /// any processing order yields the same sketch.
    pub fn update(&mut self, identity: u64, value: f64) {
        self.n += 1;
        let hash = splitmix64(self.seed ^ splitmix64(identity ^ value.to_bits()));
        if !Self::survives(hash, self.level) {
            return;
        }
        let entry = (hash, value);
        let at = self
            .entries
            .partition_point(|e| entry_key(e) <= entry_key(&entry));
        self.entries.insert(at, entry);
        self.compact();
    }

    /// Raises the level until at most `capacity` survivors remain.
    fn compact(&mut self) {
        while self.entries.len() > self.capacity as usize {
            self.level += 1;
            let level = self.level;
            self.entries.retain(|&(h, _)| Self::survives(h, level));
        }
    }

    /// Folds another sketch in. Both sketches must share seed and
    /// capacity (the config/seed are topology-wide in practice).
    ///
    /// # Panics
    ///
    /// Panics when seeds or capacities differ — merging those would
    /// silently produce a sketch that is no longer a function of the
    /// item multiset.
    pub fn merge(&mut self, other: &KllSketch) {
        assert_eq!(self.seed, other.seed, "KLL merge requires a shared seed");
        assert_eq!(
            self.capacity, other.capacity,
            "KLL merge requires a shared capacity"
        );
        let level = self.level.max(other.level);
        if level > self.level {
            self.level = level;
            self.entries.retain(|&(h, _)| Self::survives(h, level));
        }
        self.entries.extend(
            other
                .entries
                .iter()
                .filter(|&&(h, _)| Self::survives(h, level)),
        );
        self.entries.sort_unstable_by_key(entry_key);
        self.n += other.n;
        self.compact();
    }

    /// The estimated rank (count of items ≤ `value`) — the quantity the
    /// rank-error proptests bound.
    pub fn rank_of(&self, value: f64) -> f64 {
        self.weighted_values()
            .filter(|&(v, _)| v <= value)
            .map(|(_, w)| w)
            .sum()
    }
}

/// One tracked heavy-hitter counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeavyEntry {
    /// Tracked value mass — an overestimate of the stratum's true mass.
    pub weight: f64,
    /// Overestimation bound: `weight − err ≤ true mass ≤ weight`.
    pub err: f64,
}

/// Space-Saving heavy hitters over stratum value mass, at most
/// `capacity` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSaving {
    capacity: u32,
    entries: BTreeMap<StratumId, HeavyEntry>,
}

impl SpaceSaving {
    /// An empty summary tracking at most `capacity` strata.
    pub fn new(capacity: u32) -> Self {
        SpaceSaving {
            capacity,
            entries: BTreeMap::new(),
        }
    }

    /// Tracked counters, keyed by stratum.
    pub fn entries(&self) -> &BTreeMap<StratumId, HeavyEntry> {
        &self.entries
    }

    /// Counter capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Rebuilds from serialized parts, re-imposing the capacity bound.
    pub fn from_parts(capacity: u32, entries: Vec<(StratumId, HeavyEntry)>) -> Self {
        let mut ss = SpaceSaving {
            capacity,
            entries: entries.into_iter().collect(),
        };
        ss.truncate();
        ss
    }

    /// The weight a newly promoted stratum inherits: the minimum tracked
    /// weight when full, zero otherwise.
    fn floor(&self) -> f64 {
        if (self.entries.len() as u32) < self.capacity {
            0.0
        } else {
            self.entries
                .values()
                .map(|e| e.weight)
                .fold(f64::INFINITY, f64::min)
        }
    }

    /// The eviction victim: minimum weight, ties to the smallest stratum
    /// (a total, deterministic order).
    fn victim(&self) -> Option<StratumId> {
        self.entries
            .iter()
            .min_by(|a, b| a.1.weight.total_cmp(&b.1.weight).then(a.0.cmp(b.0)))
            .map(|(s, _)| *s)
    }

    /// Folds one observation in: `value` of mass arriving for `stratum`.
    pub fn update(&mut self, stratum: StratumId, value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(entry) = self.entries.get_mut(&stratum) {
            entry.weight += value;
            return;
        }
        if (self.entries.len() as u32) < self.capacity {
            self.entries.insert(
                stratum,
                HeavyEntry {
                    weight: value,
                    err: 0.0,
                },
            );
            return;
        }
        // Classic Space-Saving eviction: the newcomer takes over the
        // minimum counter, inheriting its weight as error.
        // `capacity > 0` and the map is full here, so a victim exists.
        if let Some(victim) = self.victim() {
            let floor = self.entries.remove(&victim).map_or(0.0, |e| e.weight);
            self.entries.insert(
                stratum,
                HeavyEntry {
                    weight: floor + value,
                    err: floor,
                },
            );
        }
    }

    /// Folds another summary in: the symmetric mergeable-summaries rule.
    /// Strata tracked on both sides add their weights and errors; a
    /// stratum tracked on one side only inherits the other side's floor
    /// (its minimum weight when full, zero otherwise) as extra weight
    /// *and* error — it may have been evicted there. The result is then
    /// cut back to the top `capacity` counters by `(weight desc, stratum
    /// asc)`. Symmetric in its arguments, hence bit-exactly commutative;
    /// the `weight − err ≤ true ≤ weight` bound survives.
    pub fn merge(&mut self, other: &SpaceSaving) {
        let floor_a = self.floor();
        let floor_b = other.floor();
        let mut merged: BTreeMap<StratumId, HeavyEntry> = BTreeMap::new();
        for (&s, a) in &self.entries {
            let e = match other.entries.get(&s) {
                Some(b) => HeavyEntry {
                    weight: a.weight + b.weight,
                    err: a.err + b.err,
                },
                None => HeavyEntry {
                    weight: a.weight + floor_b,
                    err: a.err + floor_b,
                },
            };
            merged.insert(s, e);
        }
        for (&s, b) in &other.entries {
            if !self.entries.contains_key(&s) {
                merged.insert(
                    s,
                    HeavyEntry {
                        weight: b.weight + floor_a,
                        err: b.err + floor_a,
                    },
                );
            }
        }
        self.entries = merged;
        self.truncate();
    }

    /// Cuts back to the `capacity` heaviest counters.
    fn truncate(&mut self) {
        while self.entries.len() as u32 > self.capacity {
            if let Some(victim) = self.victim() {
                self.entries.remove(&victim);
            } else {
                break;
            }
        }
    }

    /// The top `k` strata by tracked weight, `(weight desc, stratum
    /// asc)`, each as an [`Estimate`] whose standard deviation is the
    /// deterministic overestimation bound `err`.
    pub fn top_k(&self, k: usize) -> Vec<(StratumId, Estimate)> {
        let mut ranked: Vec<(StratumId, HeavyEntry)> =
            self.entries.iter().map(|(&s, &e)| (s, e)).collect();
        ranked.sort_by(|a, b| b.1.weight.total_cmp(&a.1.weight).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(s, e)| (s, Estimate::new(e.weight, e.err * e.err)))
            .collect()
    }
}

/// The per-stratum summary pair: exact moments plus the quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSummary {
    /// Exact count / sum / sum-of-squares.
    pub moments: Moments,
    /// The stratum's quantile sketch.
    pub sketch: KllSketch,
}

/// One window's complete summary state: per-stratum sections plus the
/// shared heavy-hitter summary. This is what a sketch-strategy node
/// emits instead of a batch of items, what inner nodes [`merge`], and
/// what the root answers quantile and top-k queries from.
///
/// [`merge`]: StratumSummaries::merge
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSummaries {
    config: SketchConfig,
    seed: u64,
    strata: BTreeMap<StratumId, StratumSummary>,
    heavy: SpaceSaving,
}

impl StratumSummaries {
    /// An empty summary set. `seed` is the topology-wide sketch seed
    /// (`Topology::sketch_seed`): every summary that will ever merge must
    /// share it so item priorities agree.
    pub fn new(config: SketchConfig, seed: u64) -> Self {
        StratumSummaries {
            config,
            seed,
            strata: BTreeMap::new(),
            heavy: SpaceSaving::new(config.heavy_capacity),
        }
    }

    /// The sizing config.
    pub fn config(&self) -> SketchConfig {
        self.config
    }

    /// The shared sketch seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-stratum sections, keyed by stratum.
    pub fn strata(&self) -> &BTreeMap<StratumId, StratumSummary> {
        &self.strata
    }

    /// The shared heavy-hitter summary.
    pub fn heavy(&self) -> &SpaceSaving {
        &self.heavy
    }

    /// Rebuilds from decoded wire parts.
    pub fn from_parts(
        config: SketchConfig,
        seed: u64,
        strata: Vec<(StratumId, StratumSummary)>,
        heavy: SpaceSaving,
    ) -> Self {
        StratumSummaries {
            config,
            seed,
            strata: strata.into_iter().collect(),
            heavy,
        }
    }

    /// `true` when no item was ever observed.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Folds one item in: moments and sketch of its stratum, plus the
    /// shared heavy-hitter summary. `identity` disambiguates equal
    /// values (pass a mix of seq and source_ts).
    pub fn observe(&mut self, stratum: StratumId, identity: u64, value: f64) {
        let config = self.config;
        let seed = self.seed;
        let entry = self
            .strata
            .entry(stratum)
            .or_insert_with(|| StratumSummary {
                moments: Moments::new(),
                // Per-stratum sketch seeds derive from the shared seed so
                // sketches of the same stratum agree across nodes.
                sketch: KllSketch::new(config.kll_k, stratum_sketch_seed(seed, stratum)),
            });
        entry.moments.update(value);
        if config.kll_k > 0 {
            entry.sketch.update(identity, value);
        }
        self.heavy.update(stratum, value);
    }

    /// Folds another summary set in — the inner-node operation: no
    /// per-item work, just section-wise merges.
    ///
    /// # Panics
    ///
    /// Panics when configs or seeds differ (the runtime validates a
    /// single topology-wide config, so this is a programming error).
    pub fn merge(&mut self, other: &StratumSummaries) {
        assert_eq!(self.config, other.config, "summary configs must match");
        assert_eq!(self.seed, other.seed, "summary seeds must match");
        for (&stratum, section) in &other.strata {
            match self.strata.get_mut(&stratum) {
                Some(mine) => {
                    mine.moments.merge(&section.moments);
                    if self.config.kll_k > 0 {
                        mine.sketch.merge(&section.sketch);
                    }
                }
                None => {
                    self.strata.insert(stratum, section.clone());
                }
            }
        }
        self.heavy.merge(&other.heavy);
    }

    /// Exact total item count.
    pub fn count(&self) -> u64 {
        self.strata.values().map(|s| s.moments.count).sum()
    }

    /// The `q`-quantile over all strata from the per-stratum sketches:
    /// each retained entry stands for `2^level` originals of its
    /// stratum, so the global weighted empirical CDF is inverted exactly
    /// like the Θ-store path. The interval inverts the CDF at
    /// `q ± z·√(q(1−q)/m)` where `m` is the retained entry count.
    ///
    /// Returns `None` when empty or the quantile component is disabled.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= q <= 1`.
    pub fn quantile(&self, q: f64, confidence: Confidence) -> Option<QuantileEstimate> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.config.kll_k == 0 {
            return None;
        }
        let mut pairs: Vec<(f64, f64)> = self
            .strata
            .values()
            .flat_map(|s| s.sketch.weighted_values())
            .collect();
        if pairs.is_empty() {
            return None;
        }
        pairs.sort_by(f64_pair_order);
        let total: f64 = pairs.iter().map(|p| p.1).sum();
        let m = pairs.len() as f64;
        let half_width = confidence.sigmas() * (q * (1.0 - q) / m).sqrt();
        let q_lo = (q - half_width).max(0.0);
        let q_hi = (q + half_width).min(1.0);
        Some(QuantileEstimate {
            value: invert_cdf(&pairs, q * total),
            lo: invert_cdf(&pairs, q_lo * total),
            hi: invert_cdf(&pairs, q_hi * total),
            q,
        })
    }

    /// The top `k` strata by value mass from the heavy-hitter summary.
    /// Empty when the heavy component is disabled.
    pub fn top_k(&self, k: usize) -> Vec<(StratumId, Estimate)> {
        self.heavy.top_k(k)
    }
}

/// Total order on `(value, weight)` pairs by value (bit-deterministic:
/// `total_cmp` never falls back to "equal" for distinct bit patterns).
fn f64_pair_order(a: &(f64, f64), b: &(f64, f64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0)
}

/// Inverts a weighted empirical CDF at cumulative weight `target`
/// (`pairs` sorted by value).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    #[test]
    fn moments_track_exactly() {
        let mut m = Moments::new();
        for v in [1.0, 2.0, 3.0] {
            m.update(v);
        }
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 6.0);
        assert_eq!(m.sum_sq, 14.0);
        let mut other = Moments::new();
        other.update(4.0);
        m.merge(&other);
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 10.0);
        assert_eq!(m.sum_sq, 30.0);
        assert_eq!(Moments::new(), Moments::default());
    }

    #[test]
    fn kll_is_order_insensitive() {
        let mut forward = KllSketch::new(16, 7);
        let mut backward = KllSketch::new(16, 7);
        let items: Vec<(u64, f64)> = (0..500).map(|i| (i, (i % 97) as f64)).collect();
        for &(id, v) in &items {
            forward.update(id, v);
        }
        for &(id, v) in items.iter().rev() {
            backward.update(id, v);
        }
        assert_eq!(forward, backward, "state is a function of the multiset");
        assert!(forward.len() <= 16);
        assert_eq!(forward.observed(), 500);
    }

    #[test]
    fn kll_merge_equals_bulk_update() {
        let items: Vec<(u64, f64)> = (0..800).map(|i| (i, (i * 31 % 113) as f64)).collect();
        let mut whole = KllSketch::new(32, 9);
        for &(id, v) in &items {
            whole.update(id, v);
        }
        let mut left = KllSketch::new(32, 9);
        let mut right = KllSketch::new(32, 9);
        for &(id, v) in &items[..300] {
            left.update(id, v);
        }
        for &(id, v) in &items[300..] {
            right.update(id, v);
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        assert_eq!(ab, whole, "merge == bulk update");
        assert_eq!(ab, ba, "merge commutes bit-exactly");
    }

    #[test]
    fn kll_rank_error_is_bounded() {
        // 10k distinct values 0..10000: the estimated median rank must be
        // within a few sigma of n/2 for a k=256 sketch.
        let mut sketch = KllSketch::new(256, 3);
        for i in 0..10_000u64 {
            sketch.update(i, i as f64);
        }
        let rank = sketch.rank_of(5_000.0);
        let sigma = 10_000.0 * (0.25f64 / 256.0).sqrt();
        assert!(
            (rank - 5_000.0).abs() < 5.0 * sigma,
            "rank {rank} off by more than 5σ ({sigma})"
        );
    }

    #[test]
    #[should_panic(expected = "shared seed")]
    fn kll_merge_rejects_mismatched_seeds() {
        let mut a = KllSketch::new(8, 1);
        let b = KllSketch::new(8, 2);
        a.merge(&b);
    }

    #[test]
    fn space_saving_is_exact_under_capacity() {
        let mut ss = SpaceSaving::new(8);
        for (stratum, value) in [(0u32, 5.0), (1, 3.0), (0, 2.0)] {
            ss.update(s(stratum), value);
        }
        assert_eq!(ss.entries()[&s(0)].weight, 7.0);
        assert_eq!(ss.entries()[&s(0)].err, 0.0);
        let top = ss.top_k(1);
        assert_eq!(top[0].0, s(0));
        assert_eq!(top[0].1.value, 7.0);
        assert_eq!(top[0].1.variance, 0.0);
    }

    #[test]
    fn space_saving_eviction_keeps_the_guarantee() {
        let mut ss = SpaceSaving::new(2);
        let mut truth: BTreeMap<StratumId, f64> = BTreeMap::new();
        for (stratum, value) in [(0u32, 10.0), (1, 1.0), (2, 2.0), (0, 5.0), (3, 1.0)] {
            ss.update(s(stratum), value);
            *truth.entry(s(stratum)).or_default() += value;
        }
        assert_eq!(ss.entries().len(), 2);
        for (stratum, entry) in ss.entries() {
            let true_mass = truth.get(stratum).copied().unwrap_or(0.0);
            assert!(
                entry.weight - entry.err <= true_mass + 1e-9 && true_mass <= entry.weight + 1e-9,
                "{stratum}: {entry:?} vs true {true_mass}"
            );
        }
    }

    #[test]
    fn space_saving_merge_commutes_and_keeps_the_guarantee() {
        let mut a = SpaceSaving::new(2);
        let mut b = SpaceSaving::new(2);
        let mut truth: BTreeMap<StratumId, f64> = BTreeMap::new();
        for (stratum, value) in [(0u32, 10.0), (1, 4.0), (2, 3.0)] {
            a.update(s(stratum), value);
            *truth.entry(s(stratum)).or_default() += value;
        }
        for (stratum, value) in [(1u32, 6.0), (3, 8.0), (0, 1.0)] {
            b.update(s(stratum), value);
            *truth.entry(s(stratum)).or_default() += value;
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.entries().len(), 2);
        for (stratum, entry) in ab.entries() {
            let true_mass = truth.get(stratum).copied().unwrap_or(0.0);
            assert!(
                entry.weight - entry.err <= true_mass + 1e-9 && true_mass <= entry.weight + 1e-9,
                "{stratum}: {entry:?} vs true {true_mass}"
            );
        }
    }

    #[test]
    fn summaries_answer_all_query_shapes() {
        let mut ss = StratumSummaries::new(SketchConfig::new(64, 8), 42);
        for i in 0..1000u64 {
            ss.observe(s((i % 3) as u32), i, (i % 100) as f64);
        }
        assert_eq!(ss.count(), 1000);
        // Each stratum's moments are exactly its items' moments, folded in
        // observation order.
        let mut oracle: BTreeMap<StratumId, Moments> = BTreeMap::new();
        for i in 0..1000u64 {
            oracle
                .entry(s((i % 3) as u32))
                .or_default()
                .update((i % 100) as f64);
        }
        let moments: BTreeMap<StratumId, Moments> = ss
            .strata()
            .iter()
            .map(|(&st, sec)| (st, sec.moments))
            .collect();
        assert_eq!(moments, oracle);
        assert_eq!(moments[&s(0)].count, 334);
        let exact_sum: f64 = (0..1000u64).map(|i| (i % 100) as f64).sum();
        assert_eq!(moments.values().map(|m| m.sum).sum::<f64>(), exact_sum);
        let q = ss.quantile(0.5, Confidence::P95).expect("non-empty");
        assert!(q.lo <= q.value && q.value <= q.hi);
        assert!((q.value - 50.0).abs() < 20.0, "median ~{}", q.value);
        let top = ss.top_k(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1.value >= top[1].1.value);
    }

    #[test]
    fn summaries_merge_matches_bulk_observation() {
        let config = SketchConfig::new(32, 4);
        let mut whole = StratumSummaries::new(config, 7);
        let mut left = StratumSummaries::new(config, 7);
        let mut right = StratumSummaries::new(config, 7);
        for i in 0..600u64 {
            let stratum = s((i % 5) as u32);
            let value = (i * 13 % 211) as f64;
            whole.observe(stratum, i, value);
            if i < 300 {
                left.observe(stratum, i, value);
            } else {
                right.observe(stratum, i, value);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        // Counts and sketches are exactly multiset-determined; moments
        // sums agree to float tolerance (different add order).
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.strata().len(), whole.strata().len());
        for (stratum, section) in whole.strata() {
            let mine = &merged.strata()[stratum];
            assert_eq!(mine.moments.count, section.moments.count, "{stratum}");
            assert!((mine.moments.sum - section.moments.sum).abs() < 1e-9);
            assert!((mine.moments.sum_sq - section.moments.sum_sq).abs() < 1e-9);
            assert_eq!(mine.sketch, section.sketch, "{stratum} sketch");
        }
        // Commutativity is bit-exact.
        let mut swapped = right.clone();
        swapped.merge(&left);
        assert_eq!(merged, swapped);
    }

    #[test]
    fn disabled_components_answer_none_or_empty() {
        let mut ss = StratumSummaries::new(SketchConfig::counts_only(), 1);
        for i in 0..100u64 {
            ss.observe(s(0), i, 1.0);
        }
        assert_eq!(ss.quantile(0.5, Confidence::P95), None);
        assert!(ss.top_k(3).is_empty());
        assert_eq!(ss.count(), 100, "moments still exact");
    }

    #[test]
    fn empty_summaries_are_sane() {
        let ss = StratumSummaries::new(SketchConfig::default(), 0);
        assert!(ss.is_empty());
        assert_eq!(ss.quantile(0.5, Confidence::P95), None);
        assert!(ss.top_k(1).is_empty());
        assert!(ss.strata().is_empty());
        assert_eq!(ss.count(), 0);
    }
}
