//! Reservoir sampling: uniform samples of bounded size from unbounded
//! streams.
//!
//! [`Reservoir`] is Vitter's classic *Algorithm R*: O(1) work per offered
//! item, one random draw per item once the reservoir is full. After
//! observing `n ≥ R` items, every item was retained with probability
//! exactly `R / n`. It serves items that arrive one at a time (the
//! reference [`crate::whs_sample`] path); when a whole stratum is
//! available as a slice, the `WHSamp` hot path uses Floyd's selection
//! sampling instead (see [`crate::WhsScratch`]), which needs exactly `R`
//! draws.

use rand::Rng;

/// Classic reservoir sampler (Vitter's Algorithm R).
///
/// Keeps the first `capacity` items; afterwards the `i`-th item (1-based)
/// replaces a uniformly random slot with probability `capacity / i`.
///
/// # Examples
///
/// ```
/// use approxiot_core::Reservoir;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut res = Reservoir::new(3);
/// for x in 0..100 {
///     res.offer(x, &mut rng);
/// }
/// assert_eq!(res.len(), 3);
/// assert_eq!(res.seen(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    slots: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Creates a reservoir holding at most `capacity` items.
    ///
    /// A zero-capacity reservoir is legal and rejects every item; the paper's
    /// allocation policy can assign zero slots to a stratum when the sample
    /// budget is smaller than the stratum count.
    pub fn new(capacity: usize) -> Self {
        Reservoir {
            capacity,
            seen: 0,
            slots: Vec::with_capacity(capacity.min(1024)),
        }
    }

    /// Offers one item. Returns the evicted item when the new item displaced
    /// one, `Some(item)` straight back when it was rejected, or `None` when
    /// it was absorbed without eviction.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) -> Option<T> {
        self.seen += 1;
        if self.capacity == 0 {
            return Some(item);
        }
        if self.slots.len() < self.capacity {
            self.slots.push(item);
            return None;
        }
        // Keep with probability capacity / seen.
        let j = rng.random_range(0..self.seen);
        if (j as usize) < self.capacity {
            Some(std::mem::replace(&mut self.slots[j as usize], item))
        } else {
            Some(item)
        }
    }

    /// Offers every item of an iterator.
    pub fn offer_all<R, I>(&mut self, items: I, rng: &mut R)
    where
        R: Rng + ?Sized,
        I: IntoIterator<Item = T>,
    {
        for item in items {
            let _ = self.offer(item, rng);
        }
    }

    /// Number of items offered so far (the paper's `c_i`).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of items currently retained (`min(seen, capacity)`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum number of retained items (the paper's `N_i`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` once the reservoir holds `capacity` items.
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }

    /// The retained sample, in slot order.
    pub fn items(&self) -> &[T] {
        &self.slots
    }

    /// Consumes the reservoir, returning the retained sample.
    pub fn into_items(self) -> Vec<T> {
        self.slots
    }

    /// Clears retained items and the seen counter for a new interval.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keeps_first_items_until_full() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut res = Reservoir::new(4);
        for x in 0..4 {
            assert_eq!(res.offer(x, &mut rng), None);
        }
        assert!(res.is_full());
        assert_eq!(res.items(), &[0, 1, 2, 3]);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut res = Reservoir::new(5);
        res.offer_all(0..1_000, &mut rng);
        assert_eq!(res.len(), 5);
        assert_eq!(res.seen(), 1_000);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut res = Reservoir::new(0);
        assert_eq!(res.offer(42, &mut rng), Some(42));
        assert_eq!(res.len(), 0);
        assert_eq!(res.seen(), 1);
    }

    #[test]
    fn fewer_items_than_capacity_keeps_all() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut res = Reservoir::new(10);
        res.offer_all(0..3, &mut rng);
        assert_eq!(res.len(), 3);
        assert!(!res.is_full());
    }

    #[test]
    fn offer_returns_evicted_or_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut res = Reservoir::new(1);
        assert_eq!(res.offer(0, &mut rng), None);
        // Every further offer returns exactly one item (either the newcomer
        // or the evicted occupant), so total conservation holds.
        let mut returned = Vec::new();
        for x in 1..100 {
            returned.push(
                res.offer(x, &mut rng)
                    .expect("full reservoir returns an item"),
            );
        }
        assert_eq!(returned.len() + res.len(), 100);
    }

    #[test]
    fn reset_clears_state() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut res = Reservoir::new(2);
        res.offer_all(0..10, &mut rng);
        res.reset();
        assert_eq!(res.len(), 0);
        assert_eq!(res.seen(), 0);
    }

    /// Uniformity: each of n items should be retained with probability R/n.
    /// We run many trials and check per-item selection frequencies.
    #[test]
    fn algorithm_r_is_uniform() {
        let n = 20u32;
        let r = 5usize;
        let trials = 20_000;
        let mut counts = vec![0u32; n as usize];
        let mut rng = StdRng::seed_from_u64(0xA55);
        for _ in 0..trials {
            let mut res = Reservoir::new(r);
            res.offer_all(0..n, &mut rng);
            for kept in res.into_items() {
                counts[kept as usize] += 1;
            }
        }
        let expected = trials as f64 * r as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(
                rel < 0.08,
                "item {i} selected {c} times, expected ~{expected:.0} (rel err {rel:.3})"
            );
        }
    }
}
