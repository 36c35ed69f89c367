//! Simple random sampling (SRS) — the paper's baseline.
//!
//! The paper's SRS baseline is the *coin-flip* sampler of Jermaine et al.
//! (the DBO engine): each item is kept independently with probability `p`
//! equal to the sampling fraction, regardless of which sub-stream it came
//! from. SUM estimates scale the sampled total by `1/p`
//! (Horvitz–Thompson).
//!
//! SRS is cheap and coordination-free — but because it ignores strata, a
//! rare sub-stream with large values is easily missed entirely, which is
//! exactly what Figures 5 and 10 of the paper demonstrate.

use crate::batch::Batch;
use crate::columns::{ColumnarBatch, ColumnsView};
use crate::item::StreamItem;
use rand::Rng;

/// Coin-flip Bernoulli sampler with a fixed keep probability.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, SrsSampler, StratumId, StreamItem};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let srs = SrsSampler::new(0.5).expect("fraction in (0, 1]");
/// let items: Vec<_> = (0..1000).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let sample = srs.sample(&Batch::from_items(items), &mut rng);
/// // Roughly half survive.
/// assert!(sample.len() > 400 && sample.len() < 600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrsSampler {
    fraction: f64,
}

impl SrsSampler {
    /// Creates a sampler keeping each item with probability `fraction`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFractionError`] unless `0 < fraction <= 1`.
    pub fn new(fraction: f64) -> Result<Self, InvalidFractionError> {
        if fraction.is_finite() && fraction > 0.0 && fraction <= 1.0 {
            Ok(SrsSampler { fraction })
        } else {
            Err(InvalidFractionError { fraction })
        }
    }

    /// The keep probability.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The Horvitz–Thompson scale factor (`1 / fraction`) applied to sums
    /// over the sample.
    pub fn scale(&self) -> f64 {
        1.0 / self.fraction
    }

    /// Samples one batch: each item survives an independent coin flip.
    pub fn sample<R: Rng + ?Sized>(&self, batch: &Batch, rng: &mut R) -> Vec<StreamItem> {
        batch
            .items
            .iter()
            .filter(|_| rng.random::<f64>() < self.fraction)
            .copied()
            .collect()
    }

    /// Samples one columnar view, appending survivors to `out` — the
    /// columnar twin of [`SrsSampler::sample`], gathering kept indices
    /// into the output columns. One coin flip per item in order, so the
    /// survivors are **bit-identical** to the AoS path for the same RNG
    /// state.
    pub fn sample_columns_into<R: Rng + ?Sized>(
        &self,
        input: ColumnsView<'_>,
        out: &mut ColumnarBatch,
        rng: &mut R,
    ) {
        for i in 0..input.len() {
            if rng.random::<f64>() < self.fraction {
                out.push_parts(
                    input.strata[i],
                    input.values[i],
                    input.seqs[i],
                    input.source_ts[i],
                );
            }
        }
    }
}

/// Error returned by [`SrsSampler::new`] for a fraction outside `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidFractionError {
    fraction: f64,
}

impl std::fmt::Display for InvalidFractionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sampling fraction must be in (0, 1], got {}",
            self.fraction
        )
    }
}

impl std::error::Error for InvalidFractionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::StratumId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch(n: usize, value: f64) -> Batch {
        (0..n)
            .map(|i| StreamItem::with_meta(StratumId::new(0), value, i as u64, 0))
            .collect()
    }

    #[test]
    fn rejects_bad_fractions() {
        assert!(SrsSampler::new(0.0).is_err());
        assert!(SrsSampler::new(-0.5).is_err());
        assert!(SrsSampler::new(1.5).is_err());
        assert!(SrsSampler::new(f64::NAN).is_err());
        assert!(SrsSampler::new(1.0).is_ok());
        let err = SrsSampler::new(2.0).unwrap_err();
        assert!(err.to_string().contains("sampling fraction"));
    }

    #[test]
    fn fraction_one_keeps_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let srs = SrsSampler::new(1.0).expect("valid");
        let b = batch(100, 1.0);
        assert_eq!(srs.sample(&b, &mut rng).len(), 100);
    }

    #[test]
    fn sample_size_concentrates_around_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let srs = SrsSampler::new(0.2).expect("valid");
        let b = batch(50_000, 1.0);
        let kept = srs.sample(&b, &mut rng).len() as f64;
        let expected = 10_000.0;
        assert!((kept - expected).abs() / expected < 0.05);
    }

    #[test]
    fn sum_estimate_is_unbiased_on_average() {
        let mut rng = StdRng::seed_from_u64(3);
        let srs = SrsSampler::new(0.1).expect("valid");
        let b = batch(5_000, 2.0);
        let truth = b.value_sum();
        let trials = 200;
        let mean_est: f64 = (0..trials)
            .map(|_| {
                let sample = srs.sample(&b, &mut rng);
                sample.iter().map(|i| i.value).sum::<f64>() * srs.scale()
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean_est - truth).abs() / truth < 0.02);
    }

    #[test]
    fn count_estimate_scales_by_inverse_fraction() {
        let srs = SrsSampler::new(0.25).expect("valid");
        assert_eq!(srs.scale(), 4.0);
    }

    #[test]
    fn columnar_srs_bit_identical_to_aos() {
        let srs = SrsSampler::new(0.3).expect("valid");
        let b = batch(500, 2.0);
        let cols = ColumnarBatch::from_batch(&b);
        for seed in [0u64, 7, 1234] {
            let mut aos_rng = StdRng::seed_from_u64(seed);
            let aos = srs.sample(&b, &mut aos_rng);
            let mut soa_rng = StdRng::seed_from_u64(seed);
            let mut out = ColumnarBatch::new();
            srs.sample_columns_into(cols.view(), &mut out, &mut soa_rng);
            assert_eq!(out.to_batch().items, aos, "seed {seed}");
        }
    }

    #[test]
    fn srs_can_miss_a_rare_stratum_entirely() {
        // The failure mode motivating stratification: at 1% fraction, a
        // 20-item stratum is missed in a substantial share of runs.
        let mut rng = StdRng::seed_from_u64(4);
        let srs = SrsSampler::new(0.01).expect("valid");
        let mut items: Vec<StreamItem> = (0..10_000)
            .map(|i| StreamItem::with_meta(StratumId::new(0), 1.0, i, 0))
            .collect();
        items.extend((0..20).map(|i| StreamItem::with_meta(StratumId::new(1), 1e6, i, 0)));
        let b = Batch::from_items(items);
        let mut missed = 0;
        let trials = 300;
        for _ in 0..trials {
            let sample = srs.sample(&b, &mut rng);
            if !sample.iter().any(|i| i.stratum == StratumId::new(1)) {
                missed += 1;
            }
        }
        // P(miss) = 0.99^20 ≈ 0.818; allow a generous band.
        assert!(
            missed > trials / 2,
            "rare stratum missed only {missed}/{trials} times"
        );
    }
}
