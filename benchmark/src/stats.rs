//! Percentiles, quartiles and the regression rule.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least [`TAIL_SAMPLES`] samples beyond it,
//! with the sample count printed next to it: a "p95" of 30 samples is the
//! second-largest value and says nothing about a tail.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A median and the highest supported tail percentile of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// Which percentile `tail` is, in percent (50 when the set is too
    /// small to support anything above the median).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The percentile, in percent and at most `cap_pct`, that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it; 50 when none above the
/// median does.
pub fn supported_tail_pct(n: usize, cap_pct: f64) -> f64 {
    if n <= 2 * TAIL_SAMPLES {
        return 50.0;
    }
    let highest = 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64;
    highest.min(cap_pct).max(50.0)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `pct` percent of the set at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and supported tail of `samples` (sorted in place), the tail
/// capped at `cap_pct`. `None` when there are no samples.
pub fn percentiles(samples: &mut [f64], cap_pct: f64) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let tail_pct = supported_tail_pct(samples.len(), cap_pct);
    Some(Percentiles {
        n: samples.len(),
        p50: nearest_rank(samples, 50.0),
        tail_pct,
        tail: nearest_rank(samples, tail_pct),
    })
}

/// Samples per block for [`blocked_percentiles`]: whole repetitions of
/// `per_repetition` samples, as few as hold the 200 samples a 95th
/// percentile needs.
pub fn block_len(per_repetition: usize) -> usize {
    let per_repetition = per_repetition.max(1);
    per_repetition * (20 * TAIL_SAMPLES).div_ceil(per_repetition)
}

/// Percentiles taken block by block — `samples` in the order they were
/// measured, cut into blocks of `block` — and then the median over the
/// blocks of each. A host that slows down for a few seconds moves a
/// pooled 95th percentile but not the median of the blocks'. Samples
/// past the last whole block are left out; with fewer than three whole
/// blocks the samples are pooled.
pub fn blocked_percentiles(samples: &[f64], block: usize, cap_pct: f64) -> Option<Percentiles> {
    if block == 0 || samples.len() / block < 3 {
        return percentiles(&mut samples.to_vec(), cap_pct);
    }
    let blocks: Vec<Percentiles> = samples
        .chunks_exact(block)
        .filter_map(|chunk| percentiles(&mut chunk.to_vec(), cap_pct))
        .collect();
    Some(Percentiles {
        n: blocks.len() * block,
        p50: median(&blocks.iter().map(|b| b.p50).collect::<Vec<_>>())?,
        tail_pct: blocks[0].tail_pct,
        tail: median(&blocks.iter().map(|b| b.tail).collect::<Vec<_>>())?,
    })
}

/// The interpolated median (mean of the two middle samples on an even
/// count); `None` when there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them
/// — the rule the driver applies to ten runs. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        // Python clamps the index first, so at the ends `delta` leaves
        // [0, 4) and the quartile is extrapolated.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// The distance between the first and third quartile as a share of the
/// median; 0 below two values (nothing to spread).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        Some(_) => f64::INFINITY,
        None => 0.0,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, memory).
    Lower,
    /// Larger is better (throughput, coverage).
    Higher,
}

impl Better {
    /// Parses `BENCHMARK.json`'s `"better"` field.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The outcome of comparing one metric on one workload between a
/// baseline set of runs and a candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the baseline's by more
    /// than the bound.
    Within,
    /// The candidate's median is worse by more than the bound.
    Regressed,
    /// A side's own run-to-run spread exceeds the bound, so neither
    /// "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline (negative = better).
pub fn worse_by(better: Better, baseline: f64, candidate: f64) -> f64 {
    let delta = match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / baseline.abs()
    }
}

/// Applies a metric's bound to two sets of runs: unresolved when either
/// side's spread exceeds the bound, else regressed when the candidate's
/// median is worse than the baseline's by more than the bound.
///
/// # Panics
///
/// Panics when either side is empty.
pub fn verdict(better: Better, bound: f64, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let base = median(baseline).expect("baseline runs");
    let cand = median(candidate).expect("candidate runs");
    if spread(baseline) > bound || spread(candidate) > bound {
        Verdict::Unresolved
    } else if worse_by(better, base, cand) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}
