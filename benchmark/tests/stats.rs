//! The percentile picker, the quartile rule and the bound logic.

use approxiot_benchmark::stats::{
    block_len, blocked_percentiles, median, nearest_rank, percentiles, quartiles, spread,
    supported_tail_pct, verdict, worse_by, Better, Verdict,
};

#[test]
fn tail_percentile_leaves_ten_samples_beyond_it() {
    // Too few samples for anything above the median.
    for n in [1, 9, 20] {
        assert_eq!(supported_tail_pct(n, 95.0), 50.0, "n = {n}");
    }
    // 100 samples: the 90th percentile has exactly ten beyond it.
    assert_eq!(supported_tail_pct(100, 95.0), 90.0);
    assert_eq!(supported_tail_pct(100, 99.0), 90.0);
    // 200 samples are the fewest that support a p95; more do not raise it
    // past the cap.
    assert_eq!(supported_tail_pct(200, 95.0), 95.0);
    assert_eq!(supported_tail_pct(470, 95.0), 95.0);
    assert_eq!(supported_tail_pct(1000, 99.0), 99.0);
    assert!((supported_tail_pct(470, 99.0) - 100.0 * 460.0 / 470.0).abs() < 1e-12);
}

#[test]
fn picked_tail_really_has_ten_samples_beyond() {
    for n in [21usize, 57, 100, 199, 200, 470, 12_800] {
        let mut samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        let p = percentiles(&mut samples, 99.9).expect("samples");
        assert_eq!(p.n, n);
        let beyond = samples.iter().filter(|s| **s > p.tail).count();
        assert!(beyond >= 10, "n = {n}: {beyond} beyond p{}", p.tail_pct);
        // And it is the highest such percentile: one rank up has nine.
        let next = samples[samples
            .iter()
            .position(|s| *s > p.tail)
            .expect("a larger sample")];
        assert_eq!(samples.iter().filter(|s| **s > next).count(), beyond - 1);
    }
}

#[test]
fn nearest_rank_picks_an_actual_sample() {
    let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert_eq!(nearest_rank(&sorted, 50.0), 5.0);
    assert_eq!(nearest_rank(&sorted, 90.0), 9.0);
    assert_eq!(nearest_rank(&sorted, 100.0), 10.0);
    assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
    assert_eq!(nearest_rank(&[7.5], 95.0), 7.5);
}

#[test]
fn small_sets_report_the_median_as_their_tail() {
    let mut nine = vec![9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
    let p = percentiles(&mut nine, 95.0).expect("samples");
    assert_eq!((p.n, p.p50, p.tail_pct, p.tail), (9, 5.0, 50.0, 5.0));
    assert!(percentiles(&mut [], 95.0).is_none());
}

#[test]
fn blocks_are_whole_repetitions_that_support_a_p95() {
    assert_eq!(block_len(4000), 4000);
    assert_eq!(block_len(200), 200);
    assert_eq!(block_len(64), 256);
    assert_eq!(block_len(63), 252);
    assert_eq!(block_len(0), 200);
    for per_repetition in [1, 63, 64, 199, 4000] {
        assert_eq!(supported_tail_pct(block_len(per_repetition), 95.0), 95.0);
    }
}

#[test]
fn blocked_percentiles_shrug_off_a_slow_stretch() {
    // Ten blocks of 200 samples 1..=200; three of them ran 10x slower.
    let mut samples = Vec::new();
    for block in 0..10 {
        let scale = if (3..6).contains(&block) { 10.0 } else { 1.0 };
        samples.extend((1..=200).map(|i| scale * i as f64));
    }
    let pooled = percentiles(&mut samples.clone(), 95.0).expect("samples");
    let blocked = blocked_percentiles(&samples, 200, 95.0).expect("samples");
    assert_eq!(
        (blocked.n, blocked.p50, blocked.tail_pct, blocked.tail),
        (2000, 100.0, 95.0, 190.0)
    );
    assert!(
        pooled.tail > 5.0 * blocked.tail,
        "the pooled tail is the slow stretch"
    );
    // Fewer than three whole blocks: pooled.
    assert_eq!(blocked_percentiles(&samples, 800, 95.0), Some(pooled));
    assert_eq!(blocked_percentiles(&samples, 0, 95.0), Some(pooled));
    assert_eq!(blocked_percentiles(&[], 200, 95.0), None);
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // statistics.quantiles([...], n=4) on the same data.
    let ten = [3.1, 4.7, 1.2, 9.9, 5.5, 6.0, 2.8, 7.3, 8.1, 0.4];
    let [q1, q2, q3] = quartiles(&ten).expect("ten values");
    assert!((q1 - 2.4).abs() < 1e-12, "{q1}");
    assert!((q2 - 5.1).abs() < 1e-12, "{q2}");
    assert!((q3 - 7.5).abs() < 1e-12, "{q3}");
    // Two values: Python extrapolates past both.
    let [q1, q2, q3] = quartiles(&[1.0, 2.0]).expect("two values");
    assert_eq!((q1, q2, q3), (0.75, 1.5, 2.25));
    assert!(quartiles(&[1.0]).is_none());
    assert_eq!(median(&ten), Some(5.1));
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
    assert_eq!(spread(&[4.0]), 0.0);
}

#[test]
fn worse_by_follows_the_metrics_direction() {
    assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
    assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
    assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
    assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
}

#[test]
fn verdict_applies_the_bound_to_the_medians() {
    let steady = |center: f64| -> Vec<f64> { (0..10).map(|i| center + 0.01 * i as f64).collect() };
    let base = steady(100.0);
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &steady(105.0)),
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &steady(80.0)),
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &base, &steady(112.0)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(Better::Higher, 0.10, &base, &steady(112.0)),
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Higher, 0.10, &base, &steady(88.0)),
        Verdict::Regressed
    );
    // Exact metrics: a zero-width bound passes only on equality or gain.
    assert_eq!(
        verdict(Better::Higher, 0.0, &[1.0; 10], &[1.0; 10]),
        Verdict::Within
    );
    assert_eq!(
        verdict(Better::Higher, 0.0, &[1.0; 10], &[0.999; 10]),
        Verdict::Regressed
    );
}

#[test]
fn verdict_is_unresolved_when_either_side_is_noisier_than_the_bound() {
    let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * i as f64).collect();
    let steady = vec![100.0; 10];
    assert!(spread(&noisy) > 0.10);
    assert_eq!(
        verdict(Better::Lower, 0.10, &noisy, &steady),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(Better::Lower, 0.10, &steady, &noisy),
        Verdict::Unresolved
    );
    // The same noise under a wider bound resolves.
    assert_eq!(
        verdict(Better::Lower, 0.25, &noisy, &steady),
        Verdict::Within
    );
    // One run a side has no spread to speak of.
    assert_eq!(
        verdict(Better::Lower, 0.10, &[100.0], &[150.0]),
        Verdict::Regressed
    );
}
