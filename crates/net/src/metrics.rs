//! The bandwidth-saving rate of the bandwidth experiment (Figure 7).

/// Bandwidth saving rate of a sampled run against a native (unsampled) run:
/// `1 − sampled/native`, as plotted in the paper's Figure 7.
///
/// Returns `0.0` when the native byte count is zero.
///
/// # Examples
///
/// ```
/// use approxiot_net::bandwidth_saving;
///
/// assert_eq!(bandwidth_saving(100, 1000), 0.9); // 10% of bytes → 90% saved
/// assert_eq!(bandwidth_saving(1000, 1000), 0.0);
/// ```
pub fn bandwidth_saving(sampled_bytes: u64, native_bytes: u64) -> f64 {
    if native_bytes == 0 {
        0.0
    } else {
        (1.0 - sampled_bytes as f64 / native_bytes as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saving_rate_edges() {
        assert_eq!(bandwidth_saving(0, 100), 1.0);
        assert_eq!(bandwidth_saving(50, 100), 0.5);
        assert_eq!(bandwidth_saving(200, 100), 0.0, "clamped at zero");
        assert_eq!(bandwidth_saving(5, 0), 0.0);
    }
}
