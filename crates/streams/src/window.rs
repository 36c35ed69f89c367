//! Tumbling windows and per-window buffering.
//!
//! ApproxIoT executes its query once per time interval as the computation
//! window slides (Algorithm 2, outer loop). The evaluation uses tumbling
//! windows of 0.5–4 seconds (Figures 8 and 9). [`TumblingWindow`] maps
//! timestamps to window indices; [`WindowBuffer`] accumulates values per
//! window and releases windows once the watermark passes their end.

use std::collections::BTreeMap;
use std::time::Duration;

/// Identifier of one tumbling window (its index on the time axis).
pub type WindowId = u64;

/// A fixed-size, non-overlapping window scheme.
///
/// # Examples
///
/// ```
/// use approxiot_streams::TumblingWindow;
/// use std::time::Duration;
///
/// let w = TumblingWindow::new(Duration::from_secs(1));
/// assert_eq!(w.index_of(1_500_000_000), 1); // 1.5 s → window 1
/// assert_eq!(w.start_of(1), 1_000_000_000);
/// assert_eq!(w.end_of(1), 2_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TumblingWindow {
    size_nanos: u64,
}

impl TumblingWindow {
    /// Creates a window scheme of the given size.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length window.
    pub fn new(size: Duration) -> Self {
        let size_nanos = size.as_nanos() as u64;
        assert!(size_nanos > 0, "window size must be positive");
        TumblingWindow { size_nanos }
    }

    /// Window length in nanoseconds.
    pub fn size_nanos(&self) -> u64 {
        self.size_nanos
    }

    /// Window length as a [`Duration`].
    pub fn size(&self) -> Duration {
        Duration::from_nanos(self.size_nanos)
    }

    /// The window containing `ts_nanos`.
    pub fn index_of(&self, ts_nanos: u64) -> WindowId {
        ts_nanos / self.size_nanos
    }

    /// Inclusive start of window `id`.
    pub fn start_of(&self, id: WindowId) -> u64 {
        id * self.size_nanos
    }

    /// Exclusive end of window `id`.
    pub fn end_of(&self, id: WindowId) -> u64 {
        (id + 1) * self.size_nanos
    }
}

/// Accumulates values per window and drains windows the watermark has
/// passed.
///
/// ## Allowed lateness
///
/// By default a window closes as soon as the watermark reaches its end,
/// and a value arriving for an already-drained window is **rejected** (and
/// counted in [`WindowBuffer::late_rejections`]) rather than silently
/// re-opening the window — re-opening would emit a second result for the
/// same window id. [`WindowBuffer::with_allowed_lateness`] relaxes the
/// policy for jitter-delayed arrivals: a window stays open (and accepts
/// stragglers) until the watermark passes `end + lateness`.
///
/// # Examples
///
/// ```
/// use approxiot_streams::{TumblingWindow, WindowBuffer};
/// use std::time::Duration;
///
/// let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
/// buf.insert(200_000_000, "a");        // window 0
/// buf.insert(1_100_000_000, "b");      // window 1
/// let closed = buf.drain_closed(1_000_000_000); // watermark at 1 s closes window 0
/// assert_eq!(closed, vec![(0, vec!["a"])]);
/// assert!(!buf.insert(500_000_000, "late")); // window 0 already emitted
/// assert_eq!(buf.late_rejections(), 1);
/// assert_eq!(buf.drain_all(), vec![(1, vec!["b"])]); // window 1 still open
/// ```
#[derive(Debug, Clone)]
pub struct WindowBuffer<T> {
    scheme: TumblingWindow,
    windows: BTreeMap<WindowId, Vec<T>>,
    allowed_lateness_nanos: u64,
    /// High-water of every `drain_closed` watermark seen so far.
    watermark_nanos: u64,
    late_rejections: u64,
}

impl<T> WindowBuffer<T> {
    /// Creates an empty buffer over `scheme` with zero allowed lateness.
    pub fn new(scheme: TumblingWindow) -> Self {
        WindowBuffer {
            scheme,
            windows: BTreeMap::new(),
            allowed_lateness_nanos: 0,
            watermark_nanos: 0,
            late_rejections: 0,
        }
    }

    /// Keeps each window open for `lateness` past its end, so arrivals
    /// delayed in flight (link jitter) still land in their window.
    pub fn with_allowed_lateness(mut self, lateness: Duration) -> Self {
        self.allowed_lateness_nanos = lateness.as_nanos() as u64;
        self
    }

    /// The window scheme.
    pub fn scheme(&self) -> TumblingWindow {
        self.scheme
    }

    /// The configured allowed lateness.
    pub fn allowed_lateness(&self) -> Duration {
        Duration::from_nanos(self.allowed_lateness_nanos)
    }

    /// Returns `true` while the window containing `ts_nanos` still accepts
    /// values — the watermark has not yet passed its end plus the allowed
    /// lateness.
    pub fn accepts(&self, ts_nanos: u64) -> bool {
        let close_at = self
            .scheme
            .end_of(self.scheme.index_of(ts_nanos))
            .saturating_add(self.allowed_lateness_nanos);
        close_at > self.watermark_nanos
    }

    /// Files `value` under the window containing `ts_nanos`. Returns
    /// `false` (dropping the value and counting a late rejection) when
    /// that window was already closed by an earlier watermark.
    pub fn insert(&mut self, ts_nanos: u64, value: T) -> bool {
        match self.window_mut(ts_nanos) {
            Some(values) => {
                values.push(value);
                true
            }
            None => false,
        }
    }

    /// The values buffered for the window containing `ts_nanos` (opening
    /// it empty if need be), for callers that fold arrivals into what the
    /// window already holds instead of appending one value each. `None`,
    /// counting a late rejection, when that window was already closed.
    pub fn window_mut(&mut self, ts_nanos: u64) -> Option<&mut Vec<T>> {
        if !self.accepts(ts_nanos) {
            self.late_rejections += 1;
            return None;
        }
        Some(
            self.windows
                .entry(self.scheme.index_of(ts_nanos))
                .or_default(),
        )
    }

    /// Number of values rejected for arriving after their window closed.
    pub fn late_rejections(&self) -> u64 {
        self.late_rejections
    }

    /// Removes and returns every window whose end (plus the allowed
    /// lateness) is at or before `watermark_nanos`, in window order.
    pub fn drain_closed(&mut self, watermark_nanos: u64) -> Vec<(WindowId, Vec<T>)> {
        self.watermark_nanos = self.watermark_nanos.max(watermark_nanos);
        let closed_ids: Vec<WindowId> = self
            .windows
            .keys()
            .copied()
            .take_while(|&id| {
                self.scheme
                    .end_of(id)
                    .saturating_add(self.allowed_lateness_nanos)
                    <= watermark_nanos
            })
            .collect();
        closed_ids
            .into_iter()
            .map(|id| (id, self.windows.remove(&id).unwrap_or_default()))
            .collect()
    }

    /// Removes and returns every window regardless of the watermark (final
    /// flush at shutdown).
    pub fn drain_all(&mut self) -> Vec<(WindowId, Vec<T>)> {
        std::mem::take(&mut self.windows).into_iter().collect()
    }

    /// Total buffered values across windows.
    pub fn len(&self) -> usize {
        self.windows.values().map(Vec::len).sum()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_rejected() {
        TumblingWindow::new(Duration::ZERO);
    }

    #[test]
    fn index_boundaries_are_half_open() {
        let w = TumblingWindow::new(Duration::from_secs(1));
        assert_eq!(w.index_of(0), 0);
        assert_eq!(w.index_of(SEC - 1), 0);
        assert_eq!(w.index_of(SEC), 1);
        assert_eq!(w.size(), Duration::from_secs(1));
    }

    #[test]
    fn start_end_are_consistent() {
        let w = TumblingWindow::new(Duration::from_millis(500));
        for id in [0u64, 1, 7, 100] {
            assert_eq!(w.index_of(w.start_of(id)), id);
            assert_eq!(w.index_of(w.end_of(id)), id + 1);
        }
    }

    #[test]
    fn buffer_groups_by_window() {
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        buf.insert(0, 1);
        buf.insert(SEC / 2, 2);
        buf.insert(SEC + 1, 3);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.drain_all().len(), 2);
    }

    #[test]
    fn drain_closed_respects_watermark() {
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        buf.insert(0, "w0");
        buf.insert(SEC, "w1");
        buf.insert(2 * SEC, "w2");
        // Watermark mid-window-1: only window 0 closes.
        let closed = buf.drain_closed(SEC + SEC / 2);
        assert_eq!(closed, vec![(0, vec!["w0"])]);
        // Watermark at 3 s closes windows 1 and 2, in order.
        let closed = buf.drain_closed(3 * SEC);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, 1);
        assert_eq!(closed[1].0, 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn drain_closed_on_empty_buffer() {
        let mut buf: WindowBuffer<u8> =
            WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        assert!(buf.drain_closed(u64::MAX).is_empty());
    }

    #[test]
    fn drain_all_flushes_everything() {
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        buf.insert(0, 1);
        buf.insert(10 * SEC, 2);
        let all = buf.drain_all();
        assert_eq!(all.len(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn late_inserts_are_rejected_and_counted() {
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        assert!(buf.insert(100, "w0"));
        assert_eq!(buf.drain_closed(SEC).len(), 1);
        // Window 0 has been emitted; a straggler must not re-open it.
        assert!(!buf.insert(200, "late"));
        assert_eq!(buf.late_rejections(), 1);
        assert!(buf.is_empty(), "rejected value not buffered");
        assert!(buf.drain_all().is_empty(), "no duplicate window 0 result");
    }

    #[test]
    fn allowed_lateness_keeps_windows_open_for_stragglers() {
        let lateness = Duration::from_millis(300);
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)))
            .with_allowed_lateness(lateness);
        assert_eq!(buf.allowed_lateness(), lateness);
        buf.insert(100, "on-time");
        // Watermark inside the lateness horizon: window 0 stays open...
        assert!(buf.drain_closed(SEC + 200_000_000).is_empty());
        assert!(buf.accepts(500));
        assert!(buf.insert(500, "straggler"), "within allowed lateness");
        // ...and closes (with the straggler) once the horizon passes.
        let closed = buf.drain_closed(SEC + 300_000_000);
        assert_eq!(closed, vec![(0, vec!["on-time", "straggler"])]);
        assert!(!buf.accepts(900), "past end + lateness");
        assert!(!buf.insert(900, "too-late"));
        assert_eq!(buf.late_rejections(), 1);
    }

    #[test]
    fn window_mut_folds_into_the_open_window() {
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        buf.window_mut(100).expect("window 0 is open").push(1);
        buf.window_mut(200).expect("still open")[0] += 1;
        assert_eq!(buf.drain_closed(SEC), vec![(0, vec![2])]);
        assert!(buf.window_mut(300).is_none(), "window 0 already closed");
        assert_eq!(buf.late_rejections(), 1);
    }

    #[test]
    fn watermark_high_water_is_monotonic() {
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        buf.drain_closed(3 * SEC);
        // A regressing watermark must not re-admit closed windows.
        buf.drain_closed(SEC);
        assert!(!buf.insert(2 * SEC + 1, "w2"));
        assert_eq!(buf.late_rejections(), 1);
        assert!(buf.insert(3 * SEC + 1, "w3"));
    }

    #[test]
    fn empty_windows_are_not_materialised() {
        // A gap in arrivals produces no empty window entries.
        let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
        buf.insert(0, 1);
        buf.insert(5 * SEC, 2);
        let closed = buf.drain_closed(10 * SEC);
        assert_eq!(
            closed.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 5]
        );
    }
}
