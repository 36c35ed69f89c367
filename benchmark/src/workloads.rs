//! The five workloads: what each pushes, through which tree, how much.
//!
//! Everything here goes through the product's front door only
//! (`Topology`, `LayerSpec`, `Strategy`, `Batch::from_items`,
//! `StreamItem::with_meta`, `approxiot_workload::scenarios`), so a later
//! change that removes a layer twin cannot break the end-to-end runs.

use approxiot_core::{Batch, StratumId, StreamItem};
use approxiot_runtime::{LayerSpec, Strategy, Topology};
use approxiot_workload::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Sources of the paper tree (8 sources → 4 → 2 → root).
pub const SOURCES: usize = 8;
/// Strata every pipeline frame carries.
pub const STRATA: usize = 8;
/// The pipeline workloads' computation window.
pub const PIPELINE_WINDOW: Duration = Duration::from_millis(20);
/// The open-loop schedule: one interval is due this often.
pub const PACED_EVERY: Duration = Duration::from_millis(4);
/// Distinct source items generated per pipeline input (≈42 MB of
/// `StreamItem`s, well past the last-level cache): the frames are cycled,
/// and a pool that fitted the cache would make the source side cheaper
/// than any real source is.
const POOL_ITEMS: usize = 1 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, WHS at 10 %, 512-item frames.
    WhsDrain,
    /// Closed loop, no sampling.
    NativeDrain,
    /// Closed loop, WHS on two worker shards per edge node, 4096-item
    /// frames.
    WhsShardedDrain,
    /// Open loop at ≈7 % of saturation with hop delays.
    WhsPaced,
    /// The virtual-time accuracy engine.
    SimAccuracy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::WhsDrain,
        Workload::NativeDrain,
        Workload::WhsShardedDrain,
        Workload::WhsPaced,
        Workload::SimAccuracy,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WhsDrain => "whs-drain",
            Workload::NativeDrain => "native-drain",
            Workload::WhsShardedDrain => "whs-sharded-drain",
            Workload::WhsPaced => "whs-paced",
            Workload::SimAccuracy => "sim-accuracy",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the workloads that run on the threaded pipeline.
    pub fn is_pipeline(self) -> bool {
        self != Workload::SimAccuracy
    }
}

/// How much one run of a workload does. Sizes are fixed functions of
/// `--seconds` (calibrated on a 2-core host so that the measured part
/// takes about that long), not of elapsed time: parent and change then
/// do identical work, and `sim-accuracy`'s metrics repeat exactly at a
/// fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Reduced sizes for the benchmark's own tests; not comparable.
    pub quick: bool,
    /// Discarded repetitions before the measured ones (first touch of the
    /// partition logs' fresh pages is 2.5–3× slower).
    pub warmup_reps: usize,
    /// Measured repetitions, each on a fresh `Driver`.
    pub reps: usize,
    /// Intervals pushed per repetition (windows, on `sim-accuracy`).
    pub intervals: usize,
    /// Items per source frame (items per window, on `sim-accuracy`).
    pub frame_items: usize,
    /// Distinct intervals generated; a repetition cycles through them.
    pub pool_intervals: usize,
    /// Windows at the start of the open-loop run left out of the result
    /// lag (threads and buffers are still warming up).
    pub discard_windows: usize,
    /// Times the whole set-up is done and timed, at least.
    pub setups: usize,
}

impl Plan {
    /// The plan for a run measuring about `seconds` seconds.
    pub fn new(workload: Workload, seconds: u64, quick: bool) -> Plan {
        let seconds = seconds.max(1) as usize;
        // One repetition of a drain is sized to ≈1 s, so `seconds` buys
        // one warm-up and `seconds - 1` measured repetitions.
        let drain_reps = if quick { 2 } else { (seconds - 1).max(3) };
        let (intervals, frame_items) = match (workload, quick) {
            (Workload::WhsDrain, false) => (4000, 512),
            (Workload::WhsDrain, true) => (300, 512),
            (Workload::NativeDrain, false) => (2000, 512),
            (Workload::NativeDrain, true) => (150, 512),
            (Workload::WhsShardedDrain, false) => (500, 4096),
            (Workload::WhsShardedDrain, true) => (40, 4096),
            (Workload::WhsPaced, false) => (seconds * 250, 512),
            // Small frames: an unoptimised build must keep up too.
            (Workload::WhsPaced, true) => (375, 128),
            (Workload::SimAccuracy, false) => (64, 24_000),
            (Workload::SimAccuracy, true) => (16, 12_000),
        };
        let pool_intervals = match workload {
            Workload::SimAccuracy => intervals,
            _ if quick => 16,
            _ => POOL_ITEMS / (SOURCES * frame_items),
        };
        let (warmup_reps, reps) = match workload {
            Workload::WhsPaced => (0, 1),
            Workload::SimAccuracy if quick => (1, 40),
            Workload::SimAccuracy => (1, 30 * seconds),
            _ => (1, drain_reps),
        };
        Plan {
            workload,
            quick,
            warmup_reps,
            reps,
            intervals,
            frame_items,
            pool_intervals,
            discard_windows: if quick { 5 } else { 25 },
            setups: if quick { 2 } else { 9 },
        }
    }

    /// Source items one repetition pushes.
    pub fn items_per_rep(&self) -> u64 {
        let per_interval = match self.workload {
            Workload::SimAccuracy => self.frame_items,
            _ => SOURCES * self.frame_items,
        };
        (self.intervals * per_interval) as u64
    }
}

/// A generated input: the intervals a repetition cycles through and the
/// exact value sum of every source frame (the ground truth).
#[derive(Debug, Clone)]
pub struct Input {
    /// `intervals[k][s]` is source `s`'s frame of pool interval `k`.
    pub intervals: Vec<Vec<Batch>>,
    /// `frame_sums[k][s]`: the sum of that frame's values.
    pub frame_sums: Vec<Vec<f64>>,
    /// Items generated.
    pub items: u64,
}

impl Input {
    /// The interval pushed at position `i` of a repetition.
    pub fn interval(&self, i: usize) -> &[Batch] {
        &self.intervals[i % self.intervals.len()]
    }

    /// The value sum of the frame source `s` pushes at position `i`.
    pub fn frame_sum(&self, i: usize, s: usize) -> f64 {
        self.frame_sums[i % self.frame_sums.len()][s]
    }
}

/// Generates a workload's input from the seed: the same seed gives the
/// same items.
pub fn generate(plan: &Plan, seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let intervals: Vec<Vec<Batch>> = if plan.workload == Workload::SimAccuracy {
        // The paper's Fig. 5(a) Gaussian mix, one interval per window,
        // spread over the sources the way the repo's harness does it.
        let window = Duration::from_secs(1);
        let mut mix = scenarios::gaussian_mix(plan.frame_items as f64, window);
        (0..plan.pool_intervals as u64)
            .map(|t| scenarios::split_interval(mix.next_interval(&mut rng), t, window, SOURCES))
            .collect()
    } else {
        // Every frame carries all eight strata, the order rotated per
        // source so no two sources send the same stratum sequence. Strata
        // 0–3 and 4–7 reuse the paper's four Gaussians: values spanning
        // four orders of magnitude are what make stratified sampling
        // matter.
        let dists = scenarios::gaussian_values();
        (0..plan.pool_intervals)
            .map(|k| {
                (0..SOURCES)
                    .map(|s| {
                        let items = (0..plan.frame_items)
                            .map(|i| {
                                let stratum = (i + s) % STRATA;
                                StreamItem::with_meta(
                                    StratumId::new(stratum as u32),
                                    dists[stratum % dists.len()].sample(&mut rng),
                                    (k * plan.frame_items + i) as u64,
                                    0,
                                )
                            })
                            .collect();
                        Batch::from_items(items)
                    })
                    .collect()
            })
            .collect()
    };
    let frame_sums = intervals
        .iter()
        .map(|frames| frames.iter().map(Batch::value_sum).collect())
        .collect();
    let items = intervals
        .iter()
        .flatten()
        .map(|frame| frame.len() as u64)
        .sum();
    Input {
        intervals,
        frame_sums,
        items,
    }
}

/// The paper tree for a workload, seeded.
///
/// # Panics
///
/// Panics if the product rejects the benchmark's fixed fractions (they
/// are inside `(0, 1]`).
pub fn topology(workload: Workload, seed: u64) -> Topology {
    let ms = Duration::from_millis;
    let (leaf, mid) = match workload {
        Workload::WhsShardedDrain => (LayerSpec::new(4).workers(2), LayerSpec::new(2).workers(2)),
        Workload::WhsPaced => (
            LayerSpec::new(4).delay(ms(1)),
            LayerSpec::new(2).delay(ms(2)),
        ),
        _ => (LayerSpec::new(4), LayerSpec::new(2)),
    };
    let builder = Topology::builder()
        .sources(SOURCES)
        .layer(leaf)
        .layer(mid)
        .seed(seed);
    let builder = match workload {
        Workload::NativeDrain => builder.strategy(Strategy::Native).overall_fraction(1.0),
        _ => builder.strategy(Strategy::whs()).overall_fraction(0.1),
    };
    let builder = match workload {
        Workload::SimAccuracy => builder.window(Duration::from_secs(1)),
        // A closed loop outruns the wall clock the root's watermark
        // follows: with the default lateness of zero the root rejects
        // most of a drain as late. An hour means nothing may be dropped
        // and every window answers at the final flush.
        // Item latency is 30–50 ms here, but a 2-core host stalls a node
        // thread for longer than that now and then; a quarter of a second
        // keeps such a stall from turning into rejected items.
        Workload::WhsPaced => builder
            .window(PIPELINE_WINDOW)
            .root_delay(ms(4))
            .allowed_lateness(ms(250)),
        _ => builder
            .window(PIPELINE_WINDOW)
            .allowed_lateness(Duration::from_secs(3600)),
    };
    builder
        .build()
        .expect("the benchmark's fractions are valid")
}
