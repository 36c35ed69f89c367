//! From raw samples to named metrics, and the lines the benchmark prints.

use crate::json::Json;
use crate::measure::Raw;
use crate::procfs;
use crate::stats::{block_len, blocked_percentiles, median};
use crate::workloads::{Plan, Workload};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value, with every digit measured.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: u64,
    /// What the reader must know to interpret the value (which percentile
    /// the sample count supported, for one).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Name and unit of every end-to-end metric, in `BENCHMARK.json`'s order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("throughput_items_per_s", "1/s"),
    ("cpu_s_per_mitem", "s"),
    ("peak_rss_mb", "MiB"),
    ("delivered_item_share", "ratio"),
    ("item_latency_p50_ms", "ms"),
    ("item_latency_p95_ms", "ms"),
    ("result_lag_p50_ms", "ms"),
    ("result_lag_p95_ms", "ms"),
    ("sum_accuracy_pct", "%"),
    ("ci95_coverage", "ratio"),
    ("wan_bytes_per_item", "B"),
    ("setup_s", "s"),
];

/// Name and unit of every per-layer metric, in `BENCHMARK.json`'s order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("mq.codec.encode_ns_per_item", "ns"),
    ("mq.codec.decode_ns_per_item", "ns"),
    ("mq.log.append_ns_per_frame", "ns"),
    ("mq.consumer.poll_ns_per_frame", "ns"),
    ("mq.frames", "count"),
    ("mq.bytes_per_frame", "B"),
    ("mq.hop0_bytes", "B"),
    ("mq.hop1_bytes", "B"),
    ("mq.hop2_bytes", "B"),
    ("core.sampling.sample_ns_per_item", "ns"),
    ("core.sampling.items_in", "count"),
    ("core.sampling.items_out", "count"),
    ("core.sampling.keep_ratio", "ratio"),
    ("runtime.node.process_ns_per_item", "ns"),
    ("runtime.node.l0_items_out", "count"),
    ("runtime.node.l1_items_out", "count"),
    ("runtime.pool.process_ns_per_item", "ns"),
    ("runtime.pool.frames_out", "count"),
    ("runtime.root.ingest_ns_per_item", "ns"),
    ("runtime.root.close_ns_per_window", "ns"),
    ("runtime.root.windows", "count"),
    ("runtime.root.dropped_late", "count"),
    ("streams.window.insert_ns_per_frame", "ns"),
    ("streams.window.drain_ns_per_window", "ns"),
    ("runtime.engine.sim_push_ns_per_item", "ns"),
    ("runtime.engine.sim_finish_ns_per_window", "ns"),
    ("runtime.pipeline.push_ns_per_item", "ns"),
    ("runtime.pipeline.finish_wait_s", "s"),
    ("runtime.pipeline.walk_items_per_s", "1/s"),
    ("runtime.pipeline.parallel_speedup", "ratio"),
    ("runtime.pipeline.coordination_share", "ratio"),
    ("workload.generate_ns_per_item", "ns"),
    ("workload.gen_late_p99_ms", "ms"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("a metric of END_TO_END")
}

fn metric(name: &'static str, value: f64, samples: u64) -> Metric {
    Metric::new(name, unit_of(name), value, samples)
}

/// The twelve end-to-end metrics of one run, in [`END_TO_END`]'s order.
///
/// # Panics
///
/// Panics when the run measured no repetition at all (a plan always has
/// at least one).
pub fn end_to_end(plan: &Plan, raw: &Raw) -> Vec<Metric> {
    let reps = raw.rep_wall_s.len() as u64;
    let per_rep = plan.items_per_rep() as f64;
    let throughputs: Vec<f64> = raw.rep_wall_s.iter().map(|wall| per_rep / wall).collect();
    let items = raw.items as f64;

    let (latency_p50, latency_p95) = match raw.engine_latency {
        Some(engine) => {
            let note = format!("the engine's summary of {} items", engine.samples);
            (
                metric("item_latency_p50_ms", engine.p50_ms, engine.samples).noted(note.clone()),
                metric("item_latency_p95_ms", engine.p95_ms, engine.samples).noted(note),
            )
        }
        None => {
            // One sample per push, in push order.
            let block = block_len(plan.intervals);
            let p = blocked_percentiles(&raw.item_latency_ms, block, 95.0)
                .expect("item latency samples");
            (
                metric("item_latency_p50_ms", p.p50, p.n as u64)
                    .noted(format!("median over blocks of {block} pushes")),
                metric("item_latency_p95_ms", p.tail, p.n as u64).noted(format!(
                    "p{:.1}, median over blocks of {block} pushes",
                    p.tail_pct
                )),
            )
        }
    };

    // The sim closes one window per push but the first; the pipeline's
    // windows are too few per repetition to cut into blocks.
    let lag_block = match plan.workload {
        Workload::SimAccuracy => block_len(plan.intervals - 1),
        _ => raw.result_lag_ms.len(),
    };
    let lag = blocked_percentiles(&raw.result_lag_ms, lag_block, 95.0).expect("result lag samples");
    let mean_error = raw.rel_errors.iter().sum::<f64>() / raw.rel_errors.len().max(1) as f64;

    vec![
        metric(
            "throughput_items_per_s",
            median(&throughputs).expect("a measured repetition"),
            reps,
        ),
        metric("cpu_s_per_mitem", raw.cpu_s / (items / 1e6), reps),
        metric("peak_rss_mb", procfs::peak_rss_mb(), 1),
        metric("delivered_item_share", 1.0 - raw.lost_items / items, reps),
        latency_p50,
        latency_p95,
        metric("result_lag_p50_ms", lag.p50, lag.n as u64),
        metric("result_lag_p95_ms", lag.tail, lag.n as u64).noted(format!(
            "p{:.1} of {} samples, in blocks of {lag_block}",
            lag.tail_pct, lag.n
        )),
        metric("sum_accuracy_pct", 100.0 * (1.0 - mean_error), raw.windows)
            .noted(format!("sum_rel_error_pct = {}", 100.0 * mean_error)),
        metric(
            "ci95_coverage",
            raw.covered as f64 / raw.windows.max(1) as f64,
            raw.windows,
        ),
        metric(
            "wan_bytes_per_item",
            raw.hop_bytes.iter().skip(1).sum::<u64>() as f64 / items,
            reps,
        ),
        metric(
            "setup_s",
            median(&raw.setup_s).expect("a set-up"),
            raw.setup_s.len() as u64,
        ),
    ]
}

/// One line per metric: name, value, unit, sample count, note.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{:<40} {:>22} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The one JSON object a run ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
    .to_line()
}
