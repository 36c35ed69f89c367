//! Runs one workload through the `Driver` front door and collects the raw
//! samples every end-to-end metric is computed from, checking the
//! engine's answers against the generated ground truth as it goes.

use crate::procfs;
use crate::workloads::{self, Input, Plan, Workload, PACED_EVERY, SOURCES};
use approxiot_core::Confidence;
use approxiot_runtime::{
    Driver, EngineKind, PipelineOptions, QuerySet, QuerySpec, RunReport, WindowResult,
};
use std::time::{Duration, Instant};

/// Everything measured in one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Raw {
    /// Seconds per set-up (input generation + `Topology` build +
    /// `Driver::new`).
    pub setup_s: Vec<f64>,
    /// Nanoseconds per generated item, per set-up.
    pub generate_ns_per_item: Vec<f64>,
    /// Per measured repetition: seconds from the first push to `finish()`
    /// returning.
    pub rep_wall_s: Vec<f64>,
    /// Per measured repetition: seconds spent inside `push_interval`.
    pub rep_push_s: Vec<f64>,
    /// Per measured repetition: seconds `finish()` took — how far the
    /// consumers lagged the producer when the input ended.
    pub rep_finish_s: Vec<f64>,
    /// Process CPU seconds over the measured repetitions.
    pub cpu_s: f64,
    /// Source items pushed over the measured repetitions.
    pub items: u64,
    /// Source items the root never counted (`source_items − Σ count_hat`).
    pub lost_items: f64,
    /// Items the root rejected as late.
    pub dropped_late: u64,
    /// Windows answered over the measured repetitions.
    pub windows: u64,
    /// Windows whose 95 % bound covers the true sum.
    pub covered: u64,
    /// Per answered window: `|estimate − truth| / |truth|`.
    pub rel_errors: Vec<f64>,
    /// Item latency timed by the caller, ms. Sim: the length of each
    /// `push_interval` call, which returns once the root has ingested the
    /// interval. Drains: from each interval's push to `finish()`
    /// returning, where every answer arrives.
    pub item_latency_ms: Vec<f64>,
    /// Item latency as the engine reports it, source stamp to root ingest
    /// (the open-loop workload only).
    pub engine_latency: Option<EngineLatency>,
    /// Milliseconds from the moment a window's result could first exist
    /// to the caller holding it (see `README.md` for the moment each
    /// workload uses).
    pub result_lag_ms: Vec<f64>,
    /// Wire bytes per hop over the measured repetitions.
    pub hop_bytes: Vec<u64>,
    /// Milliseconds the open-loop generator ran behind its schedule, per
    /// interval.
    pub gen_late_ms: Vec<f64>,
    /// Every correctness check that failed, one line each.
    pub failures: Vec<String>,
}

/// `RunReport::latency`, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineLatency {
    /// The median.
    pub p50_ms: f64,
    /// The 95th percentile.
    pub p95_ms: f64,
    /// Items the engine sampled (it keeps the first 500 000 the root
    /// ingests).
    pub samples: u64,
}

fn queries() -> QuerySet {
    QuerySet::new().with(QuerySpec::Sum)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A ready driver and the instant taken just before `Driver::new`: the
/// pipeline's epoch, to within the microseconds `Driver::new` needs to
/// reach it.
fn new_driver(plan: &Plan, topology_seed: u64) -> (Driver, Instant) {
    let kind = match plan.workload {
        Workload::SimAccuracy => EngineKind::Sim,
        _ => EngineKind::Pipeline(PipelineOptions::default()),
    };
    let topology = workloads::topology(plan.workload, topology_seed);
    let anchor = Instant::now();
    let driver =
        Driver::new(topology, queries(), kind).expect("the benchmark's topologies are valid");
    (driver, anchor)
}

/// Sets up `plan.setups` times — input generation, `Topology` build and
/// `Driver::new`, each timed as one sample — and returns the last input.
/// All of it happens before the first measured push.
fn set_up(plan: &Plan, seed: u64, raw: &mut Raw) -> Input {
    let mut input = None;
    for _ in 0..plan.setups.max(1) {
        // Free the previous input first: two alive at once would show in
        // `peak_rss_mb`.
        drop(input.take());
        let started = Instant::now();
        let generated = workloads::generate(plan, seed);
        let generate_time = started.elapsed();
        drop(new_driver(plan, seed));
        raw.setup_s.push(secs(started.elapsed()));
        raw.generate_ns_per_item
            .push(generate_time.as_nanos() as f64 / generated.items as f64);
        input = Some(generated);
    }
    input.expect("at least one set-up")
}

/// Runs `plan` at `seed` and returns the raw samples.
pub fn run(plan: &Plan, seed: u64) -> Raw {
    let mut raw = Raw::default();
    let input = set_up(plan, seed, &mut raw);
    match plan.workload {
        Workload::WhsPaced => run_paced(plan, seed, &input, &mut raw),
        Workload::SimAccuracy => run_sim(plan, seed, &input, &mut raw),
        _ => run_drain(plan, seed, &input, &mut raw),
    }
    raw
}

/// Closed loop: push a repetition's intervals as fast as `push_interval`
/// returns, then `finish()`.
fn run_drain(plan: &Plan, seed: u64, input: &Input, raw: &mut Raw) {
    let mut pushed_at = Vec::with_capacity(plan.intervals);
    for rep in 0..plan.warmup_reps + plan.reps {
        let measured = rep >= plan.warmup_reps;
        // A fresh topology seed per repetition: the accuracy samples of
        // one run then come from independent sampling decisions.
        let (mut driver, anchor) = new_driver(plan, seed.wrapping_add(rep as u64));
        let cpu_before = procfs::cpu_seconds();
        let started = Instant::now();
        let mut push = Duration::ZERO;
        pushed_at.clear();
        for i in 0..plan.intervals {
            let before = Instant::now();
            driver
                .push_interval(input.interval(i))
                .expect("the pipeline stays open until finish()");
            push += before.elapsed();
            pushed_at.push(before);
        }
        let input_ended = Instant::now();
        let report = driver.finish();
        let finished = Instant::now();
        let cpu = procfs::cpu_seconds() - cpu_before;
        if !measured {
            continue;
        }
        raw.cpu_s += cpu;
        raw.rep_wall_s.push(secs(finished - started));
        raw.rep_push_s.push(secs(push));
        raw.rep_finish_s.push(secs(finished - input_ended));
        // Closed loop: the producer outruns the consumers, so the engine's
        // source-to-root latency measures a backlog that differs from run
        // to run by half its size. Every answer arrives at the final
        // flush; what a caller sees is how long an interval, and a
        // window, waited for `finish()` to return.
        raw.item_latency_ms
            .extend(pushed_at.iter().map(|at| ms(finished - *at)));
        raw.result_lag_ms.extend(report.results.iter().map(|r| {
            let nominal_end = anchor + Duration::from_nanos(r.end_nanos);
            ms(finished.saturating_duration_since(nominal_end))
        }));
        check_report(plan, input, &report, raw);
    }
}

/// Open loop: one interval is due every [`PACED_EVERY`], whatever the
/// pipeline does; results are polled after every push.
fn run_paced(plan: &Plan, seed: u64, input: &Input, raw: &mut Raw) {
    let (mut driver, anchor) = new_driver(plan, seed);
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    let mut push = Duration::ZERO;
    let mut polled = 0usize;
    for i in 0..plan.intervals {
        let due = started + PACED_EVERY * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let before = Instant::now();
        raw.gen_late_ms
            .push(ms(before.saturating_duration_since(due)));
        driver
            .push_interval(input.interval(i))
            .expect("the pipeline stays open until finish()");
        push += before.elapsed();
        for result in driver.poll() {
            let nominal_end = anchor + Duration::from_nanos(result.end_nanos);
            if polled >= plan.discard_windows {
                raw.result_lag_ms
                    .push(ms(Instant::now().saturating_duration_since(nominal_end)));
            }
            polled += 1;
        }
    }
    let input_ended = Instant::now();
    let report = driver.finish();
    let finished = Instant::now();
    raw.cpu_s = procfs::cpu_seconds() - cpu_before;
    raw.rep_wall_s.push(secs(finished - started));
    raw.rep_push_s.push(secs(push));
    raw.rep_finish_s.push(secs(finished - input_ended));
    record_engine_latency(&report, raw);
    check_report(plan, input, &report, raw);
    if raw.result_lag_ms.is_empty() {
        raw.failures
            .push("no window was answered while the input was still arriving".into());
    }
}

/// The accuracy engine: every repetition replays the same windows under a
/// new topology seed. A push returns once the root has ingested the
/// interval and `poll()` then hands over the window that interval closed,
/// so the push time is the item latency and push + poll the result lag.
fn run_sim(plan: &Plan, seed: u64, input: &Input, raw: &mut Raw) {
    let mut reference: Option<RunReport> = None;
    for rep in 0..plan.warmup_reps + plan.reps {
        // The warm-up repetition runs the first measured repetition's
        // seed: two runs of one seed in one process must agree bit for
        // bit.
        let measured = rep >= plan.warmup_reps;
        let topology_seed = seed.wrapping_add(rep.saturating_sub(plan.warmup_reps) as u64);
        let (mut driver, _) = new_driver(plan, topology_seed);
        let cpu_before = procfs::cpu_seconds();
        let started = Instant::now();
        let mut push = Duration::ZERO;
        for i in 0..plan.intervals {
            let before = Instant::now();
            driver
                .push_interval(input.interval(i))
                .expect("the sim engine never closes");
            let pushed = before.elapsed();
            let closed = driver.poll();
            if measured {
                push += pushed;
                raw.item_latency_ms.push(ms(pushed));
                if !closed.is_empty() {
                    raw.result_lag_ms.push(ms(before.elapsed()));
                }
            }
        }
        let input_ended = Instant::now();
        let report = driver.finish();
        let finished = Instant::now();
        let cpu = procfs::cpu_seconds() - cpu_before;
        if !measured {
            reference = Some(report);
            continue;
        }
        if let Some(first) = reference.take() {
            if !same_answers(&first, &report) {
                raw.failures
                    .push("two sim runs at one seed gave different estimates or bytes".into());
            }
        }
        raw.cpu_s += cpu;
        raw.rep_wall_s.push(secs(finished - started));
        raw.rep_push_s.push(secs(push));
        raw.rep_finish_s.push(secs(finished - input_ended));
        check_report(plan, input, &report, raw);
    }
}

fn same_answers(a: &RunReport, b: &RunReport) -> bool {
    a.bytes.hops() == b.bytes.hops()
        && a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|(x, y)| {
            x.window == y.window
                && x.estimate.value.to_bits() == y.estimate.value.to_bits()
                && x.estimate.variance.to_bits() == y.estimate.variance.to_bits()
        })
}

fn record_engine_latency(report: &RunReport, raw: &mut Raw) {
    if report.latency.count == 0 {
        raw.failures
            .push("the pipeline reported no item latency samples".into());
    }
    raw.engine_latency = Some(EngineLatency {
        p50_ms: ms(report.latency.p50),
        p95_ms: ms(report.latency.p95),
        samples: report.latency.count as u64,
    });
}

/// Checks one repetition's report against the generated truth and folds
/// its counts into `raw`.
fn check_report(plan: &Plan, input: &Input, report: &RunReport, raw: &mut Raw) {
    let expected = plan.items_per_rep();
    if report.source_items != expected {
        raw.failures.push(format!(
            "engine counted {} source items, {expected} were pushed",
            report.source_items
        ));
    }
    raw.items += report.source_items;
    let counted: f64 = report.results.iter().map(|r| r.count_hat).sum();
    // WHS and native COUNT are exact, so any shortfall is data the root
    // rejected as late or never saw.
    let lost = report.source_items as f64 - counted;
    raw.lost_items += lost.abs();
    if lost.abs() > 1e-9 * report.source_items as f64 {
        raw.failures.push(format!(
            "Σ count_hat = {counted}, {} source items were pushed",
            report.source_items
        ));
    }
    let late: u64 = report.results.iter().map(|r| r.dropped_late).sum();
    raw.dropped_late += late;
    if late > 0 {
        raw.failures
            .push(format!("the root dropped {late} items as late"));
    }
    if report.results.is_empty() {
        raw.failures.push("no window was answered".into());
    }
    raw.windows += report.results.len() as u64;
    if raw.hop_bytes.is_empty() {
        raw.hop_bytes = vec![0; report.bytes.hops().len()];
    }
    for (total, hop) in raw.hop_bytes.iter_mut().zip(report.bytes.hops()) {
        *total += hop;
    }
    match window_truths(plan, input, &report.results) {
        Ok(truths) => {
            for (result, truth) in report.results.iter().zip(truths) {
                let error = (result.estimate.value - truth).abs();
                raw.rel_errors.push(error / truth.abs());
                // The slack absorbs summation-order round-off on the
                // native path, whose bound is exactly zero.
                if error <= result.error_bound(Confidence::P95) + 1e-9 * truth.abs() {
                    raw.covered += 1;
                }
            }
        }
        Err(why) => raw.failures.push(why),
    }
}

/// The true value sum of every answered window, in result order.
///
/// On the sim engine interval `t` is window `t`. On the pipeline the
/// engine stamps each frame as it is pushed, so which window a frame
/// lands in is the engine's business — but stamps rise with push order
/// and COUNT is exact, so window `w`'s `count_hat` says how many
/// consecutive frames of the push sequence it holds.
fn window_truths(plan: &Plan, input: &Input, results: &[WindowResult]) -> Result<Vec<f64>, String> {
    if plan.workload == Workload::SimAccuracy {
        return results
            .iter()
            .map(|r| {
                let t = r.window as usize;
                if t < plan.intervals {
                    Ok(input.frame_sums[t].iter().sum())
                } else {
                    Err(format!("window {t} answered, {} pushed", plan.intervals))
                }
            })
            .collect();
    }
    let frame = plan.frame_items as f64;
    let mut next = 0usize;
    let mut truths = Vec::with_capacity(results.len());
    for result in results {
        let frames = (result.count_hat / frame).round();
        if (result.count_hat - frames * frame).abs() > 0.01 {
            return Err(format!(
                "window {} counts {} items: not a whole number of {}-item frames",
                result.window, result.count_hat, plan.frame_items
            ));
        }
        let end = next + frames as usize;
        if end > plan.intervals * SOURCES {
            return Err(format!(
                "windows hold more frames than the {} pushed",
                plan.intervals * SOURCES
            ));
        }
        truths.push(
            (next..end)
                .map(|f| input.frame_sum(f / SOURCES, f % SOURCES))
                .sum(),
        );
        next = end;
    }
    Ok(truths)
}
