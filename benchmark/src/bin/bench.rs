//! End-to-end runs through the product's front door.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0   one workload (the driver's form)
//! bench run [--seed N] [--seconds S] [--runs K] [--quick] [--out FILE]
//!                                                     every workload, one child process each
//! bench compare A.json B.json [--spec BENCHMARK.json] judge two `run` outputs by the bounds
//! ```

use approxiot_benchmark::cli::{whole_number, RunArgs};
use approxiot_benchmark::compare::{compare, render};
use approxiot_benchmark::json::Json;
use approxiot_benchmark::measure;
use approxiot_benchmark::report::{end_to_end, print_metrics, result_line, Metric};
use approxiot_benchmark::stats::Verdict;
use approxiot_benchmark::workloads::Workload;
use std::process::{Command, ExitCode};

/// Prefix of the line carrying what the result line has no room for
/// (sample counts, notes); `bench run` folds it into its output file.
const DETAIL_PREFIX: &str = "#detail ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// The driver's form: one workload in this process, so CPU time and peak
/// memory are that workload's alone.
fn run_one(args: &[String]) -> Result<bool, String> {
    let run = RunArgs::parse(args)?;
    if run.trace {
        return Err("--trace 1 is the `trace` binary's job (benchmark/run.sh picks it)".into());
    }
    let plan = run.plan();
    println!(
        "workload {}  seed {}  {} warm-up + {} measured repetitions of {} intervals  generator threads 1{}",
        plan.workload.name(),
        run.seed,
        plan.warmup_reps,
        plan.reps,
        plan.intervals,
        if plan.quick { "  QUICK SIZES: NOT COMPARABLE" } else { "" }
    );
    let raw = measure::run(&plan, run.seed);
    let metrics = end_to_end(&plan, &raw);
    print_metrics(&metrics);
    println!(
        "{:<40} {:>22} {:<6} n={}",
        "lost_item_share",
        raw.lost_items / raw.items as f64,
        "ratio",
        raw.rep_wall_s.len()
    );
    println!(
        "windows {}  dropped_late {}  hop_bytes {:?}",
        raw.windows, raw.dropped_late, raw.hop_bytes
    );
    for failure in &raw.failures {
        println!("FAILED CHECK: {failure}");
    }
    println!("{DETAIL_PREFIX}{}", detail(&metrics, &raw).to_line());
    let correct = raw.failures.is_empty();
    // An item the root never counted is a failed operation.
    let failed = raw.lost_items.ceil() as u64 + raw.dropped_late;
    println!("{}", result_line(correct, raw.items, failed, &metrics));
    Ok(correct)
}

fn detail(metrics: &[Metric], raw: &measure::Raw) -> Json {
    Json::obj([
        ("repetitions", Json::from(raw.rep_wall_s.len())),
        ("setups", Json::from(raw.setup_s.len())),
        ("windows", Json::from(raw.windows)),
        (
            "samples",
            Json::obj(metrics.iter().map(|m| (m.name, Json::from(m.samples)))),
        ),
        (
            "notes",
            Json::obj(
                metrics
                    .iter()
                    .filter(|m| !m.note.is_empty())
                    .map(|m| (m.name, Json::from(m.note.as_str()))),
            ),
        ),
        (
            "failures",
            Json::Arr(
                raw.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ])
}

/// The first line of a command's output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, each in a child process of its own, `--runs` times at
/// consecutive seeds.
fn run_all(args: &[String]) -> Result<bool, String> {
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut runs = 1u64;
    let mut quick = false;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || whole_number(flag, value);
        match flag.as_str() {
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--runs" => runs = number()?.max(1),
            "--out" => out_path = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut run_docs = Vec::new();
    for run_seed in seed..seed + runs {
        let mut workloads = Vec::new();
        for workload in Workload::ALL {
            let mut child = Command::new(&exe);
            child.args(["--workload", workload.name()]);
            child.args(["--seed", &run_seed.to_string()]);
            child.args(["--seconds", &seconds.to_string()]);
            child.args(["--trace", "0"]);
            if quick {
                child.arg("--quick");
            }
            // `output()` waits for the child to end.
            let output = child
                .output()
                .map_err(|e| format!("{}: spawn: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let mut result = stdout
                .lines()
                .last()
                .and_then(|line| Json::parse(line).ok())
                .ok_or_else(|| format!("{}: no result line", workload.name()))?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct && output.status.success();
            let detail = stdout
                .lines()
                .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
                .and_then(|text| Json::parse(text).ok());
            if let (Json::Obj(pairs), Some(detail)) = (&mut result, detail) {
                pairs.push(("detail".to_string(), detail));
            }
            workloads.push((workload.name(), result));
            println!();
        }
        run_docs.push(Json::obj([
            ("seed", Json::from(run_seed)),
            ("workloads", Json::obj(workloads)),
        ]));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = Json::obj([
        ("tool", Json::from("approxiot-benchmark bench run")),
        ("comparable", Json::from(!quick)),
        (
            "environment",
            Json::obj([
                ("nproc", Json::from(nproc)),
                ("rustc", Json::from(first_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::from(first_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seconds", Json::from(seconds)),
                ("generator_threads", Json::from(1u64)),
            ]),
        ),
        ("runs", Json::Arr(run_docs)),
    ]);
    if let Some(path) = out_path {
        std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "{}",
        if all_correct {
            "every correctness check passed"
        } else {
            "A CORRECTNESS CHECK FAILED"
        }
    );
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [baseline, candidate] = files.as_slice() else {
        return Err("usage: bench compare A.json B.json [--spec BENCHMARK.json]".into());
    };
    let (baseline, candidate) = (read_json(baseline)?, read_json(candidate)?);
    for doc in [&baseline, &candidate] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            println!("warning: a side was run with --quick sizes; its numbers are not comparable");
        }
    }
    let rows = compare(&read_json(&spec_path)?, &baseline, &candidate)?;
    print!("{}", render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} within bound, {} regressed, {} unresolved",
        count(Verdict::Within),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}
