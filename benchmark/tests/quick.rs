//! Runs the built binaries at `--quick` sizes: every workload end to end,
//! the traced walk against the engine, and `run` + `compare`.
//!
//! Quick numbers are not comparable with anything; these tests only
//! check that the answers are right and the outputs well-formed.

use approxiot_benchmark::json::Json;
use approxiot_benchmark::report::{END_TO_END, PER_LAYER};
use approxiot_benchmark::workloads::Workload;
use std::process::{Command, Output};

const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        // The tracer writes under `out/` of the directory it runs in.
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the binary starts")
}

/// The last line of a successful run's output, parsed.
fn result_of(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

fn assert_result(result: &Json, table: &[(&str, &str)]) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected);
    for ((name, entry), (_, unit)) in metrics.iter().zip(table) {
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{name}"
        );
        let value = entry.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
    }
}

#[test]
fn every_workload_runs_end_to_end_and_answers_correctly() {
    for workload in Workload::ALL {
        let output = run(
            BENCH,
            &[
                "--workload",
                workload.name(),
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--quick",
            ],
        );
        let result = result_of(&output);
        assert_result(&result, &END_TO_END);
        let metrics = result.get("metrics").expect("metrics");
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect("a value")
        };
        // Nothing may be lost, and no end-to-end metric may read zero.
        assert_eq!(value("delivered_item_share"), 1.0, "{}", workload.name());
        for (name, _) in END_TO_END {
            assert!(value(name) > 0.0, "{}: {name} is zero", workload.name());
        }
        if workload == Workload::NativeDrain {
            assert_eq!(value("ci95_coverage"), 1.0, "no sampling, no error");
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("NOT COMPARABLE"), "quick output is flagged");
    }
}

#[test]
fn traced_walk_of_whs_drain_moves_the_engines_bytes() {
    let output = run(
        TRACE,
        &[
            "--workload",
            "whs-drain",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--quick",
        ],
    );
    // `correct` covers it: the walk's per-hop bytes equal the engine's
    // RunReport::bytes and its Σ count_hat equals the items pushed.
    let result = result_of(&output);
    assert_result(&result, &PER_LAYER);
    let value = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("a value")
    };
    // 300 intervals × 8 frames × 512 items, each a v2 frame of 23 header
    // bytes + 28 per item: hop 0 is known in closed form.
    assert_eq!(value("mq.hop0_bytes"), 300.0 * 8.0 * (23.0 + 512.0 * 28.0));
    assert!(value("mq.hop1_bytes") < value("mq.hop0_bytes"));
    assert!(value("mq.hop2_bytes") < value("mq.hop1_bytes"));
    assert_eq!(value("runtime.root.dropped_late"), 0.0);
    assert_eq!(
        value("runtime.pool.frames_out"),
        0.0,
        "whs-drain samples inline"
    );
    assert!(value("core.sampling.keep_ratio") > 0.4 && value("core.sampling.keep_ratio") < 0.5);

    let spans = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/trace-whs-drain.json"
    ))
    .expect("the span file");
    let spans = Json::parse(&spans).expect("the span file parses");
    let rows = spans.get("spans").and_then(Json::as_arr).expect("spans");
    // Every span but the intervals and the final flush has a parent that
    // is an interval span of the same interval id.
    let field = |row: &Json, i: usize| row.as_arr().expect("a row")[i].as_f64().expect("a number");
    let mut children = 0;
    for row in rows {
        let parent = field(row, 3);
        if parent >= 0.0 {
            let parent_row = &rows[parent as usize];
            assert_eq!(field(parent_row, 0), 0.0, "parents are interval spans");
            assert_eq!(field(parent_row, 4), field(row, 4), "one interval, one id");
            assert!(field(row, 1) >= field(parent_row, 1) && field(row, 2) <= field(parent_row, 2));
            children += 1;
        }
    }
    assert!(children > 300 * 16, "{children} child spans");
}

#[test]
fn unknown_workloads_and_flags_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"][..],
        &["--workload", "whs-drain", "--bogus", "1"][..],
    ] {
        for exe in [BENCH, TRACE] {
            let output = run(exe, args);
            assert!(!output.status.success(), "{args:?}");
            assert!(output.stdout.is_empty(), "{args:?}: printed a result");
        }
    }
}

#[test]
fn run_writes_a_file_that_compare_reads_back_as_identical() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).expect("out/");
    let path = format!("{dir}/quick-run.json");
    let started = std::time::Instant::now();
    let output = run(BENCH, &["run", "--seed", "3", "--quick", "--out", &path]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stdout)
    );
    // The whole quick set is sized to stay under ten seconds optimised;
    // an unoptimised test build gets some slack.
    assert!(started.elapsed().as_secs() < 60, "{:?}", started.elapsed());
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("the output file"))
        .expect("the output file parses");
    assert_eq!(doc.get("comparable").and_then(Json::as_bool), Some(false));
    let environment = doc.get("environment").expect("environment");
    for key in ["nproc", "rustc", "commit", "seconds", "generator_threads"] {
        assert!(environment.get(key).is_some(), "environment.{key}");
    }
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].get("seed").and_then(Json::as_f64), Some(3.0));
    for workload in Workload::ALL {
        let entry = runs[0]
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .expect("every workload");
        let detail = entry.get("detail").expect("sample counts");
        assert!(detail.get("repetitions").is_some() && detail.get("samples").is_some());
    }

    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let output = run(BENCH, &["compare", &path, &path, "--spec", spec]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("not comparable"), "quick files are flagged");
    assert!(
        stdout.contains("60 within bound, 0 regressed, 0 unresolved"),
        "{stdout}"
    );
}
