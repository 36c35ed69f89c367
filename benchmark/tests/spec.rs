//! `BENCHMARK.json` and the code must name the same workloads and
//! metrics, and `bench compare` must apply the file's bounds.

use approxiot_benchmark::compare::{compare, read_spec, render};
use approxiot_benchmark::json::Json;
use approxiot_benchmark::report::{END_TO_END, PER_LAYER};
use approxiot_benchmark::stats::{Better, Verdict};
use approxiot_benchmark::workloads::Workload;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_codes_workloads_and_metrics() {
    let spec = spec();
    let (workloads, bounds) = read_spec(&spec).expect("well-formed");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&spec, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_and_units(&spec, "per_layer"), own(&PER_LAYER));
    // The contract: every bound is a share of at most a quarter, and the
    // set-up time is there, lower-is-better, in seconds.
    for bound in &bounds {
        assert!(bound.bound >= 0.0 && bound.bound <= 0.25, "{bound:?}");
    }
    let setup = bounds
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
}

/// A `bench run` output with one value per run for one metric on every
/// workload, everything else held at 1.
fn runs(metric: &str, values: &[f64]) -> Json {
    let run = |value: f64| {
        let metrics = Json::obj(END_TO_END.iter().map(|(name, unit)| {
            let v = if *name == metric { value } else { 1.0 };
            (
                *name,
                Json::obj([("value", Json::from(v)), ("unit", Json::from(*unit))]),
            )
        }));
        Json::obj([(
            "workloads",
            Json::obj(
                Workload::ALL
                    .iter()
                    .map(|w| (w.name(), Json::obj([("metrics", metrics.clone())]))),
            ),
        )])
    };
    Json::obj([
        ("comparable", Json::from(true)),
        ("runs", Json::Arr(values.iter().copied().map(run).collect())),
    ])
}

#[test]
fn compare_judges_each_workload_and_metric_by_its_bound() {
    let spec = spec();
    let steady: Vec<f64> = (0..10).map(|i| 1000.0 + i as f64).collect();
    let slower: Vec<f64> = steady.iter().map(|v| v * 0.70).collect();
    let noisy: Vec<f64> = (0..10).map(|i| 600.0 + 100.0 * i as f64).collect();
    let verdicts = |candidate: &[f64]| -> Vec<Verdict> {
        compare(
            &spec,
            &runs("throughput_items_per_s", &steady),
            &runs("throughput_items_per_s", candidate),
        )
        .expect("both sides complete")
        .into_iter()
        .filter(|row| row.bound.name == "throughput_items_per_s")
        .map(|row| row.verdict)
        .collect()
    };
    assert_eq!(verdicts(&steady), [Verdict::Within; 5]);
    assert_eq!(verdicts(&slower), [Verdict::Regressed; 5]);
    assert_eq!(verdicts(&noisy), [Verdict::Unresolved; 5]);

    let rows = compare(
        &spec,
        &runs("throughput_items_per_s", &steady),
        &runs("throughput_items_per_s", &slower),
    )
    .expect("both sides complete");
    assert_eq!(rows.len(), 5 * END_TO_END.len(), "one row per pair");
    let table = render(&rows);
    assert_eq!(table.lines().count(), rows.len() + 1);
    assert!(table.contains("REGRESSED"));
    assert!(table.contains("within (identical)"));
}

#[test]
fn compare_refuses_a_side_with_a_missing_metric() {
    let spec = spec();
    let whole = runs("setup_s", &[1.0, 1.0]);
    let empty = Json::obj([("runs", Json::Arr(Vec::new()))]);
    let err = compare(&spec, &whole, &empty).expect_err("nothing to compare");
    assert!(err.contains("whs-drain"), "{err}");
}
