//! `bench compare A.json B.json`: one row per (workload, metric) with
//! both sides' medians and quartiles, judged by the bound `BENCHMARK.json`
//! fixes for the metric.

use crate::json::Json;
use crate::stats::{median, quartiles, verdict, worse_by, Better, Verdict};

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// The share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// The workload names and end-to-end bounds of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Names the missing or mistyped field.
pub fn read_spec(spec: &Json) -> Result<(Vec<String>, Vec<Bound>), String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" array"))
    };
    let text = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry has no \"{key}\" string"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            let name = text(m, "name")?;
            Ok(Bound {
                unit: text(m, "unit")?,
                better: Better::parse(&text(m, "better")?)
                    .ok_or_else(|| format!("{name}: \"better\" is neither lower nor higher"))?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no \"bound\" number"))?,
                name,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, bounds))
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric and its rule.
    pub bound: Bound,
    /// The baseline's values, one per run.
    pub baseline: Vec<f64>,
    /// The candidate's values, one per run.
    pub candidate: Vec<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// A metric's value in every run of a `bench run` output file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compares two `bench run` output files under a `BENCHMARK.json`.
///
/// # Errors
///
/// Fails when the spec is malformed or a side has no value for a
/// (workload, metric) the spec lists.
pub fn compare(spec: &Json, baseline: &Json, candidate: &Json) -> Result<Vec<Row>, String> {
    let (workloads, bounds) = read_spec(spec)?;
    let mut rows = Vec::new();
    for workload in &workloads {
        for bound in &bounds {
            let base = values(baseline, workload, &bound.name);
            let cand = values(candidate, workload, &bound.name);
            if base.is_empty() || cand.is_empty() {
                return Err(format!(
                    "{workload}/{}: {} baseline and {} candidate values",
                    bound.name,
                    base.len(),
                    cand.len()
                ));
            }
            rows.push(Row {
                workload: workload.clone(),
                verdict: verdict(bound.better, bound.bound, &base, &cand),
                bound: bound.clone(),
                baseline: base,
                candidate: cand,
            });
        }
    }
    Ok(rows)
}

fn side(values: &[f64]) -> String {
    let mid = median(values).expect("a side with values");
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{mid:.6e} [{q1:.4e} {q3:.4e}]"),
        None => format!("{mid:.6e} [one run]"),
    }
}

/// The rows as a table, one line each.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<24} {:<5} {:>36} {:>36} {:>9} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "baseline median [q1 q3]",
        "candidate median [q1 q3]",
        "worse by",
        "bound"
    );
    for row in rows {
        let change = worse_by(
            row.bound.better,
            median(&row.baseline).expect("baseline values"),
            median(&row.candidate).expect("candidate values"),
        );
        let verdict = match row.verdict {
            Verdict::Within if row.baseline == row.candidate => "within (identical)",
            Verdict::Within => "within",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved (spread exceeds bound)",
        };
        out.push_str(&format!(
            "{:<18} {:<24} {:<5} {:>36} {:>36} {:>+8.2}% {:>5.2}%  {verdict}\n",
            row.workload,
            row.bound.name,
            row.bound.unit,
            side(&row.baseline),
            side(&row.candidate),
            100.0 * change,
            100.0 * row.bound.bound,
        ));
    }
    out
}
