//! Self-check: the live workspace passes the analysis gate with zero
//! unwaived findings, and every waiver carries a reason.

use std::path::Path;

use approxiot_analysis::model::Role;
use approxiot_analysis::{check_workspace, load_sources, workspace_model, Config, Rule};

fn repo_root() -> &'static Path {
    // crates/analysis -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("analysis crate lives two levels below the repo root")
}

#[test]
fn live_workspace_has_zero_unwaived_findings() {
    let report = check_workspace(&Config::default(), repo_root()).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "walker lost the workspace sources"
    );
    assert!(
        report.is_clean(),
        "workspace has unwaived findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_waiver_carries_a_reason_and_is_used() {
    let report = check_workspace(&Config::default(), repo_root()).expect("scan workspace");
    assert!(
        !report.waivers.is_empty(),
        "the workspace documents its exceptions as waivers"
    );
    for w in &report.waivers {
        assert!(
            !w.reason.trim().is_empty(),
            "{}:{} waiver has no reason",
            w.file,
            w.line
        );
        assert!(w.used, "{}:{} waiver suppresses nothing", w.file, w.line);
    }
}

/// The exception surface is pinned: growing it is a deliberate, reviewed
/// act (bump the count with a justification in the same commit), and the
/// unused-waiver audit (W0) keeps it from going stale upward.
///
/// 31: deleting the pump-thread WAN link (`net/src/link.rs`) removed its
/// D1 wall-clock waiver and its P1 waiver on the pump thread's spawn.
///
/// 28: the sketch root answers through `Θ`, so the P1 waivers on the
/// summary-merge `expect` at the root, `SamplingNode::process_payload` and
/// `SamplingNode::summarize_batch` went with that code.
///
/// 26: §III-E shards sample on the node's thread, so the shard pool went,
/// and with it the C2 waiver on its capacity-1 request/reply send and the
/// P1 waiver on its worker-thread spawn.
#[test]
fn waiver_count_is_pinned() {
    const EXPECTED_WAIVERS: usize = 26;
    let report = check_workspace(&Config::default(), repo_root()).expect("scan workspace");
    assert_eq!(
        report.waivers.len(),
        EXPECTED_WAIVERS,
        "live waiver count changed; audit the new/removed waivers and re-pin:\n{}",
        report
            .waivers
            .iter()
            .map(|w| format!("{}:{} [{}] {}", w.file, w.line, w.rule, w.reason))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn summary_table_lists_waivers_per_crate() {
    let report = check_workspace(&Config::default(), repo_root()).expect("scan workspace");
    let table = report.summary_markdown();
    assert!(table.contains("| crate |"), "{table}");
    // The net crate stays in the table through the two D1 waivers on
    // `ratelimit.rs`'s token-bucket refill, which reads the wall clock.
    assert!(table.contains("| net |"), "{table}");
    for rule in [Rule::D1, Rule::D3, Rule::P1] {
        assert!(
            report.waiver_counts().keys().any(|(_, r)| *r == rule),
            "expected at least one {rule} waiver in the live workspace"
        );
    }
}

/// The concurrency rules (C1–C3) run on the live tree, not just on
/// fixtures: the workspace model finds the pipeline's two unbounded
/// channels, resolves the root thread's sends to their creation sites,
/// pairs them with the engine's `try_recv()` drains of its receiver
/// fields, and sees one lock taken both on the root thread and at
/// `finish`. No live waiver is left to prove it.
#[test]
fn concurrency_model_sees_the_live_pipeline() {
    let sources = load_sources(repo_root()).expect("load workspace sources");
    let ws = workspace_model(&sources);
    let pipeline = "crates/runtime/src/pipeline.rs";
    let channels: Vec<_> = ws
        .files
        .iter()
        .filter(|f| f.file == pipeline)
        .flat_map(|f| &f.channels)
        .collect();
    assert_eq!(
        channels.len(),
        2,
        "the result and elapsed-time channels: {channels:?}"
    );
    assert!(
        channels.iter().all(|c| c.bounded == Some(false)),
        "{channels:?}"
    );
    // Every pipeline send resolves to one of those channels; the root
    // thread (a spawn closure) and the root loop both send.
    let sends: Vec<_> = ws
        .contexts()
        .filter(|c| c.file == pipeline)
        .flat_map(|c| c.chan_ops.iter().map(move |op| (c.name.as_str(), op)))
        .filter(|(_, op)| op.role == Role::Send)
        .collect();
    for (ctx, op) in &sends {
        assert!(
            channels
                .iter()
                .any(|c| op.chan.as_deref() == Some(c.key.as_str())),
            "{ctx}: send at line {} resolved to no channel",
            op.line
        );
    }
    for ctx in ["PipelineEngine::new::spawn@", "root_loop"] {
        assert!(
            sends.iter().any(|(name, _)| name.starts_with(ctx)),
            "no resolved send from {ctx}: {sends:?}"
        );
    }
    let latency_lockers: Vec<&str> = ws
        .contexts()
        .filter(|c| {
            c.locks
                .iter()
                .any(|l| l.lock == "PipelineEngine::latencies")
        })
        .map(|c| c.name.as_str())
        .collect();
    assert!(
        latency_lockers.contains(&"root_loop")
            && latency_lockers.contains(&"PipelineEngine::finish"),
        "the latency lock is shared by the root loop and finish: {latency_lockers:?}"
    );
    let edges = ws.channel_edges();
    assert!(
        !edges.is_empty(),
        "no live channel pairs a send with a recv"
    );
    for receiver in ["PipelineEngine::drain_results", "PipelineEngine::finish"] {
        assert!(
            edges.iter().any(|e| e.to_ctx == receiver),
            "{receiver} drains no channel: {edges:?}"
        );
    }
    assert!(
        ws.lock_cycles().is_empty() && ws.channel_cycles().is_empty(),
        "the live tree has no lock or bounded-channel cycle"
    );
}
