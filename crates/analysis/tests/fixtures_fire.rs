//! Each known-bad fixture must trip exactly its own rule — no more, no
//! less — when analyzed as non-test code of a P1-scoped crate. Line rules
//! run through `analyze_source`; the concurrency graph rules (C1/C2/C3)
//! only exist at workspace level, so their fixtures go through
//! `check_sources` as a one-file workspace.

use approxiot_analysis::{
    analyze_source, check_sources, workspace_model, Config, FileReport, Report, Rule, SourceSpec,
};

/// Analyze a fixture as if it were runtime library code (no allowlist
/// entry matches `bad.rs`, and the P1 rule applies to `runtime`).
fn analyze(text: &str) -> FileReport {
    analyze_source(
        &Config::default(),
        "runtime",
        "crates/runtime/src/bad.rs",
        text,
    )
}

/// Assert the fixture fires `rule` and nothing else.
fn assert_fires_exactly(text: &str, rule: Rule) {
    let report = analyze(text);
    assert!(
        report.findings.iter().any(|f| f.rule == rule),
        "expected a {rule} finding, got {:?}",
        report.findings
    );
    assert!(
        report.findings.iter().all(|f| f.rule == rule),
        "expected only {rule} findings, got {:?}",
        report.findings
    );
}

/// The fixture as the one source file of a workspace.
fn single_source(text: &str) -> [SourceSpec; 1] {
    [SourceSpec {
        krate: "runtime".to_string(),
        rel_path: "crates/runtime/src/bad.rs".to_string(),
        text: text.to_string(),
    }]
}

/// Run the fixture through the workspace-level checker as a one-file
/// workspace — the concurrency rules build their graphs there.
fn check_single(text: &str) -> Report {
    check_sources(&Config::default(), &single_source(text))
}

/// Assert the workspace-level check fires `rule` and nothing else, and
/// return the matching findings' messages for closer inspection.
fn assert_ws_fires_exactly(text: &str, rule: Rule) -> Vec<String> {
    let report = check_single(text);
    assert!(
        report.findings.iter().any(|f| f.rule == rule),
        "expected a {rule} finding, got {:?}",
        report.findings
    );
    assert!(
        report.findings.iter().all(|f| f.rule == rule),
        "expected only {rule} findings, got {:?}",
        report.findings
    );
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.message.clone())
        .collect()
}

#[test]
fn d1_fires_on_wall_clock_read() {
    assert_fires_exactly(include_str!("fixtures/d1_wall_clock.rs"), Rule::D1);
}

#[test]
fn d1_respects_the_clock_allowlist() {
    let text = include_str!("fixtures/d1_wall_clock.rs");
    let report = analyze_source(&Config::default(), "net", "crates/net/src/clock.rs", text);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d2_fires_on_hash_map() {
    assert_fires_exactly(include_str!("fixtures/d2_hash_map.rs"), Rule::D2);
}

#[test]
fn d3_fires_on_raw_seed_arithmetic() {
    assert_fires_exactly(include_str!("fixtures/d3_raw_seed.rs"), Rule::D3);
}

#[test]
fn d3_fires_on_entropy_rng() {
    assert_fires_exactly(include_str!("fixtures/d3_entropy.rs"), Rule::D3);
}

#[test]
fn s1_fires_on_unsafe_without_safety_comment() {
    assert_fires_exactly(include_str!("fixtures/s1_no_safety.rs"), Rule::S1);
}

#[test]
fn p1_fires_on_bare_unwrap() {
    assert_fires_exactly(include_str!("fixtures/p1_unwrap.rs"), Rule::P1);
}

#[test]
fn p1_does_not_apply_outside_the_panic_free_crates() {
    let text = include_str!("fixtures/p1_unwrap.rs");
    let report = analyze_source(&Config::default(), "core", "crates/core/src/bad.rs", text);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn well_formed_waiver_suppresses_the_finding() {
    let report = analyze(include_str!("fixtures/waived_clean.rs"));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.waivers.len(), 1);
    assert!(report.waivers[0].used);
    assert_eq!(report.waivers[0].rule, Rule::P1);
    assert_eq!(
        report.waivers[0].reason,
        "caller guarantees a non-empty slice"
    );
}

#[test]
fn malformed_waiver_is_w0_and_does_not_suppress() {
    let report = analyze(include_str!("fixtures/waiver_malformed.rs"));
    assert!(
        report.findings.iter().any(|f| f.rule == Rule::W0),
        "reason-less waiver must be a W0 finding: {:?}",
        report.findings
    );
    assert!(
        report.findings.iter().any(|f| f.rule == Rule::P1),
        "a malformed waiver must not suppress the underlying finding: {:?}",
        report.findings
    );
}

#[test]
fn test_code_strings_and_comments_are_exempt() {
    let report = analyze(include_str!("fixtures/test_code_clean.rs"));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn nested_block_comments_hide_their_contents() {
    let report = analyze(include_str!("fixtures/scanner_nested_comment.rs"));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn raw_strings_with_hash_guards_are_data() {
    let report = analyze(include_str!("fixtures/scanner_raw_string_hashes.rs"));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn c1_fires_on_opposite_lock_order_with_a_witness_path() {
    let messages = assert_ws_fires_exactly(include_str!("fixtures/c1_lock_cycle.rs"), Rule::C1);
    assert_eq!(messages.len(), 1, "one cycle, one finding: {messages:?}");
    let msg = &messages[0];
    assert!(msg.contains("lock-order cycle"), "{msg}");
    assert!(
        msg.contains("Ledger::accounts") && msg.contains("Ledger::journal"),
        "cycle names both struct-scoped locks: {msg}"
    );
    // The witness path walks the real acquisition sites: who takes what,
    // where, while holding what.
    assert!(msg.contains("witness:"), "{msg}");
    assert!(
        msg.contains("credit") && msg.contains("audit"),
        "witness names both functions: {msg}"
    );
    assert!(
        msg.contains("crates/runtime/src/bad.rs:"),
        "witness anchors file:line acquisition sites: {msg}"
    );
}

#[test]
fn c1_sees_cycles_through_one_level_of_calls() {
    let messages =
        assert_ws_fires_exactly(include_str!("fixtures/c1_call_propagation.rs"), Rule::C1);
    let msg = &messages[0];
    assert!(
        msg.contains("calls Broker::flush_stats which acquires"),
        "the call-propagated edge is spelled out in the witness: {msg}"
    );
    assert!(
        msg.contains("Broker::queue") && msg.contains("Broker::stats"),
        "{msg}"
    );
}

#[test]
fn c2_fires_on_bounded_send_while_holding_a_lock() {
    let messages = assert_ws_fires_exactly(
        include_str!("fixtures/c2_bounded_send_under_lock.rs"),
        Rule::C2,
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("send on bounded channel while holding lock")),
        "{messages:?}"
    );
}

#[test]
fn c2_fires_on_a_bounded_send_recv_ring() {
    let messages = assert_ws_fires_exactly(include_str!("fixtures/c2_cycle.rs"), Rule::C2);
    assert_eq!(messages.len(), 1, "one ring, one finding: {messages:?}");
    assert!(messages[0].contains("send/recv cycle"), "{}", messages[0]);
}

#[test]
fn c3_fires_on_a_lock_held_across_sleep() {
    let messages = assert_ws_fires_exactly(
        include_str!("fixtures/c3_lock_across_blocking.rs"),
        Rule::C3,
    );
    let msg = &messages[0];
    assert!(msg.contains("held across blocking sleep"), "{msg}");
    assert!(msg.contains("Gauge::value"), "{msg}");
}

#[test]
fn try_recv_on_a_field_pairs_with_its_channel_and_never_blocks() {
    let text = include_str!("fixtures/chan_try_recv_field.rs");
    let report = check_single(text);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let edges = workspace_model(&single_source(text)).channel_edges();
    assert_eq!(edges.len(), 1, "{edges:?}");
    assert!(
        edges[0].from_ctx.starts_with("Engine::new::spawn@") && edges[0].to_ctx == "Engine::drain",
        "{edges:?}"
    );
}

#[test]
fn d3_fires_on_a_laundered_seed_chain() {
    assert_fires_exactly(include_str!("fixtures/d3_taint_launder.rs"), Rule::D3);
}

#[test]
fn d3_accepts_a_seed_chain_rooted_at_a_topology_helper() {
    let report = analyze(include_str!("fixtures/d3_taint_chain_clean.rs"));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
