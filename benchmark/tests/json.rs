//! The JSON writer and reader.

use approxiot_benchmark::json::Json;
use approxiot_benchmark::report::{result_line, Metric};

#[test]
fn one_line_form_has_no_newline_and_keeps_key_order() {
    let doc = Json::obj([
        ("zeta", Json::from(1u64)),
        (
            "alpha",
            Json::Arr(vec![Json::from(true), Json::Null, Json::from("x")]),
        ),
        ("nested", Json::obj([("k", Json::from(0.5))])),
    ]);
    let line = doc.to_line();
    assert_eq!(
        line,
        r#"{"zeta": 1, "alpha": [true, null, "x"], "nested": {"k": 0.5}}"#
    );
    assert!(!line.contains('\n'));
    assert_eq!(Json::parse(&line).expect("parses"), doc);
    assert_eq!(Json::parse(&doc.to_pretty()).expect("parses"), doc);
}

#[test]
fn numbers_keep_every_measured_digit() {
    for value in [
        1.2034,
        0.8127,
        43.243994,
        0.10891384548611113,
        15932775.977263663,
        1e-9,
        6.02e23,
        -0.0,
        0.0,
        9007199254740992.0,
    ] {
        let text = Json::from(value).to_line();
        let back = Json::parse(&text)
            .expect("parses")
            .as_f64()
            .expect("a number");
        assert_eq!(back.to_bits(), value.to_bits(), "{value} wrote as {text}");
    }
    assert_eq!(Json::from(147456000u64).to_line(), "147456000");
    assert_eq!(Json::from(f64::NAN).to_line(), "null");
}

#[test]
fn strings_are_escaped_and_read_back() {
    let text = "tab\t quote\" backslash\\ newline\n unit µs \u{1}";
    let line = Json::from(text).to_line();
    assert!(!line.contains('\n'));
    assert_eq!(Json::parse(&line).expect("parses").as_str(), Some(text));
    assert_eq!(
        Json::parse(r#""µs \/""#).expect("parses").as_str(),
        Some("µs /")
    );
}

#[test]
fn malformed_documents_are_refused_with_a_position() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "tru",
        "1 2",
        "\"open",
        "{\"a\":1,}",
        "nan",
    ] {
        let err = Json::parse(bad).expect_err(bad);
        assert!(err.starts_with("byte "), "{bad:?}: {err}");
    }
    let deep = "[".repeat(100) + &"]".repeat(100);
    assert!(Json::parse(&deep).expect_err("too deep").contains("nested"));
}

#[test]
fn result_line_has_exactly_the_contracts_keys() {
    let metrics = [
        Metric::new("latency_ms", "ms", 1.2034, 470),
        Metric::new("setup_s", "s", 0.8127, 5),
    ];
    let line = result_line(true, 1000, 0, &metrics);
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#
    );
    let doc = Json::parse(&line).expect("parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // `attempted` is at least 1 even for a run that pushed nothing.
    assert!(result_line(false, 0, 0, &[]).contains("\"attempted\": 1"));
}
