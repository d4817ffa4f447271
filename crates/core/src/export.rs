//! Telemetry exposition: rendering a [`MetricsSnapshot`] as JSON and as
//! Prometheus text format.
//!
//! Both renderers are hand-rolled: the exposition formats are small
//! enough that a dependency would cost more than it saves. Output is
//! deterministic: map-backed sections are emitted in sorted key order so
//! two snapshots with equal contents render byte-identically.

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Renders a snapshot as a single JSON object.
///
/// The shape mirrors [`MetricsSnapshot`] field-for-field:
/// `rejected_by_reason` becomes a nested object (sorted by reason) and
/// `stage_timings` an array of per-stage objects, in pipeline order.
///
/// ```
/// use aipow_core::{export, FrameworkMetrics};
/// let json = export::snapshot_json(&FrameworkMetrics::new().snapshot());
/// assert!(json.starts_with('{') && json.ends_with('}'));
/// assert!(json.contains("\"challenges_issued\":0"));
/// ```
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1_024);
    out.push('{');
    let mut first = true;
    let mut field = |out: &mut String, key: &str, value: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{key}\":{value}");
    };

    field(
        &mut out,
        "challenges_issued",
        &snap.challenges_issued.to_string(),
    );
    field(
        &mut out,
        "solutions_accepted",
        &snap.solutions_accepted.to_string(),
    );
    field(
        &mut out,
        "solutions_rejected",
        &snap.solutions_rejected.to_string(),
    );
    field(&mut out, "bypassed", &snap.bypassed.to_string());

    let mut reasons: Vec<(&String, &u64)> = snap.rejected_by_reason.iter().collect();
    reasons.sort_by_key(|(reason, _)| reason.as_str());
    let mut reason_obj = String::from("{");
    for (i, (reason, count)) in reasons.iter().enumerate() {
        if i > 0 {
            reason_obj.push(',');
        }
        let _ = write!(reason_obj, "\"{}\":{}", escape_json(reason), count);
    }
    reason_obj.push('}');
    field(&mut out, "rejected_by_reason", &reason_obj);

    field(
        &mut out,
        "median_issued_difficulty",
        &snap.median_issued_difficulty.to_string(),
    );
    field(
        &mut out,
        "max_issued_difficulty",
        &snap.max_issued_difficulty.to_string(),
    );
    field(&mut out, "replay_shards", &snap.replay_shards.to_string());
    field(&mut out, "audit_shards", &snap.audit_shards.to_string());
    field(&mut out, "ledger_shards", &snap.ledger_shards.to_string());
    field(
        &mut out,
        "replay_evicted_live",
        &snap.replay_evicted_live.to_string(),
    );
    field(
        &mut out,
        "behavior_tracked",
        &snap.behavior_tracked.to_string(),
    );
    field(
        &mut out,
        "behavior_sweeps",
        &snap.behavior_sweeps.to_string(),
    );
    field(
        &mut out,
        "behavior_pruned",
        &snap.behavior_pruned.to_string(),
    );
    field(&mut out, "accept_errors", &snap.accept_errors.to_string());
    field(
        &mut out,
        "accept_backoff_ms",
        &snap.accept_backoff_ms.to_string(),
    );
    field(&mut out, "rate_limited", &snap.rate_limited.to_string());
    field(
        &mut out,
        "open_connections",
        &snap.open_connections.to_string(),
    );
    field(&mut out, "accepted_total", &snap.accepted_total.to_string());
    field(&mut out, "reaped_idle", &snap.reaped_idle.to_string());
    field(
        &mut out,
        "per_ip_cap_rejections",
        &snap.per_ip_cap_rejections.to_string(),
    );
    field(
        &mut out,
        "max_conn_rejections",
        &snap.max_conn_rejections.to_string(),
    );
    field(
        &mut out,
        "outbound_overflow_closes",
        &snap.outbound_overflow_closes.to_string(),
    );
    field(
        &mut out,
        "reactor_wakeups",
        &snap.reactor_wakeups.to_string(),
    );
    field(
        &mut out,
        "reactor_ready_events",
        &snap.reactor_ready_events.to_string(),
    );
    field(
        &mut out,
        "ready_events_per_wakeup",
        &json_f64(snap.ready_events_per_wakeup),
    );
    field(
        &mut out,
        "replay_rejects_per_s",
        &json_f64(snap.replay_rejects_per_s),
    );
    field(
        &mut out,
        "rate_limited_per_s",
        &json_f64(snap.rate_limited_per_s),
    );
    field(
        &mut out,
        "rejections_per_s",
        &json_f64(snap.rejections_per_s),
    );
    field(&mut out, "accepts_per_s", &json_f64(snap.accepts_per_s));

    let mut stages = String::from("[");
    for (i, t) in snap.stage_timings.iter().enumerate() {
        if i > 0 {
            stages.push(',');
        }
        let _ = write!(
            stages,
            "{{\"stage\":\"{}\",\"batches\":{},\"items\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            escape_json(&t.stage),
            t.batches,
            t.items,
            t.total_ns,
            t.p50_ns,
            t.p99_ns
        );
    }
    stages.push(']');
    field(&mut out, "stage_timings", &stages);

    out.push('}');
    out
}

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# TYPE` comment per family, `aipow_`-prefixed metric names,
/// `{label="value"}` selectors for the per-reason and per-stage series.
///
/// ```
/// use aipow_core::{export, FrameworkMetrics};
/// let text = export::snapshot_prometheus(&FrameworkMetrics::new().snapshot());
/// assert!(text.contains("# TYPE aipow_challenges_issued counter"));
/// assert!(text.lines().all(|l| !l.trim_end().is_empty()));
/// ```
pub fn snapshot_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2_048);
    let counter = |out: &mut String, name: &str, value: u64| {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    };
    counter(&mut out, "aipow_challenges_issued", snap.challenges_issued);
    counter(
        &mut out,
        "aipow_solutions_accepted",
        snap.solutions_accepted,
    );
    counter(
        &mut out,
        "aipow_solutions_rejected",
        snap.solutions_rejected,
    );
    counter(&mut out, "aipow_bypassed", snap.bypassed);

    let mut reasons: Vec<(&String, &u64)> = snap.rejected_by_reason.iter().collect();
    reasons.sort_by_key(|(reason, _)| reason.as_str());
    let _ = writeln!(out, "# TYPE aipow_rejections counter");
    for (reason, count) in reasons {
        let _ = writeln!(out, "aipow_rejections{{reason=\"{reason}\"}} {count}");
    }

    let gauge = |out: &mut String, name: &str, value: u64| {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
    };
    gauge(
        &mut out,
        "aipow_median_issued_difficulty",
        snap.median_issued_difficulty,
    );
    gauge(
        &mut out,
        "aipow_max_issued_difficulty",
        snap.max_issued_difficulty,
    );
    gauge(&mut out, "aipow_replay_shards", snap.replay_shards);
    gauge(&mut out, "aipow_audit_shards", snap.audit_shards);
    gauge(&mut out, "aipow_ledger_shards", snap.ledger_shards);
    gauge(
        &mut out,
        "aipow_replay_evicted_live",
        snap.replay_evicted_live,
    );
    gauge(&mut out, "aipow_behavior_tracked", snap.behavior_tracked);
    counter(&mut out, "aipow_behavior_sweeps", snap.behavior_sweeps);
    counter(&mut out, "aipow_behavior_pruned", snap.behavior_pruned);
    counter(&mut out, "aipow_accept_errors", snap.accept_errors);
    gauge(&mut out, "aipow_accept_backoff_ms", snap.accept_backoff_ms);
    counter(&mut out, "aipow_rate_limited", snap.rate_limited);
    gauge(&mut out, "aipow_open_connections", snap.open_connections);
    counter(&mut out, "aipow_accepted_total", snap.accepted_total);
    counter(&mut out, "aipow_reaped_idle", snap.reaped_idle);
    counter(
        &mut out,
        "aipow_per_ip_cap_rejections",
        snap.per_ip_cap_rejections,
    );
    counter(
        &mut out,
        "aipow_max_conn_rejections",
        snap.max_conn_rejections,
    );
    counter(
        &mut out,
        "aipow_outbound_overflow_closes",
        snap.outbound_overflow_closes,
    );
    counter(&mut out, "aipow_reactor_wakeups", snap.reactor_wakeups);
    counter(
        &mut out,
        "aipow_reactor_ready_events",
        snap.reactor_ready_events,
    );

    let rate = |out: &mut String, name: &str, value: f64| {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", prom_f64(value));
    };
    rate(
        &mut out,
        "aipow_replay_rejects_per_s",
        snap.replay_rejects_per_s,
    );
    rate(
        &mut out,
        "aipow_rate_limited_per_s",
        snap.rate_limited_per_s,
    );
    rate(&mut out, "aipow_rejections_per_s", snap.rejections_per_s);
    rate(&mut out, "aipow_accepts_per_s", snap.accepts_per_s);
    rate(
        &mut out,
        "aipow_ready_events_per_wakeup",
        snap.ready_events_per_wakeup,
    );

    for (name, pick) in [
        ("aipow_stage_batches", 0usize),
        ("aipow_stage_items", 1),
        ("aipow_stage_total_ns", 2),
        ("aipow_stage_p50_ns", 3),
        ("aipow_stage_p99_ns", 4),
    ] {
        let kind = if pick < 3 { "counter" } else { "gauge" };
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for t in &snap.stage_timings {
            let value = [t.batches, t.items, t.total_ns, t.p50_ns, t.p99_ns][pick];
            let _ = writeln!(out, "{name}{{stage=\"{}\"}} {value}", t.stage);
        }
    }
    out
}

/// JSON-escapes the characters that can legally appear in a metric label
/// (reason/stage names are static snake_case strings, but the renderer
/// stays safe if that ever loosens).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite f64 as a JSON number (NaN/infinity have no JSON
/// representation; rates are always finite, so clamp defensively).
fn json_f64(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    // `{:?}` always includes a decimal point or exponent, so the output
    // round-trips as a float rather than collapsing to an int.
    format!("{v:?}")
}

fn prom_f64(v: f64) -> String {
    json_f64(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FrameworkMetrics;

    fn populated_snapshot() -> MetricsSnapshot {
        let m = FrameworkMetrics::new();
        m.record_issued_difficulties([8u8, 8, 9]);
        m.solutions_accepted.inc();
        m.record_rejection(&aipow_pow::VerifyError::BadMac);
        m.record_stage(0, 4, 4_000);
        m.accept_errors.inc();
        m.accept_backoff_ms.set(128);
        m.rate_limited.add(2);
        m.snapshot()
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = snapshot_json(&populated_snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces/brackets — a cheap structural check that still
        // catches missed separators and truncation.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in {json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"challenges_issued\":3"));
        assert!(json.contains("\"bad_mac\":1"));
        assert!(json.contains("\"rate_limited\":2"));
        assert!(json.contains("\"stage\":\"score\""));
        assert!(!json.contains(",,"), "no empty fields");
    }

    #[test]
    fn json_floats_stay_floats() {
        let mut snap = populated_snapshot();
        snap.rejections_per_s = 2.0;
        let json = snapshot_json(&snap);
        assert!(
            json.contains("\"rejections_per_s\":2.0"),
            "whole-valued rate must render as a float: {json}"
        );
        snap.rejections_per_s = f64::NAN;
        assert!(snapshot_json(&snap).contains("\"rejections_per_s\":0.0"));
    }

    #[test]
    fn prometheus_parses_line_by_line() {
        let text = snapshot_prometheus(&populated_snapshot());
        let mut samples = 0;
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines");
            if let Some(comment) = line.strip_prefix("# TYPE ") {
                let mut parts = comment.split_whitespace();
                let name = parts.next().expect("family name");
                let kind = parts.next().expect("family kind");
                assert!(name.starts_with("aipow_"), "bad family {name}");
                assert!(matches!(kind, "counter" | "gauge"), "bad kind {kind}");
                assert_eq!(parts.next(), None);
                continue;
            }
            // Sample line: `name[{label="value"}] value`.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line}");
            let name = series.split('{').next().unwrap();
            assert!(name.starts_with("aipow_"), "bad metric name {name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(
                        rest.starts_with('{') && rest.ends_with('}'),
                        "bad labels {rest}"
                    );
                    let inner = &rest[1..rest.len() - 1];
                    let (label, val) = inner.split_once('=').expect("label=value");
                    assert!(label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                    assert!(val.starts_with('"') && val.ends_with('"'));
                }
            }
            samples += 1;
        }
        assert!(
            samples >= 25,
            "expected a full exposition, got {samples} samples"
        );
        assert!(text.contains("aipow_rejections{reason=\"bad_mac\"} 1"));
        assert!(text.contains("aipow_stage_p99_ns{stage=\"score\"}"));
        assert!(text.contains("aipow_accept_errors 1"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let snap = populated_snapshot();
        assert_eq!(snapshot_json(&snap), snapshot_json(&snap.clone()));
        assert_eq!(
            snapshot_prometheus(&snap),
            snapshot_prometheus(&snap.clone())
        );
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain_reason"), "plain_reason");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
