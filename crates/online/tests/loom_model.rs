//! Bounded-interleaving model tests for the online behavior recorder.
//!
//! Run with `cargo test -p aipow-online --features loom-model`. The
//! recorder's sharded sketch table is shimmed transitively through
//! `aipow-shard`, so the scheduler explores the interleavings of its
//! per-shard upserts and the capacity-bounded eviction protocol.

#![cfg(feature = "loom-model")]

use aipow_core::tap::BehaviorSink;
use aipow_core::{AuditEvent, AuditKind, OnlineSettings};
use aipow_online::BehaviorRecorder;
use aipow_reputation::ReputationScore;
use std::net::IpAddr;
use std::sync::Arc;

fn settings() -> OnlineSettings {
    OnlineSettings::default()
}

/// A bypass admission of `ip` at t = 1 000 ms.
fn bypassed(ip: IpAddr) -> [AuditEvent; 1] {
    let kind = AuditKind::Bypassed {
        score: ReputationScore::MIN,
    };
    [AuditEvent {
        at_ms: 1_000,
        client_ip: ip,
        kind,
    }]
}

/// Two threads observing different clients: both sketches exist
/// afterwards and the request total is exact — no observation is lost
/// to a shard race.
#[test]
fn recorder_conserves_racing_observations_for_distinct_clients() {
    loom::model(|| {
        let recorder = Arc::new(BehaviorRecorder::new(&settings()));
        let other = Arc::clone(&recorder);
        let ip_a: IpAddr = "203.0.113.9".parse().expect("fixture ip: invariant");
        let ip_b: IpAddr = "203.0.113.10".parse().expect("fixture ip: invariant");
        let racer = loom::thread::spawn(move || {
            other.on_events(&bypassed(ip_b));
        });
        recorder.on_events(&bypassed(ip_a));
        racer.join().expect("model thread join: invariant");
        assert_eq!(recorder.len(), 2, "one sketch per observed client");
        assert_eq!(recorder.total_requests(), 2);
        assert!(recorder.sketch(ip_a, 1_000).is_some());
        assert!(recorder.sketch(ip_b, 1_000).is_some());
    });
}

/// Two threads observing the *same* client race the sketch-creating
/// upsert: exactly one sketch is created and both observations land in
/// it.
#[test]
fn recorder_merges_racing_observations_for_one_client() {
    loom::model(|| {
        let recorder = Arc::new(BehaviorRecorder::new(&settings()));
        let other = Arc::clone(&recorder);
        let ip: IpAddr = "203.0.113.9".parse().expect("fixture ip: invariant");
        let racer = loom::thread::spawn(move || {
            other.on_events(&bypassed(ip));
        });
        recorder.on_events(&bypassed(ip));
        racer.join().expect("model thread join: invariant");
        assert_eq!(recorder.len(), 1, "racing creators merge to one sketch");
        assert_eq!(recorder.total_requests(), 2);
        let sketch = recorder
            .sketch(ip, 1_000)
            .expect("sketch exists after observations: invariant");
        assert!(
            sketch.requests > 1.9,
            "both observations must survive the race (requests={})",
            sketch.requests
        );
    });
}
