//! Cold-start semantics of the online behavioral feature source.
//!
//! The contract under test (see `aipow-online`'s `source` module):
//!
//! 1. a never-seen IP scores **exactly** the prior — byte-for-byte, for
//!    any IP and any prior;
//! 2. under constant observed behaviour, every behavioral lane converges
//!    **monotonically** from the prior toward the observed value as
//!    evidence accumulates (confidence only ever grows while a client
//!    stays active).

use aipow::framework::{AuditEvent, AuditKind, BehaviorSink, OnlineSettings, StaticFeatureSource};
use aipow::online::{BehaviorRecorder, BehavioralFeatureSource};
use aipow::pow::{Difficulty, ManualClock};
use aipow::prelude::*;
use aipow::reputation::ReputationScore;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

fn issued(ip: IpAddr, at_ms: u64) -> AuditEvent {
    let kind = AuditKind::ChallengeIssued {
        score: ReputationScore::MAX,
        difficulty: Difficulty::new(5).unwrap(),
    };
    AuditEvent {
        at_ms,
        client_ip: ip,
        kind,
    }
}

fn source_with_prior(
    prior: FeatureVector,
    half_life_ms: u64,
    prior_strength: f64,
) -> (Arc<BehaviorRecorder>, BehavioralFeatureSource) {
    let settings = OnlineSettings {
        half_life_ms,
        prior_strength,
        shard_count: Some(4),
        ..Default::default()
    };
    let recorder = Arc::new(BehaviorRecorder::new(&settings));
    let source = BehavioralFeatureSource::new(
        Arc::clone(&recorder),
        Arc::new(StaticFeatureSource::new(prior)),
        &settings,
        Arc::new(ManualClock::at(0)),
    );
    (recorder, source)
}

proptest! {
    /// Never-seen IPs score exactly the prior, whatever the prior is.
    #[test]
    fn cold_start_equals_prior(octets in proptest::collection::vec(0u32..256, 4),
                               lane0 in 0.0f64..50.0,
                               lane1 in 0.0f64..1.0,
                               strength in 0.0f64..64.0) {
        let prior = FeatureVector::zeros().with(0, lane0).with(1, lane1);
        let (_recorder, source) = source_with_prior(prior, 10_000, strength);
        let ip = IpAddr::V4(Ipv4Addr::new(
            octets[0] as u8, octets[1] as u8, octets[2] as u8, octets[3] as u8,
        ));
        prop_assert_eq!(source.features_at(ip, 5_000), prior);
    }

    /// A client flooding at a constant rate: the rate and abandon lanes
    /// move monotonically from the prior toward the observed behaviour,
    /// and end close to it.
    #[test]
    fn convergence_is_monotone(gap_ms in 5u64..500,
                               strength in 1.0f64..64.0,
                               events in 50usize..200) {
        let prior = FeatureVector::zeros().with(0, 2.0).with(1, 0.05);
        let (recorder, source) = source_with_prior(prior, 60_000, strength);
        let ip = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 77));
        let observed_rate = 1_000.0 / gap_ms as f64;

        let mut last_rate = f64::NEG_INFINITY;
        let mut last_abandon = f64::NEG_INFINITY;
        for i in 0..events {
            let now = i as u64 * gap_ms;
            recorder.on_events(&[issued(ip, now)]);
            let f = source.features_at(ip, now);
            // Monotone toward the observed values (which sit above the
            // prior for a flooder), within float tolerance.
            prop_assert!(f.get(0) >= last_rate - 1e-9);
            prop_assert!(f.get(1) >= last_abandon - 1e-9);
            // Never overshoots what was observed.
            prop_assert!(f.get(0) <= observed_rate + 1e-9);
            prop_assert!(f.get(1) <= 1.0 + 1e-9);
            last_rate = f.get(0);
            last_abandon = f.get(1);
        }

        // The decayed event weight after n arrivals at a fixed gap is the
        // geometric sum (1 − qⁿ) / (1 − q) with q = 2^(−gap/half_life);
        // confidence follows exactly, so the final blend is pinned.
        let final_f = source.features_at(ip, (events as u64 - 1) * gap_ms);
        let q = 0.5f64.powf(gap_ms as f64 / 60_000.0);
        let n_eff = (1.0 - q.powi(events as i32)) / (1.0 - q);
        let confidence = n_eff / (n_eff + strength);
        let expected = 0.05 + confidence * (1.0 - 0.05);
        prop_assert!(
            (final_f.get(1) - expected).abs() < 1e-6,
            "abandon lane {} after {} events, expected {:.4}",
            final_f.get(1), events, expected,
        );
    }
}

/// Full convergence: with overwhelming evidence the behavioral lanes are
/// within a few percent of the observed behaviour.
#[test]
fn converged_lanes_match_observed_behavior() {
    let prior = FeatureVector::zeros().with(0, 2.0).with(1, 0.05);
    let (recorder, source) = source_with_prior(prior, 60_000, 8.0);
    let ip = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 78));
    for i in 0..2_000u64 {
        recorder.on_events(&[issued(ip, i * 10)]);
    }
    let f = source.features_at(ip, 2_000 * 10);
    assert!((f.get(0) - 100.0).abs() < 5.0, "rate lane {}", f.get(0));
    assert!(f.get(1) > 0.95, "abandon lane {}", f.get(1));
}
