//! Mapping live behavior sketches onto the model's attribute vector.
//!
//! The AI model consumes a fixed 10-lane [`FeatureVector`] (see
//! [`aipow_reputation::FEATURE_NAMES`]). A passive admission tap cannot
//! observe every lane — it never sees ports, payloads, or geolocation —
//! so [`BehavioralFeatureSource`] overwrites only the lanes the tap *can*
//! measure and leaves the rest to the prior:
//!
//! | lane | attribute | live analog |
//! |---|---|---|
//! | 0 | `request_rate` | decayed arrival rate (req/s) |
//! | 1 | `syn_ratio` | challenge-abandon ratio (issued, never solved) |
//! | 6 | `blacklist_hits` | prior + decayed abuse weight (invalid + replayed solutions) |
//! | 8 | `interarrival_jitter` | std-dev of request gaps (ms) |
//! | 9 | `failed_auth_ratio` | invalid-solution ratio |
//!
//! **Cold-start blending.** A sketch built from three events is noise; a
//! deployment still needs a sane score for that client. Each observed
//! lane is therefore blended with the prior by a confidence weight
//!
//! ```text
//! w = (events / (events + prior_strength)) · 2^(−idle / half_life)
//! ```
//!
//! A never-seen client scores *exactly* the prior (`w = 0`), and as
//! evidence accumulates the vector converges monotonically toward the
//! observed behavior. The second factor is **time-based decay**: `idle`
//! is the time since the client's last event, so once a client goes
//! quiet the behavioral signal halves every half-life *regardless of how
//! much evidence the attack accumulated* — an intense flood and a brief
//! one redeem on the same timescale. (The event weight itself also
//! decays, which is what eventually lets the sweep prune the sketch
//! entirely.)

use crate::recorder::BehaviorRecorder;
use aipow_core::{FeatureSource, OnlineSettings};
use aipow_pow::TimeSource;
use aipow_reputation::FeatureVector;
use std::net::IpAddr;
use std::sync::Arc;

/// A [`FeatureSource`] that scores clients from their live behavior,
/// blended with a prior source for cold starts.
///
/// ```
/// use aipow_core::{FeatureSource, OnlineSettings, StaticFeatureSource};
/// use aipow_online::{BehaviorRecorder, BehavioralFeatureSource};
/// use aipow_pow::ManualClock;
/// use aipow_reputation::FeatureVector;
/// use std::sync::Arc;
/// # use std::net::{IpAddr, Ipv4Addr};
///
/// let settings = OnlineSettings::default();
/// let recorder = Arc::new(BehaviorRecorder::new(&settings));
/// let prior = Arc::new(StaticFeatureSource::new(FeatureVector::zeros().with(0, 2.0)));
/// let source = BehavioralFeatureSource::new(
///     Arc::clone(&recorder), prior, &settings, Arc::new(ManualClock::at(0)));
///
/// // Never-seen clients get exactly the prior.
/// let cold = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
/// assert_eq!(source.features_for(cold).get(0), 2.0);
/// ```
pub struct BehavioralFeatureSource {
    recorder: Arc<BehaviorRecorder>,
    prior: Arc<dyn FeatureSource>,
    prior_strength: f64,
    clock: Arc<dyn TimeSource>,
}

impl BehavioralFeatureSource {
    /// Builds the source over a recorder, a prior, and a clock (share the
    /// framework's clock so decay and challenge TTLs agree on "now").
    pub fn new(
        recorder: Arc<BehaviorRecorder>,
        prior: Arc<dyn FeatureSource>,
        settings: &OnlineSettings,
        clock: Arc<dyn TimeSource>,
    ) -> Self {
        BehavioralFeatureSource {
            recorder,
            prior,
            prior_strength: settings.prior_strength.max(0.0),
            clock,
        }
    }

    /// The underlying recorder.
    pub fn recorder(&self) -> &Arc<BehaviorRecorder> {
        &self.recorder
    }

    /// The feature vector for `ip` as of an explicit instant (the trait
    /// method uses the clock; scenarios and tests may pin time).
    pub fn features_at(&self, ip: IpAddr, now_ms: u64) -> FeatureVector {
        let prior = self.prior.features_for(ip);
        let Some(sketch) = self.recorder.sketch(ip, now_ms) else {
            return prior;
        };
        // Time-based decay: idle clients lose confidence on the half-life
        // timescale even before their event weight drains (see module
        // docs — this is what makes redemption independent of attack
        // intensity).
        let idle_ms = now_ms.saturating_sub(sketch.last_seen_ms) as f64;
        let freshness = 0.5f64.powf(idle_ms / self.recorder.half_life_ms() as f64);
        let confidence = freshness * sketch.events / (sketch.events + self.prior_strength);
        // NaN (0/0 when both the decayed weight and the prior strength
        // are zero) must fall back to the prior, like zero confidence.
        if confidence.is_nan() || confidence <= 0.0 {
            return prior;
        }
        let blend = |prior_v: f64, observed: f64| prior_v + confidence * (observed - prior_v);
        // One request carries no rate information; until a gap has been
        // observed, the rate lane stays at the prior.
        let rate = sketch.rate_hz().unwrap_or(prior.get(0));
        prior
            .with(0, blend(prior.get(0), rate))
            .with(1, blend(prior.get(1), sketch.abandon_ratio()))
            // Abuse weight is additive on top of the prior's blocklist
            // count: observed protocol abuse never *lowers* a static
            // blocklist signal.
            .with(6, prior.get(6) + confidence * sketch.abuse_weight())
            .with(8, blend(prior.get(8), sketch.jitter_ms()))
            .with(9, blend(prior.get(9), sketch.invalid_ratio()))
    }
}

impl FeatureSource for BehavioralFeatureSource {
    fn features_for(&self, ip: IpAddr) -> FeatureVector {
        self.features_at(ip, self.clock.now_ms())
    }
}

impl core::fmt::Debug for BehavioralFeatureSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BehavioralFeatureSource")
            .field("tracked", &self.recorder.len())
            .field("prior_strength", &self.prior_strength)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_core::tap::BehaviorSink;
    use aipow_core::{AuditEvent, AuditKind, StaticFeatureSource};
    use aipow_pow::{Difficulty, ManualClock, VerifyError};
    use aipow_reputation::ReputationScore;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 18, 1, last))
    }

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

    fn rejected(ip: IpAddr, at_ms: u64, error: VerifyError) -> AuditEvent {
        let kind = AuditKind::SolutionRejected { error };
        AuditEvent {
            at_ms,
            client_ip: ip,
            kind,
        }
    }

    fn prior_vector() -> FeatureVector {
        FeatureVector::zeros()
            .with(0, 2.0)
            .with(1, 0.05)
            .with(6, 0.5)
            .with(8, 120.0)
    }

    fn setup(
        half_life_ms: u64,
        prior_strength: f64,
    ) -> (Arc<BehaviorRecorder>, BehavioralFeatureSource, ManualClock) {
        let settings = OnlineSettings {
            half_life_ms,
            prior_strength,
            shard_count: Some(4),
            ..Default::default()
        };
        let recorder = Arc::new(BehaviorRecorder::new(&settings));
        let clock = ManualClock::at(0);
        let source = BehavioralFeatureSource::new(
            Arc::clone(&recorder),
            Arc::new(StaticFeatureSource::new(prior_vector())),
            &settings,
            Arc::new(clock.clone()),
        );
        (recorder, source, clock)
    }

    #[test]
    fn cold_client_is_exactly_the_prior() {
        let (_, source, _) = setup(10_000, 16.0);
        assert_eq!(source.features_for(ip(1)), prior_vector());
    }

    #[test]
    fn flooding_raises_rate_and_abandon_lanes() {
        let (recorder, source, clock) = setup(10_000, 16.0);
        // 100 rps flood, never solving.
        for i in 0..2_000u64 {
            recorder.on_events(&[issued(ip(2), i * 10)]);
        }
        clock.set(2_000 * 10);
        let f = source.features_for(ip(2));
        assert!(f.get(0) > 50.0, "rate lane {}", f.get(0));
        assert!(f.get(1) > 0.9, "abandon lane {}", f.get(1));
        // Unobserved lanes untouched.
        assert_eq!(f.get(3), prior_vector().get(3));
        assert_eq!(f.get(4), prior_vector().get(4));
    }

    #[test]
    fn invalid_spam_raises_abuse_lanes() {
        let (recorder, source, clock) = setup(10_000, 8.0);
        // One admitted request creates the sketch (failed solutions
        // alone never do); the spam then accrues against it.
        recorder.on_events(&[issued(ip(3), 0)]);
        for i in 0..50u64 {
            recorder.on_events(&[rejected(ip(3), i * 10, VerifyError::BadMac)]);
        }
        clock.set(500);
        let f = source.features_for(ip(3));
        assert!(
            f.get(6) > prior_vector().get(6) + 10.0,
            "blocklist lane {}",
            f.get(6)
        );
        assert!(f.get(9) > 0.8, "invalid lane {}", f.get(9));
    }

    #[test]
    fn convergence_toward_observed_is_monotone() {
        let (recorder, source, _) = setup(10_000, 16.0);
        // Constant-rate flood: lane 0 and lane 1 must be non-decreasing
        // over arrivals (confidence and decayed rate both rise).
        let mut last_rate = f64::NEG_INFINITY;
        let mut last_abandon = f64::NEG_INFINITY;
        for i in 0..500u64 {
            let now = i * 20;
            recorder.on_events(&[issued(ip(4), now)]);
            let f = source.features_at(ip(4), now);
            assert!(
                f.get(0) >= last_rate - 1e-9,
                "rate regressed at event {i}: {} < {last_rate}",
                f.get(0)
            );
            assert!(f.get(1) >= last_abandon - 1e-9);
            last_rate = f.get(0);
            last_abandon = f.get(1);
        }
        assert!(last_rate > 30.0, "converged rate {last_rate}");
    }

    #[test]
    fn redemption_decays_back_to_the_prior() {
        let (recorder, source, clock) = setup(1_000, 16.0);
        for i in 0..200u64 {
            recorder.on_events(&[issued(ip(5), i * 10)]);
        }
        clock.set(2_000);
        let hot = source.features_for(ip(5));
        assert!(hot.get(0) > 10.0);

        // 20 half-lives of silence: the behavioral signal is gone.
        clock.set(2_000 + 20_000);
        let cold = source.features_for(ip(5));
        assert!(
            (cold.get(0) - prior_vector().get(0)).abs() < 0.1,
            "rate lane {} should be back at prior {}",
            cold.get(0),
            prior_vector().get(0)
        );
        assert!((cold.get(1) - prior_vector().get(1)).abs() < 0.05);
    }

    #[test]
    fn zero_prior_strength_trusts_observation_immediately() {
        let (recorder, source, clock) = setup(10_000, 0.0);
        recorder.on_events(&[issued(ip(6), 0)]);
        clock.set(1);
        let f = source.features_for(ip(6));
        // confidence = 1 after a single event: lane 1 is fully observed.
        assert!(f.get(1) > 0.99, "abandon {}", f.get(1));
    }

    #[test]
    fn debug_impl_nonempty() {
        let (_, source, _) = setup(1_000, 1.0);
        assert!(!format!("{source:?}").is_empty());
    }
}
