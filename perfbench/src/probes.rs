//! What the benchmark injects into the framework: timing wrappers around
//! the reputation model and the policy, and the identity feed that plays
//! the paper's feature source.

use aipow_core::FeatureSource;
use aipow_policy::{Policy, PolicyContext};
use aipow_pow::Difficulty;
use aipow_reputation::{FeatureVector, ReputationModel, ReputationScore};
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and nanoseconds spent in one wrapped layer while tracing.
#[derive(Debug, Default)]
pub struct CallTimer {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallTimer {
    /// `(calls, nanoseconds)` accumulated so far.
    pub fn read(&self) -> (u64, u64) {
        // relaxed: statistics read between measurement slices
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }

    fn time<T>(&self, tracing: &AtomicBool, f: impl FnOnce() -> T) -> T {
        // relaxed: the flag gates statistics only and publishes no data
        if !tracing.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        // relaxed: independent statistics counters
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// The benchmark's spans: one switch and one timer per wrapped layer.
#[derive(Debug, Default)]
pub struct Probes {
    /// Whether the wrappers time their calls (traced slices only).
    pub tracing: AtomicBool,
    /// `ReputationModel::score` calls.
    pub score: CallTimer,
    /// `Policy::difficulty_for` calls.
    pub policy: CallTimer,
}

/// A reputation model whose `score` calls are timed while tracing.
pub struct TimedModel<M> {
    inner: M,
    probes: Arc<Probes>,
}

impl<M> TimedModel<M> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: M, probes: Arc<Probes>) -> Self {
        TimedModel { inner, probes }
    }
}

impl<M: ReputationModel> ReputationModel for TimedModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, features: &FeatureVector) -> ReputationScore {
        self.probes
            .score
            .time(&self.probes.tracing, || self.inner.score(features))
    }

    fn malicious_threshold(&self) -> f64 {
        self.inner.malicious_threshold()
    }
}

/// A policy whose `difficulty_for` calls are timed while tracing.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    probes: Arc<Probes>,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`, recording into `probes`.
    pub fn new(inner: P, probes: Arc<Probes>) -> Self {
        TimedPolicy { inner, probes }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn difficulty_for(&self, score: ReputationScore, ctx: &PolicyContext) -> Difficulty {
        self.probes.policy.time(&self.probes.tracing, || {
            self.inner.difficulty_for(score, ctx)
        })
    }
}

/// Feature source for the attack scenario: each lookup hands out the next
/// identity of the caller's class, so one connection stands for a stream
/// of distinct clients of that class. The server looks features up once
/// per group of pipelined requests.
#[derive(Debug)]
pub struct IdentityFeed {
    flooder_ip: IpAddr,
    benign: Vec<FeatureVector>,
    malicious: Vec<FeatureVector>,
    next_benign: AtomicUsize,
    next_malicious: AtomicUsize,
}

impl IdentityFeed {
    /// Serves `malicious` identities to `flooder_ip` and `benign` ones to
    /// every other address, each in the given order, wrapping around.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty.
    pub fn new(
        flooder_ip: IpAddr,
        benign: Vec<FeatureVector>,
        malicious: Vec<FeatureVector>,
    ) -> Self {
        assert!(
            !benign.is_empty() && !malicious.is_empty(),
            "both identity classes need members"
        );
        IdentityFeed {
            flooder_ip,
            benign,
            malicious,
            next_benign: AtomicUsize::new(0),
            next_malicious: AtomicUsize::new(0),
        }
    }
}

impl FeatureSource for IdentityFeed {
    fn features_for(&self, ip: IpAddr) -> FeatureVector {
        let (list, next) = if ip == self.flooder_ip {
            (&self.malicious, &self.next_malicious)
        } else {
            (&self.benign, &self.next_benign)
        };
        // relaxed: a ticket counter; no other data hangs off it
        list[next.fetch_add(1, Ordering::Relaxed) % list.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    #[test]
    fn feed_cycles_each_class_in_order() {
        let flooder = IpAddr::V6(Ipv6Addr::LOCALHOST);
        let benign: Vec<_> = (0..2)
            .map(|i| FeatureVector::zeros().with(0, i as f64))
            .collect();
        let bad: Vec<_> = (0..3)
            .map(|i| FeatureVector::zeros().with(0, 10.0 + i as f64))
            .collect();
        let feed = IdentityFeed::new(flooder, benign, bad);
        let v4 = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let firsts: Vec<f64> = [v4, flooder, v4, flooder, v4, flooder, flooder]
            .iter()
            .map(|&ip| feed.features_for(ip).get(0))
            .collect();
        assert_eq!(firsts, [0.0, 10.0, 1.0, 11.0, 0.0, 12.0, 10.0]);
    }

    #[test]
    fn wrappers_time_only_while_tracing() {
        let probes = Arc::new(Probes::default());
        let model = TimedModel::new(
            aipow_reputation::model::FixedScoreModel::new(ReputationScore::MIN),
            Arc::clone(&probes),
        );
        let policy = TimedPolicy::new(aipow_policy::LinearPolicy::policy1(), Arc::clone(&probes));
        let ctx = PolicyContext::default();
        model.score(&FeatureVector::zeros());
        policy.difficulty_for(ReputationScore::MIN, &ctx);
        assert_eq!(probes.score.read().0, 0);
        probes.tracing.store(true, Ordering::Relaxed);
        assert_eq!(model.score(&FeatureVector::zeros()), ReputationScore::MIN);
        assert_eq!(policy.difficulty_for(ReputationScore::MIN, &ctx).bits(), 1);
        assert_eq!(probes.score.read().0, 1);
        assert_eq!(probes.policy.read().0, 1);
        assert_eq!(model.name(), "fixed");
        assert_eq!(policy.name(), "policy1");
    }
}
