//! Behavioral taps on the admission pipeline.
//!
//! The paper's AI model "inspects the features of the request as input" —
//! but a deployment has to *produce* those features from somewhere. The
//! [`BehaviorSink`] trait is the framework's outbound half of that loop:
//! [`Framework`](crate::Framework) reports every admission decision and
//! every verification outcome to an attached sink, and an online feature
//! extractor (see the `aipow-online` crate) turns the stream into live
//! per-client sketches that feed back into the model via
//! [`FeatureSource`](crate::FeatureSource).
//!
//! A decision is recorded once, as an [`AuditEvent`]: the sink reads the
//! same batch of events the [`AuditLog`](crate::AuditLog) keeps.
//!
//! The tap is designed for the hot path:
//!
//! - the framework stores the sink in a [`std::sync::OnceLock`], so the
//!   per-request cost when no sink is attached is one atomic load and a
//!   branch — no lock, ever;
//! - sink implementations are expected to shard their own state (the
//!   `aipow-online` recorder is built on `aipow-shard`), so two clients
//!   never contend on a sink-global lock;
//! - each telemetry stage delivers its whole batch in one call, so a
//!   sharded sink takes each shard lock once per batch.

use crate::AuditEvent;
use std::net::IpAddr;

/// Observes admission events emitted by [`Framework`](crate::Framework).
///
/// Implementations must be cheap and non-blocking: the framework calls
/// them synchronously on the request and solution paths.
pub trait BehaviorSink: Send + Sync {
    /// A batch of admission decisions, in admission order: the events
    /// one telemetry stage is about to append to the audit log.
    fn on_events(&self, events: &[AuditEvent]);

    /// A resource request was rejected upstream of the framework (e.g.
    /// by the server's per-IP rate limiter) and never reached
    /// [`Framework::handle_request`](crate::Framework::handle_request).
    ///
    /// Default: no-op. Recorders should count these toward the client's
    /// arrival rate — the heaviest flooders are precisely the clients
    /// whose requests mostly die at the limiter, and a tap blind to them
    /// would score them *better* than moderate clients.
    fn on_rate_limited(&self, _ip: IpAddr, _now_ms: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuditKind;
    use aipow_pow::VerifyError;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingSink(AtomicU64);

    impl BehaviorSink for CountingSink {
        fn on_events(&self, events: &[AuditEvent]) {
            self.0.fetch_add(events.len() as u64, Ordering::Relaxed);
        }
    }

    #[test]
    fn sink_is_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<std::sync::Arc<dyn BehaviorSink>>();
        let sink = CountingSink::default();
        let dyn_sink: &dyn BehaviorSink = &sink;
        let event = AuditEvent {
            at_ms: 0,
            client_ip: "192.0.2.1".parse().unwrap(),
            kind: AuditKind::SolutionRejected {
                error: VerifyError::BadMac,
            },
        };
        dyn_sink.on_events(&[event.clone(), event]);
        dyn_sink.on_rate_limited("192.0.2.1".parse().unwrap(), 0);
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }
}
