//! The tracer: trace-ID allotment, sampling, sharded span recording, and
//! the flight-recorder front door.

use crate::recorder::{FlightDump, FlightRecorder, TriggerConfig, TriggerStats};
use crate::ring::SpanRing;
use crate::span::SpanEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Construction-time knobs for a [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Sample 1 in `sample_every` requests (1 = every request). 0 disables
    /// sampling entirely; only forced traces are recorded.
    pub sample_every: u64,
    /// Total span capacity across all ring shards (the flight-recorder
    /// window: how far back a dump can see).
    pub ring_capacity: usize,
    /// Number of ring shards; rounded up to a power of two. One trace's
    /// spans always land in one shard, in emission order.
    pub shards: usize,
    /// Automatic flight-recorder trip thresholds.
    pub triggers: TriggerConfig,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            ring_capacity: 4_096,
            shards: 8,
            triggers: TriggerConfig::default(),
        }
    }
}

/// The process-wide tracing hub.
///
/// All emission-path methods are lock-free or `try_lock`-only: a recorder
/// never blocks, it drops the span and counts the drop. Everything heavier
/// (snapshots, dumps) lives behind the flight recorder and is explicitly
/// off the admission path.
pub struct Tracer {
    sample_every: u64,
    shard_mask: u64,
    sample_clock: AtomicU64,
    next_id: AtomicU64,
    epoch: Instant,
    rings: Vec<SpanRing>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    flight: FlightRecorder,
}

impl Tracer {
    /// Builds a tracer. Ring memory (`ring_capacity` spans, 64 B each) is
    /// reserved up front so the emission path never allocates.
    pub fn new(config: TraceConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        let per_shard = (config.ring_capacity / shards).max(1);
        Tracer {
            sample_every: config.sample_every,
            shard_mask: shards as u64 - 1,
            sample_clock: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            rings: (0..shards).map(|_| SpanRing::new(per_shard)).collect(),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            flight: FlightRecorder::new(config.triggers),
        }
    }

    /// The configured 1-in-N sampling rate.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Decides whether the next request is sampled; returns a fresh
    /// nonzero trace ID if so, 0 (untraced) otherwise.
    pub fn begin_trace(&self) -> u64 {
        if self.sample_every == 0 {
            return 0;
        }
        // relaxed: the clock is a statistical sampler, not a
        // synchronization point; ties across threads only shift which
        // request is sampled.
        let tick = self.sample_clock.fetch_add(1, Ordering::Relaxed);
        if tick.is_multiple_of(self.sample_every) {
            self.next_trace_id()
        } else {
            0
        }
    }

    /// Allocates a trace ID unconditionally — for spans that must always
    /// be recorded (online-loop decisions, scenario harnesses).
    pub fn begin_trace_forced(&self) -> u64 {
        self.next_trace_id()
    }

    fn next_trace_id(&self) -> u64 {
        // relaxed: IDs only need uniqueness, which fetch_add provides.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds between the tracer's epoch and `instant`.
    pub fn ns_since_epoch(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span. Spans with `trace_id == 0` (unsampled) are ignored;
    /// spans that lose the shard `try_lock` race are dropped and counted.
    pub fn record(&self, span: SpanEvent) {
        if span.trace_id == 0 {
            return;
        }
        let shard = (span.trace_id & self.shard_mask) as usize;
        // relaxed: drop/record tallies are monitoring cells.
        if self.rings[shard].try_push(span) {
            self.recorded.fetch_add(1, Ordering::Relaxed); // relaxed: monitoring tally
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed); // relaxed: monitoring tally
        }
    }

    /// Spans successfully recorded since construction.
    pub fn recorded(&self) -> u64 {
        // relaxed: monitoring read.
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans dropped to shard contention since construction.
    pub fn dropped(&self) -> u64 {
        // relaxed: monitoring read.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies every ring's current contents, shard by shard, each shard in
    /// emission order. Blocking (snapshot path, not emission).
    pub fn spans(&self) -> Vec<SpanEvent> {
        let mut all = Vec::new();
        for ring in &self.rings {
            all.extend(ring.snapshot());
        }
        all
    }

    /// Whether the flight recorder has tripped.
    pub fn flight_tripped(&self) -> bool {
        self.flight.tripped()
    }

    /// Trips the flight recorder now (e.g. on an under-attack flip),
    /// freezing the current ring contents. Returns `false` if already
    /// tripped.
    pub fn trip_flight_recorder(&self, reason: &str) -> bool {
        let spans = self.spans();
        self.flight.trip(reason, &spans)
    }

    /// Feeds the threshold triggers one reading; trips and returns the
    /// reason if a threshold is breached (and the latch was free).
    pub fn check_triggers(&self, stats: &TriggerStats) -> Option<&'static str> {
        let reason = self.flight.breached(stats)?;
        if self.trip_flight_recorder(reason) {
            Some(reason)
        } else {
            None
        }
    }

    /// The frozen dump, if the recorder has tripped.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.flight.dump()
    }
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every)
            .field("shards", &self.rings.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .field("flight_tripped", &self.flight_tripped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, slot: u8) -> SpanEvent {
        let mut s = SpanEvent::empty();
        s.trace_id = trace_id;
        s.slot = slot;
        s
    }

    #[test]
    fn sampling_rate_is_one_in_n() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        });
        let sampled = (0..100).filter(|_| tracer.begin_trace() != 0).count();
        assert_eq!(sampled, 25);
    }

    #[test]
    fn sample_every_zero_disables_sampling() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        assert!((0..50).all(|_| tracer.begin_trace() == 0));
        assert_ne!(tracer.begin_trace_forced(), 0, "forced traces still work");
    }

    #[test]
    fn trace_ids_are_distinct_and_nonzero() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        let ids: Vec<u64> = (0..64).map(|_| tracer.begin_trace()).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn unsampled_spans_are_ignored() {
        let tracer = Tracer::new(TraceConfig::default());
        tracer.record(span(0, 0));
        assert_eq!(tracer.recorded(), 0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn one_trace_lands_in_one_shard_in_order() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 1_024,
            shards: 8,
            triggers: TriggerConfig::default(),
        });
        for slot in 0..5u8 {
            tracer.record(span(13, slot));
        }
        let spans = tracer.spans();
        let slots: Vec<u8> = spans
            .iter()
            .filter(|s| s.trace_id == 13)
            .map(|s| s.slot)
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn under_attack_trip_freezes_current_spans() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        tracer.record(span(1, 0));
        tracer.record(span(1, 1));
        assert!(tracer.trip_flight_recorder("under_attack"));
        tracer.record(span(2, 0)); // after the freeze; not in the dump
        let dump = tracer.flight_dump().expect("dump after trip");
        assert_eq!(dump.reason, "under_attack");
        assert_eq!(dump.spans, 2);
        assert!(!tracer.trip_flight_recorder("rejection_rate"));
    }

    #[test]
    fn trigger_check_trips_once() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 1,
            triggers: TriggerConfig {
                max_rejections_per_s: 10.0,
                max_stage_p99_ns: 0,
            },
            ..TraceConfig::default()
        });
        let quiet = TriggerStats {
            rejections_per_s: 1.0,
            worst_stage_p99_ns: 0,
        };
        let noisy = TriggerStats {
            rejections_per_s: 100.0,
            worst_stage_p99_ns: 0,
        };
        assert_eq!(tracer.check_triggers(&quiet), None);
        assert!(!tracer.flight_tripped());
        assert_eq!(tracer.check_triggers(&noisy), Some("rejection_rate"));
        assert!(tracer.flight_tripped());
        assert_eq!(tracer.check_triggers(&noisy), None, "latched");
    }

    #[test]
    fn concurrent_recording_accounts_for_every_span() {
        use std::sync::Arc;
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 64, // small: forces eviction, not loss of count
            shards: 4,
            triggers: TriggerConfig::default(),
        }));
        let threads = 4;
        let per_thread = 5_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let tracer = Arc::clone(&tracer);
                s.spawn(move || {
                    for i in 0..per_thread {
                        tracer.record(span(t * per_thread + i + 1, 0));
                    }
                });
            }
        });
        assert_eq!(
            tracer.recorded() + tracer.dropped(),
            threads * per_thread,
            "every record call must be tallied exactly once"
        );
    }
}
