//! The sharded per-client behavior recorder.
//!
//! Every admission event the framework emits (an
//! [`aipow_core::AuditEvent`], via [`aipow_core::tap::BehaviorSink`])
//! lands in one per-client [`ClientSketch`]: exponentially-decayed
//! counters plus [`OnlineStats`] sketches of inter-arrival gaps and solve
//! latency.
//! Decay is *lazy* — each sketch stores the instant it was last decayed
//! and catches up on touch or read — so an idle client's reputation
//! recovers purely as a function of elapsed time, with no background
//! work required for correctness. The periodic sweep (see
//! [`crate::worker`]) exists only to prune fully-decayed sketches and
//! refresh gauges.
//!
//! Concurrency: the sketch table is an `aipow-shard` [`ShardedMap`], so
//! taps for different clients take different shard locks and the
//! admission path gains no global lock. The capacity bound is enforced
//! **per shard** (`capacity / shard_count` sketches each): an insert
//! into a full shard evicts that shard's least-recently-seen sketch
//! (cheapest-eviction, like the cost ledger's smallest-account rule)
//! under the same single lock acquisition, so even an attacker cycling
//! fresh source addresses at flood rate — the insert-at-capacity worst
//! case — costs one bounded shard scan per request, never an all-shard
//! sweep.

use aipow_core::tap::BehaviorSink;
use aipow_core::{AuditEvent, AuditKind, OnlineSettings};
use aipow_metrics::{Counter, OnlineStats};
use aipow_pow::VerifyError;
use aipow_shard::{ShardLayout, ShardedMap};
use std::net::IpAddr;

/// Smoothing factor for the inter-arrival EWMA: each new gap contributes
/// 30 %, so a behavior shift dominates the estimate within ~7 requests
/// while a single outlier gap moves it only modestly.
const EWMA_ALPHA: f64 = 0.3;

/// The eviction score (smallest = evicted first): conceptually
/// `last_seen_ms`, but abuse holds the sketch as if it were seen up to
/// [`MAX_ABUSE_HOLD_HALF_LIVES`] half-lives more recently. An
/// address-cycling attacker therefore cannot cheaply flush its own abuse
/// history out of the table — the abusive sketch outlives a full table
/// turnover for as long as the abuse signal itself matters (scores decay
/// back under thresholds within a few half-lives anyway). The cap cuts
/// the other way too: it bounds how long an attacker who *wants* its
/// junk sketches retained can pin shard slots — holding a slot costs a
/// refresh every few half-lives per address, and an evicted honest
/// client meanwhile scores the prior (pre-loop behaviour) and rebuilds
/// its sketch on its next requests. With bounded memory and free
/// addresses one of the two pressures always exists; the cap sizes the
/// trade to the signal's own lifetime. Scores compare sketches decayed
/// at slightly different instants (uniform decay preserves ordering to
/// first order), which is fine for choosing a victim.
const MAX_ABUSE_HOLD_HALF_LIVES: f64 = 4.0;

fn eviction_score(sketch: &ClientSketch, half_life_ms: u64) -> f64 {
    sketch.last_seen_ms as f64
        + sketch.abuse_weight().min(MAX_ABUSE_HOLD_HALF_LIVES) * half_life_ms as f64
}

/// One client's decayed behavioral state.
///
/// All `f64` counters are *exponentially decayed event weights*: an event
/// adds 1, and the whole counter halves every
/// [`OnlineSettings::half_life_ms`]. At steady state a counter therefore
/// approximates `rate × half_life / ln 2`, which is how
/// [`ClientSketch::rate_hz`] recovers the arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSketch {
    /// First event, ms since epoch.
    pub first_seen_ms: u64,
    /// Most recent event, ms since epoch.
    pub last_seen_ms: u64,
    /// Instant the decayed counters were last brought current.
    pub decayed_at_ms: u64,
    /// Decayed count of all observed events (requests + solutions).
    pub events: f64,
    /// Decayed count of resource requests.
    pub requests: f64,
    /// Decayed count of challenges issued.
    pub challenged: f64,
    /// Decayed count of bypass admissions.
    pub bypassed: f64,
    /// Decayed count of accepted solutions.
    pub accepted: f64,
    /// Decayed count of invalid solutions (any rejection except replay).
    pub invalid: f64,
    /// Decayed count of replayed solutions.
    pub replayed: f64,
    /// EWMA of request inter-arrival gaps, ms (`None` until a second
    /// request has been seen). The observed request rate is its
    /// reciprocal, so a single stray request never reads as a rate spike.
    pub ewma_gap_ms: Option<f64>,
    /// Inter-arrival gaps between requests, ms (undecayed sketch).
    pub gap_ms: OnlineStats,
    /// Challenge-issue → accepted-solution latency, ms (undecayed sketch).
    pub solve_ms: OnlineStats,
    /// Instant of the most recent issued challenge (for solve latency).
    last_challenge_ms: Option<u64>,
    /// Instant of the most recent request (for inter-arrival gaps).
    last_request_ms: Option<u64>,
}

impl ClientSketch {
    fn new(now_ms: u64) -> Self {
        ClientSketch {
            first_seen_ms: now_ms,
            last_seen_ms: now_ms,
            decayed_at_ms: now_ms,
            events: 0.0,
            requests: 0.0,
            challenged: 0.0,
            bypassed: 0.0,
            accepted: 0.0,
            invalid: 0.0,
            replayed: 0.0,
            ewma_gap_ms: None,
            gap_ms: OnlineStats::new(),
            solve_ms: OnlineStats::new(),
            last_challenge_ms: None,
            last_request_ms: None,
        }
    }

    /// Brings every decayed counter current to `now_ms`.
    pub fn decay_to(&mut self, now_ms: u64, half_life_ms: u64) {
        if now_ms <= self.decayed_at_ms {
            return;
        }
        let dt = (now_ms - self.decayed_at_ms) as f64;
        let factor = 0.5f64.powf(dt / half_life_ms as f64);
        self.events *= factor;
        self.requests *= factor;
        self.challenged *= factor;
        self.bypassed *= factor;
        self.accepted *= factor;
        self.invalid *= factor;
        self.replayed *= factor;
        self.decayed_at_ms = now_ms;
    }

    /// Observed request rate in requests/second: the reciprocal of the
    /// inter-arrival EWMA. `None` until two requests have been seen (one
    /// request carries no rate information). For a client arriving at a
    /// constant rate the estimate equals that rate from the second
    /// request on; gaps are floored at 1 ms, capping the per-client
    /// estimate at 1 000 req/s.
    pub fn rate_hz(&self) -> Option<f64> {
        self.ewma_gap_ms.map(|gap| 1_000.0 / gap)
    }

    /// Fraction of issued challenges never redeemed, in `[0, 1]`.
    /// A flood client (requests puzzles, never solves) converges to 1;
    /// a diligent client stays near 0 (one in-flight challenge at most).
    pub fn abandon_ratio(&self) -> f64 {
        if self.challenged <= 0.0 {
            return 0.0;
        }
        ((self.challenged - self.accepted).max(0.0) / self.challenged).clamp(0.0, 1.0)
    }

    /// Fraction of submitted solutions that were invalid (replay
    /// excluded), in `[0, 1]`.
    pub fn invalid_ratio(&self) -> f64 {
        let submitted = self.accepted + self.invalid;
        if submitted <= 0.0 {
            return 0.0;
        }
        (self.invalid / submitted).clamp(0.0, 1.0)
    }

    /// Decayed count of protocol-abuse events (invalid + replayed
    /// solutions) — the live analog of blocklist appearances.
    pub fn abuse_weight(&self) -> f64 {
        self.invalid + self.replayed
    }

    /// Standard deviation of request inter-arrival gaps in ms (0 until
    /// two gaps have been observed).
    pub fn jitter_ms(&self) -> f64 {
        self.gap_ms.stddev().unwrap_or(0.0)
    }
}

/// Sharded per-client behavior state fed by the framework's tap.
///
/// ```
/// use aipow_core::tap::BehaviorSink;
/// use aipow_core::{AuditEvent, AuditKind, OnlineSettings};
/// use aipow_online::BehaviorRecorder;
/// use aipow_reputation::ReputationScore;
/// # use std::net::{IpAddr, Ipv4Addr};
///
/// let recorder = BehaviorRecorder::new(&OnlineSettings::default());
/// let ip = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9));
/// let kind = AuditKind::Bypassed { score: ReputationScore::MIN };
/// recorder.on_events(&[AuditEvent { at_ms: 1_000, client_ip: ip, kind }]);
/// assert_eq!(recorder.len(), 1);
/// assert!(recorder.sketch(ip, 1_000).unwrap().requests > 0.9);
/// ```
#[derive(Debug)]
pub struct BehaviorRecorder {
    sketches: ShardedMap<IpAddr, ClientSketch>,
    /// Capacity bound per shard (`capacity / shard_count`, min 1): the
    /// eviction scan must stay bounded and lock-local even when an
    /// attacker cycles source addresses at flood rate.
    per_shard_capacity: usize,
    half_life_ms: u64,
    /// Total requests observed, ever (lock-free; the decay worker
    /// differentiates this into an aggregate arrival rate).
    total_requests: Counter,
    /// Sketches dropped by the capacity bound, cumulative.
    evicted: Counter,
}

impl BehaviorRecorder {
    /// Creates a recorder from the shared online settings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `half_life_ms` is zero (call
    /// [`OnlineSettings::validate`] first for a `Result`).
    pub fn new(settings: &OnlineSettings) -> Self {
        assert!(settings.capacity > 0, "recorder capacity must be positive");
        assert!(settings.half_life_ms > 0, "half-life must be positive");
        assert!(
            settings.max_scan > 0,
            "eviction scan bound must be positive"
        );
        // The shared bounded-eviction layout (the recorder was its proof
        // of concept; the rate limiter and cost ledger now use the same
        // selection): shard count raised so no victim scan exceeds
        // `max_scan`, capped at capacity and floored to a power of two
        // so the population bound never exceeds the configured capacity
        // — which itself is clamped to what MAX_SHARDS shards can honor
        // rather than silently stretching the scan.
        let layout =
            ShardLayout::bounded(settings.capacity, settings.shard_count, settings.max_scan);
        let sketches = ShardedMap::new(layout.shard_count);
        let per_shard_capacity = layout.per_shard_capacity;
        BehaviorRecorder {
            sketches,
            per_shard_capacity,
            half_life_ms: settings.half_life_ms,
            total_requests: Counter::new(),
            evicted: Counter::new(),
        }
    }

    /// Number of clients currently tracked.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Whether no clients are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards the sketch table is split over.
    pub fn shard_count(&self) -> usize {
        self.sketches.shard_count()
    }

    /// The decay half-life in milliseconds.
    pub fn half_life_ms(&self) -> u64 {
        self.half_life_ms
    }

    /// Total requests observed since construction (monotonic).
    pub fn total_requests(&self) -> u64 {
        self.total_requests.get()
    }

    /// Sketches evicted by the capacity bound, cumulative.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// A copy of `ip`'s sketch with decay applied through `now_ms`, or
    /// `None` for a never-seen (or fully pruned) client.
    pub fn sketch(&self, ip: IpAddr, now_ms: u64) -> Option<ClientSketch> {
        let mut sketch = self.sketches.get_cloned(&ip)?;
        sketch.decay_to(now_ms, self.half_life_ms);
        Some(sketch)
    }

    /// Removes sketches whose decayed event weight at `now_ms` has fallen
    /// below `prune_below` (the client is fully forgotten — redemption
    /// complete). Returns the number pruned.
    pub fn prune(&self, now_ms: u64, prune_below: f64) -> usize {
        let half_life = self.half_life_ms;
        let mut pruned = 0;
        self.sketches.retain(|_, sketch| {
            sketch.decay_to(now_ms, half_life);
            let keep = sketch.events >= prune_below;
            if !keep {
                pruned += 1;
            }
            keep
        });
        pruned
    }

    /// Folds over all decayed sketches (shard by shard; not a consistent
    /// global snapshot).
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, IpAddr, &ClientSketch) -> A) -> A {
        self.sketches
            .fold(init, |acc, ip, sketch| f(acc, *ip, sketch))
    }
}

/// The per-event bookkeeping every tap shares: catch decay up, add the
/// event's weight, advance the recency stamp.
fn bump(sketch: &mut ClientSketch, now_ms: u64, half_life_ms: u64) {
    sketch.decay_to(now_ms, half_life_ms);
    sketch.events += 1.0;
    sketch.last_seen_ms = sketch.last_seen_ms.max(now_ms);
}

/// The request-arrival bookkeeping shared by admitted and rate-limited
/// requests: the request counter plus the inter-arrival gap sketches.
fn note_request_arrival(sketch: &mut ClientSketch, now_ms: u64) {
    sketch.requests += 1.0;
    if let Some(prev) = sketch.last_request_ms {
        let gap = (now_ms.saturating_sub(prev) as f64).max(1.0);
        sketch.gap_ms.push(gap);
        sketch.ewma_gap_ms = Some(match sketch.ewma_gap_ms {
            Some(ewma) => ewma + EWMA_ALPHA * (gap - ewma),
            None => gap,
        });
    }
    sketch.last_request_ms = Some(now_ms);
}

/// Applies one admission event to its client's sketch: every sketch rule,
/// written once.
fn apply_event(sketch: &mut ClientSketch, event: &AuditEvent, half_life_ms: u64) {
    let now_ms = event.at_ms;
    bump(sketch, now_ms, half_life_ms);
    match &event.kind {
        AuditKind::ChallengeIssued { .. } => {
            note_request_arrival(sketch, now_ms);
            sketch.challenged += 1.0;
            sketch.last_challenge_ms = Some(now_ms);
        }
        AuditKind::Bypassed { .. } => {
            note_request_arrival(sketch, now_ms);
            sketch.bypassed += 1.0;
        }
        AuditKind::SolutionAccepted { .. } => {
            sketch.accepted += 1.0;
            if let Some(issued) = sketch.last_challenge_ms.take() {
                sketch.solve_ms.push(now_ms.saturating_sub(issued) as f64);
            }
        }
        // Expiry and clock skew are not abuse: an honest-but-slow client
        // must read as abandonment, or slow clients spiral toward max
        // difficulty.
        AuditKind::SolutionRejected { error } => match error {
            VerifyError::Replayed => sketch.replayed += 1.0,
            VerifyError::Expired { .. } | VerifyError::NotYetValid => {}
            _ => sketch.invalid += 1.0,
        },
    }
}

impl BehaviorSink for BehaviorRecorder {
    fn on_rate_limited(&self, ip: IpAddr, now_ms: u64) {
        // A limiter rejection is still an arrival: the heaviest flooders
        // are exactly the clients whose requests mostly die at the
        // limiter, and their rate lane (and the derived aggregate load)
        // must reflect what they *attempted*, not the admitted trickle.
        // But denied requests update only *existing* sketches — creating
        // state must cost an admitted request, or the limiter's rejects
        // would hand an address-cycling attacker a free table-filling
        // (and thus eviction-pressure) primitive.
        self.total_requests.inc();
        let half_life = self.half_life_ms;
        self.sketches.with_mut(&ip, |sketch| {
            bump(sketch, now_ms, half_life);
            note_request_arrival(sketch, now_ms);
        });
    }

    /// Each event updates its client's decayed sketch. Requests and
    /// accepted solutions create the sketch if absent, evicting the
    /// shard's least-recently-seen sketch when the shard is at capacity;
    /// an accepted solution was *paid for* in hashes, so neither is a
    /// spammable state-creation primitive. Rejected solutions update only
    /// *existing* sketches: SubmitSolution is not rate-limited (the
    /// client supposedly already paid), so letting a garbage solution
    /// create a sketch — one whose abuse weight makes it eviction-sticky
    /// — would let an address-cycling attacker fill the table with junk
    /// that displaces idle honest clients' history for free. A pure
    /// solution-spammer with no admitted request leaves no state; the
    /// verifier already rejects it cheaply.
    ///
    /// One lock acquisition per recorder shard per batch; within a
    /// shard, events apply in their original batch order. The per-shard
    /// eviction protocol
    /// ([`ShardHandle::update_or_insert_evicting`](aipow_shard::ShardHandle::update_or_insert_evicting))
    /// bounds the victim scan by `capacity / shard_count` — the tap sits
    /// on the admission hot path, and an attacker cycling source
    /// addresses drives exactly the insert-at-capacity case, so an
    /// all-shard victim scan here would hand the flood a per-request
    /// O(capacity) amplifier.
    fn on_events(&self, events: &[AuditEvent]) {
        let half_life = self.half_life_ms;
        let mut requests = 0u64;
        let mut evicted_count = 0u64;
        let items: Vec<(IpAddr, &AuditEvent)> = events
            .iter()
            .map(|event| (event.client_ip, event))
            .collect();
        self.sketches
            .with_shards_grouped(items, |shard, ip, event| {
                let apply = |sketch: &mut ClientSketch| apply_event(sketch, event, half_life);
                match event.kind {
                    AuditKind::SolutionRejected { .. } => {
                        if let Some(sketch) = shard.get_mut(&ip) {
                            apply(sketch);
                        }
                        return;
                    }
                    AuditKind::ChallengeIssued { .. } | AuditKind::Bypassed { .. } => requests += 1,
                    AuditKind::SolutionAccepted { .. } => {}
                }
                let (_, evicted) = shard.update_or_insert_evicting(
                    ip,
                    self.per_shard_capacity,
                    |sketch: &ClientSketch| eviction_score(sketch, half_life),
                    || ClientSketch::new(event.at_ms),
                    apply,
                );
                evicted_count += u64::from(evicted);
            });
        if requests > 0 {
            self.total_requests.add(requests);
        }
        if evicted_count > 0 {
            self.evicted.add(evicted_count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_pow::Difficulty;
    use aipow_reputation::ReputationScore;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 18, 0, last))
    }

    fn settings(half_life_ms: u64) -> OnlineSettings {
        OnlineSettings {
            half_life_ms,
            shard_count: Some(8),
            ..Default::default()
        }
    }

    fn event(ip: IpAddr, at_ms: u64, kind: AuditKind) -> AuditEvent {
        AuditEvent {
            at_ms,
            client_ip: ip,
            kind,
        }
    }

    fn issued(ip: IpAddr, at_ms: u64) -> AuditEvent {
        let kind = AuditKind::ChallengeIssued {
            score: ReputationScore::MIN,
            difficulty: Difficulty::new(5).unwrap(),
        };
        event(ip, at_ms, kind)
    }

    fn bypassed(ip: IpAddr, at_ms: u64) -> AuditEvent {
        let kind = AuditKind::Bypassed {
            score: ReputationScore::MIN,
        };
        event(ip, at_ms, kind)
    }

    fn accepted(ip: IpAddr, at_ms: u64) -> AuditEvent {
        let kind = AuditKind::SolutionAccepted {
            difficulty: Difficulty::new(5).unwrap(),
        };
        event(ip, at_ms, kind)
    }

    fn rejected(ip: IpAddr, at_ms: u64, error: VerifyError) -> AuditEvent {
        event(ip, at_ms, AuditKind::SolutionRejected { error })
    }

    #[test]
    fn requests_accumulate_and_decay() {
        let r = BehaviorRecorder::new(&settings(1_000));
        for t in 0..10u64 {
            r.on_events(&[issued(ip(1), t * 100)]);
        }
        let fresh = r.sketch(ip(1), 900).unwrap();
        assert!(fresh.requests > 5.0, "requests {}", fresh.requests);
        assert_eq!(r.total_requests(), 10);

        // Ten half-lives later the weight is ~1/1024 of what it was.
        let stale = r.sketch(ip(1), 900 + 10_000).unwrap();
        assert!(stale.requests < 0.01, "requests {}", stale.requests);
        // The stored sketch is untouched by reads.
        assert!(r.sketch(ip(1), 900).unwrap().requests > 5.0);
    }

    #[test]
    fn rate_recovers_arrival_rate_at_steady_state() {
        let r = BehaviorRecorder::new(&settings(2_000));
        // 50 requests/s for 10 s (well past the 2 s half-life).
        for i in 0..500u64 {
            r.on_events(&[issued(ip(2), i * 20)]);
        }
        let sketch = r.sketch(ip(2), 500 * 20).unwrap();
        let rate = sketch.rate_hz().unwrap();
        assert!(
            (rate - 50.0).abs() < 1e-9,
            "steady-state rate {rate:.3} should be exactly 50 rps"
        );
    }

    #[test]
    fn abandon_and_invalid_ratios() {
        let r = BehaviorRecorder::new(&settings(60_000));
        // A diligent client: every challenge solved.
        for t in 0..20u64 {
            r.on_events(&[issued(ip(3), t * 100)]);
            r.on_events(&[accepted(ip(3), t * 100 + 50)]);
        }
        let good = r.sketch(ip(3), 2_000).unwrap();
        assert!(good.abandon_ratio() < 0.05, "{}", good.abandon_ratio());
        assert_eq!(good.invalid_ratio(), 0.0);
        assert!(good.solve_ms.mean() > 0.0);

        // A flooder: challenges, never a solution.
        for t in 0..20u64 {
            r.on_events(&[issued(ip(4), t * 100)]);
        }
        let flood = r.sketch(ip(4), 2_000).unwrap();
        assert!(flood.abandon_ratio() > 0.9, "{}", flood.abandon_ratio());

        // An invalid-spammer: one admitted request (which creates the
        // sketch), then garbage solutions only.
        r.on_events(&[issued(ip(5), 0)]);
        for t in 0..20u64 {
            r.on_events(&[rejected(ip(5), t * 100, VerifyError::BadMac)]);
        }
        let spam = r.sketch(ip(5), 2_000).unwrap();
        assert_eq!(spam.invalid_ratio(), 1.0);
        assert!(spam.abuse_weight() > 15.0);
    }

    #[test]
    fn denied_requests_never_create_sketches() {
        let r = BehaviorRecorder::new(&settings(10_000));
        r.on_rate_limited(ip(11), 100);
        assert!(r.is_empty(), "a denied request must not create state");
        assert_eq!(r.total_requests(), 1); // still counted for load
    }

    #[test]
    fn abusive_sketches_resist_eviction_amnesty() {
        // An attacker must not be able to flush its own abuse history by
        // filling the table with fresh addresses: the abusive sketch's
        // eviction score is held forward by its abuse weight.
        let r = BehaviorRecorder::new(&OnlineSettings {
            capacity: 4,
            shard_count: Some(1),
            half_life_ms: 60_000,
            ..Default::default()
        });
        r.on_events(&[issued(ip(66), 0)]);
        for t in 0..10u64 {
            r.on_events(&[rejected(ip(66), t, VerifyError::BadMac)]);
        }
        // Table turnover: many fresh clean clients arrive later.
        for i in 0..50u8 {
            r.on_events(&[issued(ip(i), 1_000 + i as u64)]);
        }
        assert_eq!(r.len(), 4);
        assert!(
            r.sketch(ip(66), 2_000).is_some(),
            "abusive sketch was flushed by address-cycling"
        );
    }

    #[test]
    fn shard_count_is_raised_to_bound_the_eviction_scan() {
        // Any capacity (power of two or not, even absurd) with a tiny
        // explicit shard count: the recorder raises the count — and
        // clamps the capacity at what MAX_SHARDS can honor — so no
        // shard can hold more than 512 sketches.
        for capacity in [65_536usize, 300_000, 1_000_000, 513, 100_000_000] {
            let r = BehaviorRecorder::new(&OnlineSettings {
                capacity,
                shard_count: Some(2),
                ..Default::default()
            });
            let effective = capacity.min(aipow_shard::MAX_SHARDS * 512);
            assert!(
                effective / r.shard_count() <= 512,
                "capacity {capacity}: {} shards → {} per shard",
                r.shard_count(),
                effective / r.shard_count()
            );
        }
    }

    #[test]
    fn rate_limited_arrivals_count_toward_the_rate() {
        // A flooder whose requests mostly die at the limiter must still
        // read as a flooder: rejected arrivals feed the rate estimate.
        let r = BehaviorRecorder::new(&settings(10_000));
        r.on_events(&[issued(ip(10), 0)]);
        for i in 1..200u64 {
            r.on_rate_limited(ip(10), i * 10);
        }
        assert_eq!(r.total_requests(), 200);
        let s = r.sketch(ip(10), 2_000).unwrap();
        let rate = s.rate_hz().unwrap();
        assert!((rate - 100.0).abs() < 1e-9, "rate {rate}");
        // Rejections are not challenges, so no abandon signal accrues.
        assert!(s.abandon_ratio() > 0.9); // the one unredeemed challenge
        assert_eq!(s.invalid_ratio(), 0.0);
    }

    #[test]
    fn expired_solves_are_not_abuse() {
        // An honest-but-slow client: every solve lands after the TTL.
        // It must read as abandonment, never as abuse — otherwise slow
        // clients spiral toward max difficulty.
        let r = BehaviorRecorder::new(&settings(60_000));
        for t in 0..10u64 {
            r.on_events(&[issued(ip(8), t * 1_000)]);
            let expired = VerifyError::Expired {
                expired_at_ms: t * 1_000 + 100,
                now_ms: t * 1_000 + 500,
            };
            r.on_events(&[rejected(ip(8), t * 1_000 + 500, expired)]);
        }
        r.on_events(&[rejected(ip(8), 10_000, VerifyError::NotYetValid)]);
        let s = r.sketch(ip(8), 10_000).unwrap();
        assert_eq!(s.abuse_weight(), 0.0);
        assert_eq!(s.invalid_ratio(), 0.0);
        assert!(s.abandon_ratio() > 0.9, "{}", s.abandon_ratio());
    }

    #[test]
    fn replay_counts_separately_from_invalid() {
        let r = BehaviorRecorder::new(&settings(60_000));
        r.on_events(&[issued(ip(6), 0)]);
        r.on_events(&[rejected(ip(6), 0, VerifyError::Replayed)]);
        r.on_events(&[rejected(ip(6), 1, VerifyError::BadMac)]);
        let s = r.sketch(ip(6), 1).unwrap();
        assert!(s.replayed > 0.9);
        assert!(s.invalid > 0.9);
        assert!(s.abuse_weight() > 1.9);
    }

    #[test]
    fn gap_sketch_records_interarrival_jitter() {
        let r = BehaviorRecorder::new(&settings(60_000));
        for t in [0u64, 100, 300, 400, 600] {
            r.on_events(&[issued(ip(7), t)]);
        }
        let s = r.sketch(ip(7), 600).unwrap();
        assert_eq!(s.gap_ms.count(), 4);
        assert!(s.jitter_ms() > 0.0);
    }

    #[test]
    fn capacity_evicts_least_recently_seen() {
        // A single shard makes placement deterministic: per-shard
        // capacity equals the configured capacity.
        let r = BehaviorRecorder::new(&OnlineSettings {
            capacity: 3,
            shard_count: Some(1),
            ..Default::default()
        });
        r.on_events(&[issued(ip(1), 100)]);
        r.on_events(&[issued(ip(2), 200)]);
        r.on_events(&[issued(ip(3), 300)]);
        // ip(1) is oldest; a fourth client displaces it.
        r.on_events(&[issued(ip(4), 400)]);
        assert_eq!(r.len(), 3);
        assert!(r.sketch(ip(1), 400).is_none());
        assert!(r.sketch(ip(4), 400).is_some());
        assert_eq!(r.evicted(), 1);
        // Touching a tracked client at capacity never evicts.
        r.on_events(&[issued(ip(2), 500)]);
        assert_eq!(r.evicted(), 1);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn address_cycling_flood_stays_bounded() {
        // An attacker cycling fresh addresses: population stays within
        // the per-shard bound × shard count, and only the attacker's own
        // cold sketches are displaced.
        let r = BehaviorRecorder::new(&OnlineSettings {
            capacity: 32,
            shard_count: Some(4),
            ..Default::default()
        });
        for i in 0..2_000u32 {
            let ip = IpAddr::V4(Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8));
            r.on_events(&[issued(ip, i as u64)]);
        }
        assert!(r.len() <= 32, "population {} over capacity", r.len());
        assert_eq!(r.evicted() + r.len() as u64, 2_000);
    }

    #[test]
    fn small_capacity_caps_shard_count_and_population() {
        // capacity 8 with 64 requested shards: the layout collapses to a
        // single shard holding the whole capacity (the per-shard floor —
        // one-entry shards would turn eviction into mutual displacement),
        // and the population never exceeds 8.
        let r = BehaviorRecorder::new(&OnlineSettings {
            capacity: 8,
            shard_count: Some(64),
            ..Default::default()
        });
        assert_eq!(r.shard_count(), 1);
        for i in 0..100u8 {
            r.on_events(&[issued(ip(i), i as u64)]);
        }
        assert!(r.len() <= 8, "population {} over capacity 8", r.len());
    }

    #[test]
    fn prune_forgets_fully_decayed_clients() {
        let r = BehaviorRecorder::new(&settings(1_000));
        r.on_events(&[issued(ip(1), 0)]);
        r.on_events(&[issued(ip(2), 20_000)]);
        // At t=20s, ip(1) has decayed through 20 half-lives.
        let pruned = r.prune(20_000, 0.01);
        assert_eq!(pruned, 1);
        assert_eq!(r.len(), 1);
        assert!(r.sketch(ip(1), 20_000).is_none());
        assert!(r.sketch(ip(2), 20_000).is_some());
    }

    #[test]
    fn concurrent_taps_keep_exact_event_totals() {
        use std::sync::Arc;
        let r = Arc::new(BehaviorRecorder::new(&settings(60_000)));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        r.on_events(&[issued(ip(t), i)]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.total_requests(), 8_000);
        assert_eq!(r.len(), 8);
        // Zero decay elapsed (all events at t<1000 ≪ half-life), so each
        // client's request weight is within decay-epsilon of 1000.
        for t in 0..8u8 {
            let s = r.sketch(ip(t), 1_000).unwrap();
            assert!(s.requests > 990.0, "client {t}: {}", s.requests);
        }
    }

    #[test]
    fn batched_taps_produce_identical_sketches_to_single_taps() {
        let single = BehaviorRecorder::new(&settings(10_000));
        let batched = BehaviorRecorder::new(&settings(10_000));

        // One mixed batch: requests (challenged and bypassed) for three
        // clients, then accepted and rejected solutions, including a
        // rejection for a never-seen client, which must create no sketch.
        let mut events: Vec<AuditEvent> = (0..12u8)
            .map(|i| match i % 4 {
                0 => bypassed(ip(i % 3), 1_000 + u64::from(i)),
                _ => issued(ip(i % 3), 1_000 + u64::from(i)),
            })
            .collect();
        events.extend([
            accepted(ip(0), 1_500),
            rejected(ip(1), 1_500, VerifyError::BadMac),
            rejected(ip(2), 1_600, VerifyError::Replayed),
            rejected(ip(99), 1_600, VerifyError::BadMac),
        ]);

        for event in &events {
            single.on_events(std::slice::from_ref(event));
        }
        batched.on_events(&events);
        batched.on_events(&[]);

        assert_eq!(batched.total_requests(), 12);
        assert_eq!(batched.total_requests(), single.total_requests());
        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.len(), 3, "unknown client created no sketch");
        assert!(batched.sketch(ip(99), 2_000).is_none());
        for i in 0..3u8 {
            let a = single.sketch(ip(i), 2_000).unwrap();
            let b = batched.sketch(ip(i), 2_000).unwrap();
            assert_eq!(a, b, "client {i} sketch diverged");
        }
    }

    #[test]
    fn batched_taps_respect_capacity_eviction() {
        let r = BehaviorRecorder::new(&OnlineSettings {
            capacity: 3,
            shard_count: Some(1),
            ..Default::default()
        });
        let burst: Vec<AuditEvent> = (1..=4u8).map(|i| issued(ip(i), 100)).collect();
        // Events carry increasing recency within the batch via order; all
        // share one timestamp, so the eviction victim is the shard's
        // least-recently-seen — ip(1..3) tie on last_seen, and exactly one
        // of them is displaced by ip(4).
        r.on_events(&burst);
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 1);
        assert!(r.sketch(ip(4), 100).is_some(), "newest client retained");
    }

    #[test]
    fn sketch_for_unknown_ip_is_none() {
        let r = BehaviorRecorder::new(&settings(1_000));
        assert!(r.sketch(ip(9), 0).is_none());
        assert!(r.is_empty());
    }
}
