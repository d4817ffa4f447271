//! Per-client cost accounting (paper property 1).
//!
//! “First, each client pays a cost for utilizing the system, and this cost
//! increases as the client's reputation score worsens.” The ledger tracks
//! the cumulative *expected work* (hash evaluations) each client has been
//! charged, which is the quantity the DDoS experiment (claim C5) reports.

use crate::sync::{AtomicU64, Ordering};
use aipow_shard::{EvictionPolicy, ShardLayout, ShardedMap, DEFAULT_MAX_SCAN};
use std::net::IpAddr;

/// The ledger's eviction policy: the cheapest account goes first, so
/// heavy hitters — the clients the DDoS experiment reports on — are
/// retained. Shared (via [`EvictionPolicy`]) with the limiter's
/// least-recently-refilled and the recorder's least-recently-seen
/// policies.
#[derive(Debug, Clone, Copy)]
pub struct LowestCost;

impl EvictionPolicy<f64> for LowestCost {
    type Score = f64;

    fn score(&self, cost: &f64) -> f64 {
        *cost
    }
}

/// Thread-safe per-IP cumulative work ledger, bounded in entries.
///
/// The ledger is sharded by IP hash: charges for different clients take
/// different locks, and a single client's account is only ever mutated
/// under its shard lock, so concurrent charges sum exactly.
///
/// The capacity is enforced **per shard** ([`ShardLayout::bounded`]
/// keeps each shard at `capacity / shard_count` accounts, raising the
/// shard count so no shard exceeds the scan bound): a charge landing in
/// a full shard evicts that shard's cheapest account ([`LowestCost`])
/// under the same single lock acquisition as the charge itself, so a
/// solution-path flood of fresh addresses costs one bounded shard scan
/// per charge — never the all-shard fold the retired global protocol
/// performed — and the population can never exceed the capacity, even
/// transiently.
///
/// ```
/// use aipow_core::CostLedger;
/// # use std::net::{IpAddr, Ipv4Addr};
/// let ledger = CostLedger::new(100);
/// let ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
/// ledger.charge(ip, 32.0); // a 5-difficult puzzle: 2^5 expected hashes
/// ledger.charge(ip, 32.0);
/// assert_eq!(ledger.total(ip), 64.0);
/// ```
#[derive(Debug)]
pub struct CostLedger {
    costs: ShardedMap<IpAddr, f64>,
    capacity: usize,
    per_shard_capacity: usize,
    evicted: AtomicU64,
}

impl CostLedger {
    /// Creates a ledger tracking at most `capacity` clients, with the
    /// machine-default shard count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_layout(capacity, None, DEFAULT_MAX_SCAN)
    }

    /// Creates a ledger with an explicit shard count. The count is
    /// adjusted on both sides by [`ShardLayout::bounded`]: raised so no
    /// eviction scan exceeds the default scan bound, capped at
    /// `capacity`, and floored to a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_shards(capacity: usize, shard_count: usize) -> Self {
        Self::with_layout(capacity, Some(shard_count), DEFAULT_MAX_SCAN)
    }

    /// Creates a ledger with full control over the eviction layout:
    /// requested shard count (`None` = machine default) and the maximum
    /// entries one eviction victim scan may visit.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `max_scan == 0`.
    pub fn with_layout(capacity: usize, shard_count: Option<usize>, max_scan: usize) -> Self {
        assert!(capacity > 0, "cost ledger capacity must be positive");
        assert!(max_scan > 0, "eviction scan bound must be positive");
        let layout = ShardLayout::bounded(capacity, shard_count, max_scan);
        CostLedger {
            costs: ShardedMap::new(layout.shard_count),
            // The enforced bound, not the requested one (see
            // `capacity()` for how the two can differ).
            capacity: layout.population_bound(),
            per_shard_capacity: layout.per_shard_capacity,
            evicted: AtomicU64::new(0),
        }
    }

    /// Number of shards the ledger is split over.
    pub fn shard_count(&self) -> usize {
        self.costs.shard_count()
    }

    /// The population bound the table actually enforces
    /// (`per_shard_capacity × shard_count`). At most the capacity the
    /// ledger was constructed with; per-shard flooring can make it
    /// slightly lower, and pathological requests beyond
    /// `MAX_SHARDS × max_scan` are clamped to that product.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-shard account bound — also the worst-case entries one
    /// charge's eviction scan visits.
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard_capacity
    }

    /// Accounts evicted by the capacity bound since construction.
    pub fn evictions(&self) -> u64 {
        // relaxed: monitoring read of a stats counter; freshness not
        // required
        self.evicted.load(Ordering::Relaxed)
    }

    /// Entries examined by eviction victim scans since construction
    /// (diagnostic; grows by at most
    /// [`per_shard_capacity`](Self::per_shard_capacity) per charge).
    pub fn eviction_scan_steps(&self) -> u64 {
        self.costs.eviction_scan_steps()
    }

    /// Whole-table victim folds since construction. Always zero: the
    /// ledger only uses the bounded per-shard eviction path. Exposed so
    /// tests and the flood scenario can assert the retired global scan
    /// stays retired.
    pub fn global_eviction_folds(&self) -> u64 {
        self.costs.global_eviction_folds()
    }

    /// Adds `expected_work` (hash evaluations) to `ip`'s account: a
    /// batch of one through [`charge_batch`](Self::charge_batch).
    ///
    /// # Panics
    ///
    /// Panics if `expected_work` is negative or NaN.
    pub fn charge(&self, ip: IpAddr, expected_work: f64) {
        self.charge_batch(vec![(ip, expected_work)]);
    }

    /// Charges a batch of `(ip, expected_work)` entries, taking each
    /// touched shard's lock **once per batch** instead of once per charge
    /// ([`ShardedMap::with_shards_grouped`]). Eviction and accumulation
    /// semantics are identical to calling [`charge`](Self::charge) per
    /// entry in order: same-key charges apply in batch order, and a full
    /// shard evicts its cheapest account per inserted key.
    ///
    /// # Panics
    ///
    /// Panics if any `expected_work` is negative or NaN.
    pub fn charge_batch(&self, charges: Vec<(IpAddr, f64)>) {
        for &(_, work) in &charges {
            assert!(
                work.is_finite() && work >= 0.0,
                "expected work must be finite and non-negative"
            );
        }
        let mut evictions = 0u64;
        self.costs.with_shards_grouped(charges, |shard, ip, work| {
            let (_, evicted) = shard.update_or_insert_evicting(
                ip,
                self.per_shard_capacity,
                LowestCost,
                || 0.0,
                |cost| *cost += work,
            );
            if evicted {
                evictions += 1;
            }
        });
        if evictions > 0 {
            // relaxed: monotonic stats counter; incremented under the
            // shard lock
            self.evicted.fetch_add(evictions, Ordering::Relaxed);
        }
    }

    /// Cumulative expected work charged to `ip` (0.0 if unknown).
    pub fn total(&self, ip: IpAddr) -> f64 {
        self.costs.get_cloned(&ip).unwrap_or(0.0)
    }

    /// The `n` clients with the highest cumulative cost, descending.
    pub fn top(&self, n: usize) -> Vec<(IpAddr, f64)> {
        let mut entries: Vec<(IpAddr, f64)> = self.costs.fold(Vec::new(), |mut acc, k, v| {
            acc.push((*k, *v));
            acc
        });
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("cost invariant: ledger costs are never NaN")
        });
        entries.truncate(n);
        entries
    }

    /// Number of tracked clients.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether no clients are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all tracked costs.
    pub fn grand_total(&self) -> f64 {
        self.costs.fold(0.0, |acc, _, v| acc + v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn charges_accumulate() {
        let ledger = CostLedger::new(8);
        ledger.charge(ip(1), 10.0);
        ledger.charge(ip(1), 5.0);
        ledger.charge(ip(2), 1.0);
        assert_eq!(ledger.total(ip(1)), 15.0);
        assert_eq!(ledger.total(ip(2)), 1.0);
        assert_eq!(ledger.total(ip(3)), 0.0);
        assert_eq!(ledger.grand_total(), 16.0);
    }

    #[test]
    fn top_orders_descending() {
        let ledger = CostLedger::new(8);
        ledger.charge(ip(1), 5.0);
        ledger.charge(ip(2), 50.0);
        ledger.charge(ip(3), 0.5);
        let top = ledger.top(2);
        assert_eq!(top, vec![(ip(2), 50.0), (ip(1), 5.0)]);
    }

    #[test]
    fn eviction_drops_cheapest() {
        // One shard makes placement deterministic: the shard-local
        // cheapest account is the global cheapest.
        let ledger = CostLedger::with_shards(2, 1);
        assert_eq!(ledger.shard_count(), 1);
        ledger.charge(ip(1), 100.0);
        ledger.charge(ip(2), 1.0);
        ledger.charge(ip(3), 10.0); // evicts ip(2)
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.evictions(), 1);
        assert_eq!(ledger.total(ip(2)), 0.0);
        assert_eq!(ledger.total(ip(1)), 100.0);
        assert_eq!(ledger.total(ip(3)), 10.0);
    }

    #[test]
    fn population_never_exceeds_capacity_under_address_cycling() {
        // Solution-path flood: every charge a fresh address, ledger at
        // capacity. The per-shard bound is hard, so the population can
        // never exceed the capacity and no charge folds the whole table.
        let ledger = CostLedger::with_shards(64, 8);
        for i in 0..4_096u32 {
            ledger.charge(
                IpAddr::V4(Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8)),
                32.0,
            );
        }
        assert!(
            ledger.len() <= 64,
            "population {} over capacity",
            ledger.len()
        );
        assert_eq!(ledger.evictions() + ledger.len() as u64, 4_096);
        assert_eq!(ledger.global_eviction_folds(), 0);
        assert!(ledger.eviction_scan_steps() <= 4_096 * ledger.per_shard_capacity() as u64);
    }

    #[test]
    fn layout_raises_shards_to_bound_the_scan() {
        // 64 Ki accounts over 2 requested shards would mean a 32 Ki-entry
        // victim scan per charge; the layout raises the count instead.
        let ledger = CostLedger::with_shards(1 << 16, 2);
        assert!(ledger.per_shard_capacity() <= aipow_shard::DEFAULT_MAX_SCAN);
        assert!(ledger.shard_count() >= (1 << 16) / aipow_shard::DEFAULT_MAX_SCAN);
        // An explicit tighter scan bound is honored too.
        let tight = CostLedger::with_layout(1 << 12, Some(1), 64);
        assert!(tight.per_shard_capacity() <= 64);
    }

    #[test]
    fn batch_charges_match_sequential_charges_exactly() {
        let single = CostLedger::with_shards(64, 8);
        let batched = CostLedger::with_shards(64, 8);
        let charges: Vec<(IpAddr, f64)> = (0..50u8)
            .flat_map(|i| [(ip(i % 10), i as f64), (ip(i % 10), 1.0)])
            .collect();
        for &(client, work) in &charges {
            single.charge(client, work);
        }
        batched.charge_batch(charges.clone());
        batched.charge_batch(Vec::new()); // no-op
        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.grand_total(), single.grand_total());
        for i in 0..10u8 {
            assert_eq!(batched.total(ip(i)), single.total(ip(i)), "client {i}");
        }
    }

    #[test]
    fn batch_charges_evict_at_capacity_and_count_evictions() {
        let ledger = CostLedger::with_shards(2, 1);
        ledger.charge_batch(vec![(ip(1), 100.0), (ip(2), 1.0), (ip(3), 10.0)]);
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.evictions(), 1);
        assert_eq!(ledger.total(ip(2)), 0.0, "cheapest account evicted");
        assert_eq!(ledger.total(ip(1)), 100.0);
        assert_eq!(ledger.global_eviction_folds(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn batch_negative_charge_panics_before_mutating() {
        CostLedger::new(4).charge_batch(vec![(ip(1), 1.0), (ip(2), -1.0)]);
    }

    #[test]
    fn existing_clients_never_evicted_by_their_own_charge() {
        let ledger = CostLedger::new(1);
        ledger.charge(ip(1), 1.0);
        ledger.charge(ip(1), 1.0);
        assert_eq!(ledger.total(ip(1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_charge_panics() {
        CostLedger::new(2).charge(ip(1), -1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        CostLedger::new(0);
    }

    #[test]
    fn sharded_ledger_keeps_exact_totals_across_shards() {
        let ledger = CostLedger::with_shards(256, 8);
        assert_eq!(ledger.shard_count(), 8);
        for i in 0..100 {
            ledger.charge(ip(i), i as f64);
        }
        assert_eq!(ledger.len(), 100);
        assert_eq!(ledger.grand_total(), (0..100).map(f64::from).sum::<f64>());
        assert_eq!(ledger.top(1), vec![(ip(99), 99.0)]);
    }

    #[test]
    fn concurrent_charges_sum_exactly() {
        use std::sync::Arc;
        let ledger = Arc::new(CostLedger::new(64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        ledger.charge(ip(1), 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.total(ip(1)), 8_000.0);
    }
}
