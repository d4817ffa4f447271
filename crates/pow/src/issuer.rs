//! The puzzle generation module (paper §II.3).
//!
//! “A puzzle is generated by collecting request related data, i.e.,
//! timestamp and unique seed (for mitigating pre-computation attacks), and a
//! difficulty value as defined by the policy module, all of which is relayed
//! back to the client.”

use crate::backend::{BackendId, BackendRegistry};
use crate::challenge::{Challenge, CHALLENGE_VERSION, SEED_LEN};
use crate::difficulty::Difficulty;
use crate::time::{SystemClock, TimeSource};
use aipow_crypto::hkdf;
use aipow_crypto::hmac::HmacKey;
use aipow_crypto::sha256_wide::auto_lanes;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default challenge validity window: 30 seconds, comfortably above the
/// paper's highest observed solve latency (~900 ms) with two orders of
/// magnitude of headroom for slow clients.
pub const DEFAULT_TTL_MS: u64 = 30_000;

/// The puzzle issuer.
///
/// Challenges are minted with a unique 128-bit seed — a keyed PRF of a
/// per-issuer counter, `HMAC(seed_key, ctr)` truncated — and authenticated
/// with a MAC key derived from the issuer's master key, so a
/// [`Verifier`](crate::Verifier) constructed from the same key can check
/// solutions statelessly. The counter makes seeds unique; the secret PRF
/// key makes them unpredictable.
///
/// The issuer is `Send + Sync`; one instance serves all connections.
///
/// ```
/// use aipow_pow::{Difficulty, Issuer};
/// # use std::net::{IpAddr, Ipv4Addr};
/// let issuer = Issuer::new(&[42u8; 32]);
/// let ip = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
/// let a = issuer.issue(ip, Difficulty::new(6).unwrap());
/// let b = issuer.issue(ip, Difficulty::new(6).unwrap());
/// assert_ne!(a.seed(), b.seed(), "seeds are unique per challenge");
/// ```
pub struct Issuer {
    mac_key: [u8; 32],
    /// The MAC key with its HMAC schedule precomputed: every challenge
    /// is tagged under the same key, so the schedule runs once here
    /// instead of once per issue.
    prepared_mac: HmacKey,
    /// The seed PRF key: seed `i` is `HMAC(seed_key, i as LE bytes)`,
    /// truncated to [`SEED_LEN`] bytes.
    seed_key: HmacKey,
    /// The next unused seed counter.
    next_seed: AtomicU64,
    ttl_ms: u64,
    clock: Arc<dyn TimeSource>,
    /// Configured per-backend challenge parameters (the memory-hard arena
    /// MiB); backends not listed use their registry default.
    backend_params: Vec<(BackendId, u8)>,
}

impl Issuer {
    /// Creates an issuer from a 32-byte master key with the default TTL and
    /// system clock.
    ///
    /// The MAC key and the seed PRF key are derived from the master
    /// key with domain-separated HKDF labels, so the master key itself is
    /// never used directly.
    pub fn new(master_key: &[u8; 32]) -> Self {
        Self::with_clock(master_key, Arc::new(SystemClock))
    }

    /// Creates an issuer with an explicit time source (tests, simulation).
    pub fn with_clock(master_key: &[u8; 32], clock: Arc<dyn TimeSource>) -> Self {
        let mac_key = hkdf::derive_key32(master_key, "aipow/challenge-mac");
        let seed_key = hkdf::derive_key32(master_key, "aipow/seed-prf");
        Issuer {
            prepared_mac: HmacKey::new(&mac_key),
            mac_key,
            seed_key: HmacKey::new(&seed_key),
            next_seed: AtomicU64::new(0),
            ttl_ms: DEFAULT_TTL_MS,
            clock,
            backend_params: Vec::new(),
        }
    }

    /// Sets the challenge TTL (milliseconds), returning the issuer for
    /// chaining.
    pub fn with_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.ttl_ms = ttl_ms;
        self
    }

    /// Configures the challenge parameter minted for `backend` — the
    /// memory-hard backend's arena size in MiB. Unconfigured backends mint
    /// their [`default_param`](crate::PuzzleBackend::default_param).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not registered or rejects `param`; issuance
    /// parameters are server configuration, validated up front (`aipow
    /// serve --arena-mib` does so with a usage error before reaching
    /// this).
    pub fn with_backend_param(mut self, backend: BackendId, param: u8) -> Self {
        let registered = BackendRegistry::global()
            .get(backend)
            // lint:allow(no-unwrap) configuration invariant: builder-time
            // misuse, panics before any request is served
            .unwrap_or_else(|| panic!("issuer configuration: unknown backend {backend}"));
        assert!(
            registered.validate_param(param),
            "issuer configuration: backend {backend} rejects parameter {param}"
        );
        self.backend_params.retain(|(id, _)| *id != backend);
        self.backend_params.push((backend, param));
        self
    }

    /// The configured TTL in milliseconds.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// The derived MAC key; shared with the verifier. Exposed for
    /// constructing a [`Verifier`](crate::Verifier) colocated with the
    /// issuer from pre-derived material.
    pub fn mac_key(&self) -> &[u8; 32] {
        &self.mac_key
    }

    /// Issues a `difficulty`-difficult SHA-256-backend challenge bound to
    /// `client_ip`, timestamped now.
    pub fn issue(&self, client_ip: IpAddr, difficulty: Difficulty) -> Challenge {
        self.issue_backend(client_ip, difficulty, BackendId::SHA256)
    }

    /// Issues a challenge for an explicit puzzle backend, timestamped now.
    pub fn issue_backend(
        &self,
        client_ip: IpAddr,
        difficulty: Difficulty,
        backend: BackendId,
    ) -> Challenge {
        self.issue_backend_at(client_ip, difficulty, backend, self.clock.now_ms())
    }

    /// Issues a challenge for an explicit puzzle backend with an explicit
    /// timestamp: a batch of one through
    /// [`issue_batch_backend_at`](Self::issue_batch_backend_at).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not registered with this issuer — routing to
    /// an unknown backend is a server misconfiguration, not client input.
    pub fn issue_backend_at(
        &self,
        client_ip: IpAddr,
        difficulty: Difficulty,
        backend: BackendId,
        now_ms: u64,
    ) -> Challenge {
        self.issue_batch_backend_at(&[(client_ip, difficulty, backend)], now_ms)
            .pop()
            .expect("batch invariant: one challenge per request")
    }

    /// Issues one challenge per `(client_ip, difficulty, backend)`
    /// request, all timestamped `now_ms`: the one mint path. Different
    /// clients in one drained batch may be routed to different backends.
    ///
    /// One `fetch_add` reserves the batch's seed counters, so issuance
    /// takes no lock. The seeds and then the challenge tags are each
    /// computed in one [`HmacKey::mac_batch`] pass through the wide
    /// SHA-256 kernel — the same kernel the verifier checks the tags
    /// with. A seed depends only on its counter, so `n` single issues
    /// and one batch of `n` mint identical seeds.
    ///
    /// # Panics
    ///
    /// As [`issue_backend_at`](Self::issue_backend_at) for unknown backends.
    pub fn issue_batch_backend_at(
        &self,
        requests: &[(IpAddr, Difficulty, BackendId)],
        now_ms: u64,
    ) -> Vec<Challenge> {
        let lanes = auto_lanes();
        let n = requests.len() as u64;
        // relaxed: uniqueness needs only the atomicity of the
        // read-modify-write; no other memory is published through it
        let base = self.next_seed.fetch_add(n, Ordering::Relaxed);
        let counters: Vec<[u8; 8]> = (0..n).map(|i| base.wrapping_add(i).to_le_bytes()).collect();
        let counter_msgs: Vec<&[u8]> = counters.iter().map(|c| c.as_slice()).collect();
        let seeds = self.seed_key.mac_batch(&counter_msgs, lanes);

        let unsigned: Vec<Challenge> = requests
            .iter()
            .zip(&seeds)
            .map(|(&(client_ip, difficulty, backend), prf)| {
                let mut seed = [0u8; SEED_LEN];
                seed.copy_from_slice(&prf.as_bytes()[..SEED_LEN]);
                self.unsigned(client_ip, difficulty, backend, now_ms, seed)
            })
            .collect();
        let auth: Vec<Vec<u8>> = unsigned
            .iter()
            .map(Challenge::authenticated_bytes)
            .collect();
        let msgs: Vec<&[u8]> = auth.iter().map(Vec::as_slice).collect();
        let tags = self.prepared_mac.mac_batch(&msgs, lanes);
        unsigned
            .into_iter()
            .zip(tags)
            .map(|(challenge, tag)| challenge.with_tag(tag.into_bytes()))
            .collect()
    }

    /// The challenge parameter this issuer mints for `backend`: the
    /// configured override, else the backend's default.
    fn param_for(&self, backend: &dyn crate::backend::PuzzleBackend) -> u8 {
        self.backend_params
            .iter()
            .find(|(id, _)| *id == backend.id())
            .map(|&(_, param)| param)
            .unwrap_or_else(|| backend.default_param())
    }

    /// Builds one challenge with an all-zero tag from an already-derived
    /// seed; the batch path tags it.
    fn unsigned(
        &self,
        client_ip: IpAddr,
        difficulty: Difficulty,
        backend: BackendId,
        now_ms: u64,
        seed: [u8; SEED_LEN],
    ) -> Challenge {
        let registered = BackendRegistry::global()
            .get(backend)
            // lint:allow(no-unwrap) routing invariant: only ids from this
            // standard registry (the default route or a router vetted
            // by config validation) reach the mint path
            .unwrap_or_else(|| panic!("issuer routing: unknown backend {backend}"));
        Challenge::from_parts_backend(
            CHALLENGE_VERSION,
            backend,
            self.param_for(registered),
            seed,
            now_ms,
            self.ttl_ms,
            difficulty,
            client_ip,
            [0u8; 32],
        )
    }
}

impl core::fmt::Debug for Issuer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Issuer")
            .field("ttl_ms", &self.ttl_ms)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ManualClock;
    use aipow_crypto::hmac::HmacSha256;
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    fn ip() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 55))
    }

    #[test]
    fn issues_with_requested_difficulty_and_ttl() {
        let clock = ManualClock::at(5_000);
        let issuer = Issuer::with_clock(&[1u8; 32], Arc::new(clock)).with_ttl_ms(10_000);
        let c = issuer.issue(ip(), Difficulty::new(9).unwrap());
        assert_eq!(c.difficulty().bits(), 9);
        assert_eq!(c.issued_at_ms(), 5_000);
        assert_eq!(c.ttl_ms(), 10_000);
        assert_eq!(c.client_ip(), ip());
        assert_eq!(c.version(), CHALLENGE_VERSION);
    }

    #[test]
    fn seeds_never_repeat() {
        let issuer = Issuer::new(&[2u8; 32]);
        let mut seen = HashSet::new();
        for _ in 0..2_000 {
            let c = issuer.issue(ip(), Difficulty::ZERO);
            assert!(seen.insert(*c.seed()), "duplicate seed");
        }
    }

    #[test]
    fn seeds_are_the_scalar_hmac_of_the_counter() {
        // Pins the seed PRF apart from the wide kernel: seed `i` of a
        // fresh issuer is the plain HMAC of `i`, truncated.
        let master = [16u8; 32];
        let seed_key = hkdf::derive_key32(&master, "aipow/seed-prf");
        let issuer = Issuer::new(&master);
        let mut issued: Vec<[u8; SEED_LEN]> = vec![*issuer.issue(ip(), Difficulty::ZERO).seed()];
        let requests = vec![(ip(), Difficulty::ZERO, BackendId::SHA256); 11];
        issued.extend(
            issuer
                .issue_batch_backend_at(&requests, 1_000)
                .iter()
                .map(|c| *c.seed()),
        );
        for (i, seed) in issued.iter().enumerate() {
            let want = HmacSha256::mac(&seed_key, &(i as u64).to_le_bytes());
            assert_eq!(seed[..], want.as_bytes()[..SEED_LEN], "seed {i}");
        }
    }

    #[test]
    fn batching_is_invisible_to_seeds_and_tags() {
        let v6 = IpAddr::V6(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 9));
        let requests: Vec<(IpAddr, Difficulty, BackendId)> = (0..13u8)
            .map(|i| {
                let client = if i % 3 == 0 { v6 } else { ip() };
                let backend = if i % 2 == 0 {
                    BackendId::SHA256
                } else {
                    BackendId::MEMORY_HARD
                };
                (client, Difficulty::new(i % 5).unwrap(), backend)
            })
            .collect();
        let batched = Issuer::new(&[17u8; 32]).issue_batch_backend_at(&requests, 4_000);
        let single_issuer = Issuer::new(&[17u8; 32]);
        let singles: Vec<Challenge> = requests
            .iter()
            .map(|&(client, d, backend)| single_issuer.issue_backend_at(client, d, backend, 4_000))
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn concurrent_batches_never_repeat_a_seed() {
        let issuer = Issuer::new(&[18u8; 32]);
        let per_thread: Vec<Vec<[u8; SEED_LEN]>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut seeds = Vec::new();
                        for n in 1..=33 {
                            let requests = vec![(ip(), Difficulty::ZERO, BackendId::SHA256); n];
                            let batch = issuer.issue_batch_backend_at(&requests, 1_000);
                            seeds.extend(batch.iter().map(|c| *c.seed()));
                        }
                        seeds
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let issued: usize = per_thread.iter().map(Vec::len).sum();
        assert_eq!(issued, 4 * (1..=33).sum::<usize>());
        let distinct: HashSet<[u8; SEED_LEN]> = per_thread.into_iter().flatten().collect();
        assert_eq!(distinct.len(), issued, "a seed repeated across threads");
    }

    #[test]
    fn tag_is_valid_hmac_over_authenticated_bytes() {
        let issuer = Issuer::new(&[3u8; 32]);
        let c = issuer.issue(ip(), Difficulty::new(1).unwrap());
        assert!(HmacSha256::verify(
            issuer.mac_key(),
            &c.authenticated_bytes(),
            c.tag()
        ));
    }

    #[test]
    fn different_master_keys_produce_unverifiable_tags() {
        let a = Issuer::new(&[4u8; 32]);
        let b = Issuer::new(&[5u8; 32]);
        let c = a.issue(ip(), Difficulty::ZERO);
        assert!(!HmacSha256::verify(
            b.mac_key(),
            &c.authenticated_bytes(),
            c.tag()
        ));
    }

    #[test]
    fn deterministic_issuers_with_same_key_share_mac_but_not_seeds() {
        // Two issuers from the same master key can cross-verify tags...
        let a = Issuer::new(&[6u8; 32]);
        let b = Issuer::new(&[6u8; 32]);
        let ca = a.issue(ip(), Difficulty::ZERO);
        assert!(HmacSha256::verify(
            b.mac_key(),
            &ca.authenticated_bytes(),
            ca.tag()
        ));
        // ...and their seed counters start identically (same key, both at
        // zero), which is fine: seeds only need uniqueness per issuer
        // instance. Deployments wanting cross-instance uniqueness feed
        // distinct master keys.
        let cb = b.issue(ip(), Difficulty::ZERO);
        assert_eq!(ca.seed(), cb.seed());
    }

    #[test]
    fn issue_at_controls_timestamp() {
        let issuer = Issuer::new(&[7u8; 32]);
        let c = issuer.issue_backend_at(ip(), Difficulty::ZERO, BackendId::SHA256, 123_456);
        assert_eq!(c.issued_at_ms(), 123_456);
    }

    #[test]
    fn batch_issue_matches_single_issue_semantics() {
        let issuer = Issuer::new(&[9u8; 32]).with_ttl_ms(5_000);
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
        let requests = vec![
            (ip(), Difficulty::new(3).unwrap(), BackendId::SHA256),
            (other, Difficulty::new(7).unwrap(), BackendId::SHA256),
            (ip(), Difficulty::ZERO, BackendId::SHA256),
        ];
        let batch = issuer.issue_batch_backend_at(&requests, 9_000);
        assert_eq!(batch.len(), 3);
        let mut seeds = HashSet::new();
        for (c, &(want_ip, want_d, _)) in batch.iter().zip(&requests) {
            assert_eq!(c.client_ip(), want_ip);
            assert_eq!(c.difficulty(), want_d);
            assert_eq!(c.issued_at_ms(), 9_000);
            assert_eq!(c.ttl_ms(), 5_000);
            assert_eq!(c.version(), CHALLENGE_VERSION);
            assert!(seeds.insert(*c.seed()), "duplicate seed in batch");
            // Every batch-minted tag authenticates under the plain HMAC.
            assert!(HmacSha256::verify(
                issuer.mac_key(),
                &c.authenticated_bytes(),
                c.tag()
            ));
        }
        // Empty batches are a no-op, not a panic.
        assert!(issuer.issue_batch_backend_at(&[], 9_000).is_empty());
        // Seeds stay unique across batch and single draws.
        let single = issuer.issue(ip(), Difficulty::ZERO);
        assert!(seeds.insert(*single.seed()));
    }

    #[test]
    fn backend_issuance_stamps_id_param_and_macs_them() {
        let issuer = Issuer::new(&[10u8; 32]).with_backend_param(BackendId::MEMORY_HARD, 2);
        let c = issuer.issue_backend_at(
            ip(),
            Difficulty::new(4).unwrap(),
            BackendId::MEMORY_HARD,
            7_000,
        );
        assert_eq!(c.backend(), BackendId::MEMORY_HARD);
        assert_eq!(c.backend_param(), 2);
        assert!(HmacSha256::verify(
            issuer.mac_key(),
            &c.authenticated_bytes(),
            c.tag()
        ));
        // Default (unconfigured) issuance keeps the SHA-256 backend.
        let plain = issuer.issue(ip(), Difficulty::ZERO);
        assert_eq!(plain.backend(), BackendId::SHA256);
        assert_eq!(plain.backend_param(), 0);
    }

    #[test]
    fn batch_backend_issuance_routes_per_request() {
        let issuer = Issuer::new(&[13u8; 32]);
        let requests = vec![
            (ip(), Difficulty::ZERO, BackendId::SHA256),
            (ip(), Difficulty::new(2).unwrap(), BackendId::MEMORY_HARD),
        ];
        let batch = issuer.issue_batch_backend_at(&requests, 5_000);
        assert_eq!(batch[0].backend(), BackendId::SHA256);
        assert_eq!(batch[1].backend(), BackendId::MEMORY_HARD);
        assert_eq!(
            batch[1].backend_param(),
            aipow_crypto::memmix::DEFAULT_ARENA_MIB,
            "unconfigured memory-hard issuance uses the backend default"
        );
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn routing_to_an_unregistered_backend_panics() {
        let issuer = Issuer::new(&[14u8; 32]);
        let _ = issuer.issue_backend_at(ip(), Difficulty::ZERO, crate::BackendId(99), 1_000);
    }

    #[test]
    #[should_panic(expected = "rejects parameter")]
    fn out_of_bounds_arena_param_panics_at_configuration() {
        let _ = Issuer::new(&[15u8; 32]).with_backend_param(
            BackendId::MEMORY_HARD,
            aipow_crypto::memmix::MAX_ARENA_MIB + 1,
        );
    }

    #[test]
    fn debug_redacts_keys() {
        let issuer = Issuer::new(&[8u8; 32]);
        let text = format!("{issuer:?}");
        assert!(!text.contains("mac_key"));
    }

    #[test]
    fn issuer_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Issuer>();
    }
}
