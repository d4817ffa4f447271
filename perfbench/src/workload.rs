//! The three traffic mixes, their set-up, and the load threads that
//! drive them. Every input is generated from the run's seed.

use crate::flood::{Flooder, Round};
use crate::probes::{IdentityFeed, Probes, TimedModel, TimedPolicy};
use aipow_core::{FeatureSource, Framework, FrameworkBuilder, StaticFeatureSource};
use aipow_net::{PowClient, PowServer, ServerConfig};
use aipow_policy::LinearPolicy;
use aipow_reputation::dabr::DabrConfig;
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::synth::ClassLabel;
use aipow_reputation::{DabrModel, DatasetSpec, FeatureVector, ReputationModel, ReputationScore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The one resource every workload fetches.
pub const PATH: &str = "/resource";
/// Size of the seeded resource body: that of the resource `aipow serve`
/// serves by default (`it works`), a few bytes like the ones the net
/// tests serve.
const BODY_LEN: usize = 8;
/// Score given to every `puzzle_fetch` request: policy1 maps band 3 to
/// 3 + 1 = 4 bits.
const PUZZLE_SCORE: f64 = 3.0;
/// Difficulty every `puzzle_fetch` fetch must pay.
pub const PUZZLE_BITS: u8 = 4;
/// `bypass_fetch` scores 0, strictly under this threshold.
const BYPASS_THRESHOLD: f64 = 1.0;
/// Scores at or above this get the memory-hard puzzle in `fig2_attack`.
const MEMORY_HARD_ABOVE: f64 = 7.0;
/// Share of the default dataset the DAbR model is fit on.
const TRAIN_FRACTION: f64 = 0.8;
/// Seed of the model's train/test split.
const MODEL_SPLIT_SEED: u64 = 1;
/// Samples per class in the seeded identity dataset.
const IDENTITIES_PER_CLASS: usize = 25_000;
/// Share of the identity dataset held out and served; large enough that
/// the share of each class routed to the memory-hard puzzle varies by a
/// few percent between seeds.
const HELD_OUT_FRACTION: f64 = 0.8;
/// Salt separating the identity-order stream from the dataset's own.
const IDENTITY_ORDER_SALT: u64 = 0x1D0_0DE5;

/// A traffic mix. Each drives one in-process server over loopback TCP
/// with two load threads and two connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop `PowClient`s, each fetching in a loop; every fetch
    /// is scored 3 and pays a fixed 4-bit SHA-256 puzzle.
    ///
    /// Why: this is the per-request server path of Figure 1 — score,
    /// policy, issue, solve, verify — with nothing else running. Issue
    /// and verify are about half of server CPU here, so work on issuance
    /// or verification shows on this workload first.
    PuzzleFetch,
    /// The same two closed-loop clients, scored 0 under a bypass
    /// threshold of 1, so each fetch is one round trip with no issue,
    /// verify or solve.
    ///
    /// Why: the control for every pipeline or solver change, where the
    /// prediction is no change. The reactor and wire layers do nearly
    /// all the server's work here (pipeline about 1 µs of about 9 µs of
    /// server CPU per fetch), so it is also where reactor work shows.
    BypassFetch,
    /// The paper's scenario on one server bound dual-stack to `[::]`: one
    /// benign `PowClient` from 127.0.0.1 and one flooder from `::1`. Each
    /// feature lookup hands out the next held-out identity of the
    /// caller's class, scored by a DAbR model fit at set-up, under
    /// policy1 with memory-hard puzzles at scores of 7 and above. The
    /// flooder writes 32 request frames per write and answers every
    /// challenge with a nonce it checked to be wrong.
    ///
    /// Why: the only workload that runs the batched pipeline path, the
    /// verify-reject path, the memory-hard backend and the DAbR scoring
    /// and policy layers; the cost of absorbing a flood, and what it does
    /// to a benign client's latency, shows here.
    Fig2Attack,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PuzzleFetch,
        Workload::BypassFetch,
        Workload::Fig2Attack,
    ];

    /// The name the command line and later issues use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PuzzleFetch => "puzzle_fetch",
            Workload::BypassFetch => "bypass_fetch",
            Workload::Fig2Attack => "fig2_attack",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Benign `PowClient` connections.
    fn benign_clients(self) -> usize {
        match self {
            Workload::Fig2Attack => 1,
            _ => 2,
        }
    }

    /// What each benign fetch must pay: `Some(bits)`, nothing (`None`),
    /// or whatever its identity earns (`Any`).
    fn expected_payment(self) -> Payment {
        match self {
            Workload::PuzzleFetch => Payment::Exactly(PUZZLE_BITS),
            Workload::BypassFetch => Payment::Nothing,
            Workload::Fig2Attack => Payment::Any,
        }
    }

    /// Round trips in one benign fetch: request plus solution, or the
    /// request alone when bypassed.
    pub fn round_trips(self) -> f64 {
        match self {
            Workload::BypassFetch => 1.0,
            _ => 2.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Payment {
    Exactly(u8),
    Nothing,
    Any,
}

/// A running server with its connected load.
pub struct Rig {
    /// The framework behind the server, for its counters.
    pub framework: Arc<Framework>,
    /// The server; shut down when the run ends.
    pub server: PowServer,
    /// Benign client connections.
    pub clients: Vec<PowClient>,
    /// The flooder connection (`fig2_attack` only).
    pub flooder: Option<Flooder>,
    /// The injected model and policy timers.
    pub probes: Arc<Probes>,
    /// The bytes every grant must carry.
    pub body: Vec<u8>,
}

/// Builds everything a run needs: inputs from `seed`, the framework, the
/// server and the connections.
///
/// # Errors
///
/// Describes whatever failed to build, bind or connect.
pub fn setup(workload: Workload, seed: u64) -> Result<Rig, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let key: [u8; 32] = rng.r#gen();
    let body: Vec<u8> = (0..BODY_LEN).map(|_| rng.r#gen()).collect();
    let probes = Arc::new(Probes::default());
    let builder = FrameworkBuilder::new()
        .master_key(key)
        .policy(TimedPolicy::new(
            LinearPolicy::policy1(),
            Arc::clone(&probes),
        ));
    let fixed = |score: f64| {
        let score = ReputationScore::new(score).expect("fixed scores are in range");
        TimedModel::new(FixedScoreModel::new(score), Arc::clone(&probes))
    };
    let zeros = || Arc::new(StaticFeatureSource::new(FeatureVector::zeros()));
    let (builder, features, bind): (_, Arc<dyn FeatureSource>, _) = match workload {
        Workload::PuzzleFetch => (builder.model(fixed(PUZZLE_SCORE)), zeros(), "127.0.0.1:0"),
        Workload::BypassFetch => (
            builder.model(fixed(0.0)).bypass_threshold(BYPASS_THRESHOLD),
            zeros(),
            "127.0.0.1:0",
        ),
        Workload::Fig2Attack => {
            let (model, feed) = attack_identities(seed);
            (
                builder
                    .model(TimedModel::new(model, Arc::clone(&probes)))
                    .route_memory_hard_above(MEMORY_HARD_ABOVE),
                Arc::new(feed),
                "[::]:0",
            )
        }
    };
    let framework = Arc::new(builder.build().map_err(|e| format!("framework: {e}"))?);
    let resources = HashMap::from([(PATH.to_string(), body.clone())]);
    let server = PowServer::start(
        bind,
        Arc::clone(&framework),
        features,
        resources,
        ServerConfig::default(),
    )
    .map_err(|e| format!("server start on {bind}: {e}"))?;
    let port = server.local_addr().port();
    let clients = (0..workload.benign_clients())
        .map(|_| PowClient::connect((Ipv4Addr::LOCALHOST, port)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client connect: {e}"))?;
    let flooder = match workload {
        Workload::Fig2Attack => Some(
            Flooder::connect(SocketAddr::from((Ipv6Addr::LOCALHOST, port)), PATH, seed)
                .map_err(|e| format!("flooder connect: {e}"))?,
        ),
        _ => None,
    };
    Ok(Rig {
        framework,
        server,
        clients,
        flooder,
        probes,
        body,
    })
}

/// The attack scenario's model and identities. The model is DAbR fit on
/// the training part of the default dataset, the same for every seed:
/// across seeds 1 to 8, models fit on seeded data sent between 0.6 % and
/// 4.6 % of benign identities to the memory-hard puzzle, which moved the
/// benign client's throughput by a factor of two. The seed drives the
/// identities instead: a large seeded dataset, its held-out part chosen
/// by the seed, and each class in a seeded order (see [`interleave`]).
fn attack_identities(seed: u64) -> (DabrModel, IdentityFeed) {
    let (train, _) = DatasetSpec::default()
        .generate()
        .split(TRAIN_FRACTION, MODEL_SPLIT_SEED);
    let model = DabrModel::fit(&train, &DabrConfig::default());
    let (_, held_out) = DatasetSpec::default()
        .with_sizes(IDENTITIES_PER_CLASS, IDENTITIES_PER_CLASS)
        .with_seed(seed)
        .generate()
        .split(1.0 - HELD_OUT_FRACTION, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ IDENTITY_ORDER_SALT);
    let mut class = |label: ClassLabel| {
        let mut bands: Vec<Vec<FeatureVector>> = vec![Vec::new(); 11];
        for sample in held_out.samples().iter().filter(|s| s.label == label) {
            bands[usize::from(model.score(&sample.features).band())].push(sample.features);
        }
        for band in &mut bands {
            for i in (1..band.len()).rev() {
                band.swap(i, rng.gen_range(0..=i));
            }
        }
        interleave(bands)
    };
    let benign = class(ClassLabel::Benign);
    let malicious = class(ClassLabel::Malicious);
    let feed = IdentityFeed::new(IpAddr::V6(Ipv6Addr::LOCALHOST), benign, malicious);
    (model, feed)
}

/// Merges `groups` so that every stretch of the result holds each group
/// in proportion to its size: element `k` of a group of `n` sits at
/// `(k + 0.5) / n` of the way through.
///
/// The attack scenario serves each class in this order, grouped by score
/// band. A benign fetch at 11 memory-hard bits costs about 9 ms of solving
/// against about 60 µs for a typical one, so under a plain shuffle the
/// share of such identities a half-second slice happened to draw moved
/// its throughput; interleaved, every slice carries the class's mix.
fn interleave<T>(groups: Vec<Vec<T>>) -> Vec<T> {
    let mut keyed: Vec<(f64, usize, T)> = groups
        .into_iter()
        .enumerate()
        .flat_map(|(g, group)| {
            let n = group.len() as f64;
            group
                .into_iter()
                .enumerate()
                .map(move |(k, item)| ((k as f64 + 0.5) / n, g, item))
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, item)| item).collect()
}

/// Value of the shared slice counter while warming up.
pub const WARMUP: u32 = 0;
/// Value of the shared slice counter that stops the load threads.
pub const STOP: u32 = u32::MAX;

/// One completed benign fetch inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct FetchSample {
    /// Measurement slice the fetch started in (1-based).
    pub slice: u32,
    /// `FetchReport::total_time`, in nanoseconds (saturating).
    pub total_ns: u32,
    /// `FetchReport::solve_time`, in nanoseconds (saturating).
    pub solve_ns: u32,
    /// Hash evaluations the solve took.
    pub attempts: u32,
    /// Difficulty paid; 0 for a bypassed fetch.
    pub bits: u8,
}

/// Everything one benign client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Fetches completed inside the window.
    pub samples: Vec<FetchSample>,
    /// Fetches that failed inside the window.
    pub failed_in_window: u64,
    /// Grants after a solved puzzle, over the whole run.
    pub puzzle_grants: u64,
    /// Grants without a puzzle, over the whole run.
    pub bypass_grants: u64,
    /// Grants whose body differed from the resource.
    pub wrong_body: u64,
    /// Grants that paid another difficulty than the workload fixes.
    pub wrong_payment: u64,
    /// `Ping` round trips timed during the warm-up, in nanoseconds.
    pub pings_ns: Vec<u32>,
    /// The first failure, if any; the client stops after it.
    pub failure: Option<String>,
}

fn saturate(nanos: u128) -> u32 {
    u32::try_from(nanos).unwrap_or(u32::MAX)
}

/// Fetches in a closed loop until the slice counter reads [`STOP`],
/// checking every grant. During the warm-up each fetch is followed by a
/// `Ping`, so the transport floor is timed on this connection under the
/// workload's own load.
pub fn drive_client(
    workload: Workload,
    client: &mut PowClient,
    slice: &AtomicU32,
    body: &[u8],
) -> ClientLog {
    let payment = workload.expected_payment();
    let mut log = ClientLog::default();
    loop {
        // Acquire: pairs with the controller's Release store of each slice.
        let current = slice.load(Ordering::Acquire);
        if current == STOP {
            return log;
        }
        match client.fetch(PATH) {
            Ok(report) => {
                let bits = report.difficulty.map(|d| d.bits());
                match bits {
                    Some(_) => log.puzzle_grants += 1,
                    None => log.bypass_grants += 1,
                }
                if report.body != body {
                    log.wrong_body += 1;
                }
                let paid_as_fixed = match payment {
                    Payment::Exactly(b) => bits == Some(b) && report.attempts > 0,
                    Payment::Nothing => bits.is_none() && report.attempts == 0,
                    Payment::Any => true,
                };
                if !paid_as_fixed {
                    log.wrong_payment += 1;
                }
                if current != WARMUP {
                    log.samples.push(FetchSample {
                        slice: current,
                        total_ns: saturate(report.total_time.as_nanos()),
                        solve_ns: saturate(report.solve_time.as_nanos()),
                        attempts: u32::try_from(report.attempts).unwrap_or(u32::MAX),
                        bits: bits.unwrap_or(0),
                    });
                }
            }
            Err(e) => {
                if current != WARMUP {
                    log.failed_in_window += 1;
                }
                log.failure = Some(e.to_string());
                return log;
            }
        }
        if current == WARMUP {
            match client.ping() {
                Ok(rtt) => log.pings_ns.push(saturate(rtt.as_nanos())),
                Err(e) => {
                    log.failure = Some(format!("ping: {e}"));
                    return log;
                }
            }
        }
    }
}

/// Everything the flooder saw.
#[derive(Debug, Default)]
pub struct FloodLog {
    /// Per-slice totals; index 0 is the warm-up.
    pub slices: Vec<Round>,
    /// Garbage solutions granted over the whole run (must stay zero).
    pub granted: u64,
    /// The first failure, if any; the flooder stops after it.
    pub failure: Option<String>,
}

/// Floods in rounds until the slice counter reads [`STOP`].
pub fn drive_flooder(flooder: &mut Flooder, slice: &AtomicU32) -> FloodLog {
    let mut log = FloodLog::default();
    loop {
        // Acquire: pairs with the controller's Release store of each slice.
        let current = slice.load(Ordering::Acquire);
        if current == STOP {
            return log;
        }
        match flooder.round() {
            Ok(round) => {
                log.granted += round.granted;
                let index = current as usize;
                if log.slices.len() <= index {
                    log.slices.resize(index + 1, Round::default());
                }
                let total = &mut log.slices[index];
                total.rejected += round.rejected;
                total.granted += round.granted;
                total.work += round.work;
            }
            Err(e) => {
                log.failure = Some(e.to_string());
                return log;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_each_group_evenly() {
        let merged = interleave(vec![vec!['a'; 6], vec!['b'; 2], vec!['c'; 1], vec![]]);
        assert_eq!(merged.len(), 9);
        assert_eq!(merged.iter().collect::<String>(), "aabacaaba");
    }
}
