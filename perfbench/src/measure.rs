//! One run of one workload: several server lifetimes, each a set-up, a
//! warm-up and its share of the measured window in half-second slices;
//! then correctness checks and the metrics derived from what the slices
//! recorded.

use crate::flood::Round;
use crate::host::{self, CpuTicks, Role, TaskTimes};
use crate::probes::Probes;
use crate::stats::{median, percentile};
use crate::workload::{self, ClientLog, FloodLog, Rig, Workload, PUZZLE_BITS, STOP, WARMUP};
use aipow_core::metrics::STAGE_NAMES;
use aipow_core::{Framework, MetricsSnapshot};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Server lifetimes per run, each with a fresh set-up. Where the
/// scheduler happens to place the four busy threads on two CPUs persists
/// for a lifetime: back-to-back 3 s runs of `puzzle_fetch` read a fetch
/// p50 anywhere from 42 to 83 µs, and in 20 s runs with little steal
/// single lifetimes of `puzzle_fetch` ranged from 24,500 to 30,300
/// fetches/s. Against one lifetime per run, in 8 interleaved runs each,
/// five lifetimes cut the run-to-run spread of `fetch_p90_us` from 0.15
/// to 0.07 of the median; ten more evenly sample the placements.
const LIFETIMES: u32 = 10;
/// Load before each lifetime's slices, so caches, connections and lazily
/// built state (the memory-hard arena) are warm.
const WARMUP_TIME: Duration = Duration::from_millis(500);
/// The window is cut into slices of this length; end-to-end metrics are
/// medians over the least-stolen half of the slices (see
/// [`steady_median`]).
const SLICE: Duration = Duration::from_millis(1_000 / SLICES_PER_SECOND as u64);
const SLICES_PER_SECOND: u32 = 2;
/// Stages of the solution chain in [`STAGE_NAMES`] (the rest are the
/// request chain).
const SOLUTION_STAGES: Range<usize> = 5..8;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u32,
    /// Alternate untraced and traced slices and report per-layer metrics.
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` and later issues use it.
    pub name: String,
    /// The value, or `None` where the layer did no work in this workload.
    pub value: Option<f64>,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: value.filter(|v| v.is_finite()),
        unit,
    }
}

/// A correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The counts behind the verdict.
    pub detail: String,
}

/// Facts about the machine a result was taken on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Available parallelism.
    pub nproc: usize,
    /// Hashing-relevant CPU flags present.
    pub cpu_flags: Vec<&'static str>,
    /// The compiler that built the benchmark and the program.
    pub rustc: &'static str,
    /// Reactor threads the server started.
    pub reactor_shards: usize,
    /// Steal time as a share of all CPU time over the window.
    pub steal_share: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's configuration.
    pub config: RunConfig,
    /// End-to-end metrics (untraced slices).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced slices); empty for an untraced run.
    pub layers: Vec<Metric>,
    /// Correctness checks; the run is correct when all pass.
    pub checks: Vec<Check>,
    /// Benign fetches attempted inside the window.
    pub attempted: u64,
    /// Benign fetches that failed inside the window.
    pub failed: u64,
    /// Host facts.
    pub host: HostFacts,
}

/// Counters at one slice boundary.
struct Mark {
    at: Instant,
    tasks: Vec<TaskTimes>,
    metrics: MetricsSnapshot,
    ticks: CpuTicks,
    score: (u64, u64),
    policy: (u64, u64),
}

fn mark(framework: &Framework, probes: &Probes) -> Result<Mark, String> {
    Ok(Mark {
        at: Instant::now(),
        tasks: host::task_snapshot().map_err(|e| format!("thread stats: {e}"))?,
        metrics: framework.metrics_snapshot(),
        ticks: host::cpu_ticks().map_err(|e| format!("/proc/stat: {e}"))?,
        score: probes.score.read(),
        policy: probes.policy.read(),
    })
}

/// One stage's activity over a span of the window.
#[derive(Debug, Default, Clone, Copy)]
struct StageDelta {
    batches: u64,
    items: u64,
    ns: u64,
}

/// What one or more slices recorded. Slices add, so per-layer metrics
/// pool the traced slices.
#[derive(Debug, Default, Clone)]
struct Slice {
    secs: f64,
    ticks: CpuTicks,
    fetch_ns: Vec<u32>,
    solve_ns: Vec<u32>,
    solve_total_ns: u64,
    attempts: u64,
    puzzle_work: f64,
    server_cpu_ns: u64,
    server_wait_ns: u64,
    client_cpu_ns: u64,
    requests: u64,
    solutions: u64,
    wakeups: u64,
    ready_events: u64,
    stages: [StageDelta; 8],
    score: (u64, u64),
    policy: (u64, u64),
    flood: Round,
}

impl Slice {
    fn between(a: &Mark, b: &Mark) -> Slice {
        let (server_cpu_ns, server_wait_ns) =
            host::delta(&a.tasks, &b.tasks, |t| t.role == Role::Server);
        let (client_cpu_ns, _) = host::delta(&a.tasks, &b.tasks, |t| {
            t.role == Role::Load && t.comm.starts_with("pb-client")
        });
        let (m0, m1) = (&a.metrics, &b.metrics);
        let mut stages = [StageDelta::default(); 8];
        for (slot, name) in STAGE_NAMES.iter().enumerate() {
            let find = |m: &MetricsSnapshot| {
                m.stage_timings
                    .iter()
                    .find(|t| t.stage == *name)
                    .map_or((0, 0, 0), |t| (t.batches, t.items, t.total_ns))
            };
            let (b0, i0, n0) = find(m0);
            let (b1, i1, n1) = find(m1);
            stages[slot] = StageDelta {
                batches: b1 - b0,
                items: i1 - i0,
                ns: n1 - n0,
            };
        }
        Slice {
            secs: (b.at - a.at).as_secs_f64(),
            ticks: CpuTicks {
                total: b.ticks.total - a.ticks.total,
                steal: b.ticks.steal - a.ticks.steal,
            },
            server_cpu_ns,
            server_wait_ns,
            client_cpu_ns,
            requests: (m1.challenges_issued + m1.bypassed) - (m0.challenges_issued + m0.bypassed),
            solutions: (m1.solutions_accepted + m1.solutions_rejected)
                - (m0.solutions_accepted + m0.solutions_rejected),
            wakeups: m1.reactor_wakeups - m0.reactor_wakeups,
            ready_events: m1.reactor_ready_events - m0.reactor_ready_events,
            stages,
            score: (b.score.0 - a.score.0, b.score.1 - a.score.1),
            policy: (b.policy.0 - a.policy.0, b.policy.1 - a.policy.1),
            ..Slice::default()
        }
    }

    /// Adds `other` in; the sample lists are left unsorted.
    fn merge(&mut self, other: &Slice) {
        self.secs += other.secs;
        self.ticks.total += other.ticks.total;
        self.ticks.steal += other.ticks.steal;
        self.fetch_ns.extend_from_slice(&other.fetch_ns);
        self.solve_ns.extend_from_slice(&other.solve_ns);
        self.solve_total_ns += other.solve_total_ns;
        self.attempts += other.attempts;
        self.puzzle_work += other.puzzle_work;
        self.server_cpu_ns += other.server_cpu_ns;
        self.server_wait_ns += other.server_wait_ns;
        self.client_cpu_ns += other.client_cpu_ns;
        self.requests += other.requests;
        self.solutions += other.solutions;
        self.wakeups += other.wakeups;
        self.ready_events += other.ready_events;
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.batches += theirs.batches;
            mine.items += theirs.items;
            mine.ns += theirs.ns;
        }
        self.score = (self.score.0 + other.score.0, self.score.1 + other.score.1);
        self.policy = (
            self.policy.0 + other.policy.0,
            self.policy.1 + other.policy.1,
        );
        self.flood.rejected += other.flood.rejected;
        self.flood.granted += other.flood.granted;
        self.flood.work += other.flood.work;
    }

    fn steal_share(&self) -> f64 {
        host::steal_share(CpuTicks::default(), self.ticks)
    }

    fn fetches(&self) -> f64 {
        self.fetch_ns.len() as f64
    }

    fn fetch_us(&self, q: f64) -> Option<f64> {
        percentile(&self.fetch_ns, q).map(|ns| f64::from(ns) / 1e3)
    }

    fn per_request_us(&self, ns: u64) -> Option<f64> {
        (self.requests > 0).then(|| ns as f64 / self.requests as f64 / 1e3)
    }

    fn stage_ns(&self, slots: std::ops::Range<usize>) -> u64 {
        self.stages[slots].iter().map(|s| s.ns).sum()
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Median of a per-slice metric over the half of `slices` the host stole
/// least CPU time from, skipping slices where it is undefined.
///
/// Steal on this kind of host comes in bursts: over one 20 s run of
/// `fig2_attack` the steal share of half-second slices ranged from 0.01
/// to 0.50, and benign throughput fell from about 4,000 to 1,000-2,500
/// fetches/s in the stolen slices. Taken over every slice, in six runs
/// each, the spread between runs (IQR over median) of `fetches_per_s`
/// was 0.15 on `puzzle_fetch` and of `fetch_p90_us` 0.17 on
/// `fig2_attack`; over the least-stolen half it was 0.02 and 0.12.
fn steady_median(slices: &[&Slice], f: impl Fn(&Slice) -> Option<f64>) -> Option<f64> {
    let mut steadiest = slices.to_vec();
    steadiest.sort_by(|a, b| a.steal_share().total_cmp(&b.steal_share()));
    steadiest.truncate(slices.len().div_ceil(2));
    let values: Vec<f64> = steadiest.iter().filter_map(|s| f(s)).collect();
    median(&values)
}

/// Every one of `slices`, summed.
fn pool(slices: &[&Slice]) -> Slice {
    let mut pooled = Slice::default();
    slices.iter().for_each(|s| pooled.merge(s));
    pooled.fetch_ns.sort_unstable();
    pooled.solve_ns.sort_unstable();
    pooled
}

/// One server lifetime inside a run: a fresh set-up, a warm-up, and its
/// share of the window's slices.
struct Lifetime {
    /// Slices in window order, each with whether it was traced.
    slices: Vec<(bool, Slice)>,
    clients: Vec<ClientLog>,
    flood: Option<FloodLog>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    reactor_shards: usize,
}

impl Lifetime {
    fn slices(&self, traced: bool) -> Vec<&Slice> {
        self.slices
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, s)| s)
            .collect()
    }
}

/// Runs one workload and measures it.
///
/// # Errors
///
/// Describes a set-up, thread or `/proc` failure that left no result.
pub fn run(config: RunConfig) -> Result<Outcome, String> {
    let slice_count = config.seconds * SLICES_PER_SECOND;
    let lifetime_count = LIFETIMES.min(slice_count);
    let traced = |index: u32| config.trace && index.is_multiple_of(2);
    let mut setup_s = Vec::new();
    let mut lifetimes = Vec::new();
    let mut first = 1;
    for i in 0..lifetime_count {
        let count = slice_count / lifetime_count + u32::from(i < slice_count % lifetime_count);
        let start = Instant::now();
        let rig = workload::setup(config.workload, config.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        lifetimes.push(serve(config.workload, rig, first..first + count, traced)?);
        first += count;
    }

    let untraced: Vec<&Slice> = lifetimes.iter().flat_map(|l| l.slices(false)).collect();
    let traced_slices: Vec<&Slice> = lifetimes.iter().flat_map(|l| l.slices(true)).collect();
    let clients: Vec<&ClientLog> = lifetimes.iter().flat_map(|l| &l.clients).collect();
    let attempted: u64 = clients
        .iter()
        .map(|l| l.samples.len() as u64 + l.failed_in_window)
        .sum();
    let failed: u64 = clients.iter().map(|l| l.failed_in_window).sum();
    let mut pings: Vec<u32> = clients
        .iter()
        .flat_map(|l| l.pings_ns.iter().copied())
        .collect();
    pings.sort_unstable();
    let ping_p50_us = percentile(&pings, 0.5).map(|ns| f64::from(ns) / 1e3);

    let end_to_end = end_to_end(config.workload, &untraced, &setup_s, attempted, failed);
    let layers = if config.trace {
        layers(config.workload, &untraced, &traced_slices, ping_p50_us)
    } else {
        Vec::new()
    };
    let checks = checks(config.workload, &lifetimes);
    let host = HostFacts {
        nproc: host::nproc(),
        cpu_flags: host::cpu_flags(),
        rustc: env!("PERFBENCH_RUSTC"),
        reactor_shards: lifetimes
            .iter()
            .map(|l| l.reactor_shards)
            .max()
            .unwrap_or(0),
        steal_share: pool(&[&untraced[..], &traced_slices[..]].concat()).steal_share(),
    };
    Ok(Outcome {
        config,
        end_to_end,
        layers,
        checks,
        attempted,
        failed,
        host,
    })
}

/// Drives `rig` through a warm-up and the slices numbered `indices`, then
/// shuts it down.
fn serve(
    workload: Workload,
    rig: Rig,
    indices: Range<u32>,
    traced: impl Fn(u32) -> bool,
) -> Result<Lifetime, String> {
    let Rig {
        framework,
        server,
        mut clients,
        mut flooder,
        probes,
        body,
    } = rig;
    let before = framework.metrics_snapshot();
    let slice = AtomicU32::new(WARMUP);

    let (marks, client_logs, flood_log) = std::thread::scope(|s| {
        // A load thread already running stops only at STOP, and the scope
        // waits for it, so a failed spawn must stop the others first.
        let spawn_failed = |what: &str, e: std::io::Error| {
            // Release: pairs with the load threads' Acquire loads.
            slice.store(STOP, Ordering::Release);
            format!("spawn {what}: {e}")
        };
        let mut client_threads = Vec::new();
        for (i, client) in clients.iter_mut().enumerate() {
            let (slice, body) = (&slice, &body);
            let handle = std::thread::Builder::new()
                .name(format!("pb-client-{i}"))
                .spawn_scoped(s, move || {
                    workload::drive_client(workload, client, slice, body)
                })
                .map_err(|e| spawn_failed("client", e))?;
            client_threads.push(handle);
        }
        let flood_thread = match flooder.as_mut() {
            Some(flooder) => {
                let slice = &slice;
                Some(
                    std::thread::Builder::new()
                        .name("pb-flooder".into())
                        .spawn_scoped(s, move || workload::drive_flooder(flooder, slice))
                        .map_err(|e| spawn_failed("flooder", e))?,
                )
            }
            None => None,
        };

        let window = measure_window(&framework, &probes, &slice, indices.clone(), &traced);
        // Release: pairs with the load threads' Acquire loads.
        slice.store(STOP, Ordering::Release);
        let client_logs: Vec<ClientLog> = client_threads
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<_, _>>()?;
        let flood_log = match flood_thread {
            Some(h) => Some(
                h.join()
                    .map_err(|_| "flooder thread panicked".to_string())?,
            ),
            None => None,
        };
        Ok::<_, String>((window?, client_logs, flood_log))
    })?;
    let after = framework.metrics_snapshot();
    let reactor_shards = host::task_snapshot()
        .map_err(|e| format!("thread stats: {e}"))?
        .iter()
        .filter(|t| t.comm.starts_with("aipow-reactor"))
        .count();
    drop(clients);
    drop(flooder);
    server.shutdown();

    let slices = build_slices(&marks, indices.start, &client_logs, flood_log.as_ref());
    Ok(Lifetime {
        slices: indices.map(&traced).zip(slices).collect(),
        clients: client_logs,
        flood: flood_log,
        before,
        after,
        reactor_shards,
    })
}

/// Warms up, then steps the slice counter through `indices` once per
/// [`SLICE`], marking counters at every boundary. Returns one more mark
/// than there are slices.
fn measure_window(
    framework: &Framework,
    probes: &Probes,
    slice: &AtomicU32,
    indices: Range<u32>,
    traced: impl Fn(u32) -> bool,
) -> Result<Vec<Mark>, String> {
    std::thread::sleep(WARMUP_TIME);
    let mut marks = Vec::with_capacity(indices.len() + 1);
    let start = Instant::now();
    for (n, index) in (1..).zip(indices) {
        // relaxed: the tracing flag only gates statistics
        probes.tracing.store(traced(index), Ordering::Relaxed);
        marks.push(mark(framework, probes)?);
        // Release: pairs with the load threads' Acquire loads.
        slice.store(index, Ordering::Release);
        let deadline = start + SLICE * n;
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    }
    marks.push(mark(framework, probes)?);
    Ok(marks)
}

/// Splits what the load threads saw into the slices between `marks`;
/// slice `first` is the first of them.
fn build_slices(
    marks: &[Mark],
    first: u32,
    clients: &[ClientLog],
    flood: Option<&FloodLog>,
) -> Vec<Slice> {
    let mut slices: Vec<Slice> = marks
        .windows(2)
        .map(|pair| Slice::between(&pair[0], &pair[1]))
        .collect();
    let position = |index: u32| index.checked_sub(first).map(|p| p as usize);
    for sample in clients.iter().flat_map(|l| &l.samples) {
        let Some(s) = position(sample.slice).and_then(|p| slices.get_mut(p)) else {
            continue;
        };
        s.fetch_ns.push(sample.total_ns);
        if sample.bits > 0 {
            s.solve_ns.push(sample.solve_ns);
            s.solve_total_ns += u64::from(sample.solve_ns);
            s.attempts += u64::from(sample.attempts);
            s.puzzle_work += f64::from(sample.bits).exp2();
        }
    }
    if let Some(flood) = flood {
        for (index, round) in (0..).zip(&flood.slices) {
            if let Some(s) = position(index).and_then(|p| slices.get_mut(p)) {
                s.flood = *round;
            }
        }
    }
    for s in &mut slices {
        s.fetch_ns.sort_unstable();
        s.solve_ns.sort_unstable();
    }
    slices
}

/// Names of the end-to-end metrics every workload reports, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 5] = [
    "fetch_p50_us",
    "fetch_p90_us",
    "fetches_per_s",
    "server_cpu_us_per_req",
    "setup_s",
];

fn end_to_end(
    workload: Workload,
    slices: &[&Slice],
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "fetch_p50_us",
            steady_median(slices, |s| s.fetch_us(0.5)),
            "us",
        ),
        metric(
            "fetch_p90_us",
            steady_median(slices, |s| s.fetch_us(0.9)),
            "us",
        ),
        metric(
            "fetches_per_s",
            steady_median(slices, |s| ratio(s.fetches(), s.secs)),
            "1/s",
        ),
        metric(
            "server_cpu_us_per_req",
            steady_median(slices, |s| s.per_request_us(s.server_cpu_ns)),
            "us",
        ),
        metric("setup_s", median(setup_s), "s"),
        metric(
            "error_rate",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ];
    if workload == Workload::Fig2Attack {
        let pooled = pool(slices);
        out.push(metric(
            "attack_req_per_s",
            steady_median(slices, |s| ratio(s.flood.rejected as f64, s.secs)),
            "1/s",
        ));
        out.push(metric(
            "throttle_work_ratio",
            ratio(
                pooled.flood.work / pooled.flood.rejected as f64,
                pooled.puzzle_work / pooled.fetches(),
            ),
            "ratio",
        ));
    }
    out
}

/// Names of the per-layer metrics defined on every workload, in
/// `BENCHMARK.json` order. The rest of the per-layer table is undefined
/// on some workload (no stage items, no solves, no policy calls) and is
/// printed but not put in the result line.
pub const LAYERS: [&str; 13] = [
    "pipeline.us_per_req",
    "pipeline.score.us_per_req",
    "pipeline.policy.us_per_req",
    "pipeline.issue.us_per_req",
    "pipeline.request_telemetry.us_per_req",
    "reactor.cpu_us_per_req",
    "reactor.wakeups_per_req",
    "reactor.runq_wait_us_per_req",
    "transport.ping_rtt_us_p50",
    "client.cpu_us_per_fetch",
    "reputation.score_us",
    "unattributed_share",
    "trace.overhead_pct",
];

fn layers(
    workload: Workload,
    untraced: &[&Slice],
    traced: &[&Slice],
    ping_p50_us: Option<f64>,
) -> Vec<Metric> {
    let t = pool(traced);
    let mut out = Vec::new();

    let pipeline_ns = t.stage_ns(0..STAGE_NAMES.len());
    out.push(metric(
        "pipeline.us_per_req",
        t.per_request_us(pipeline_ns),
        "us",
    ));
    for (slot, name) in STAGE_NAMES.iter().enumerate() {
        let stage = t.stages[slot];
        out.push(metric(
            &format!("pipeline.{name}.us_per_item"),
            ratio(stage.ns as f64 / 1e3, stage.items as f64),
            "us",
        ));
        if !SOLUTION_STAGES.contains(&slot) {
            out.push(metric(
                &format!("pipeline.{name}.us_per_req"),
                t.per_request_us(stage.ns),
                "us",
            ));
        }
    }
    let (request, solution) = (t.stages[0], t.stages[SOLUTION_STAGES.start]);
    out.push(metric(
        "pipeline.request.items_per_batch",
        ratio(request.items as f64, request.batches as f64),
        "items",
    ));
    out.push(metric(
        "pipeline.solution.items_per_batch",
        ratio(solution.items as f64, solution.batches as f64),
        "items",
    ));

    out.push(metric(
        "reactor.cpu_us_per_req",
        t.per_request_us(t.server_cpu_ns.saturating_sub(pipeline_ns)),
        "us",
    ));
    out.push(metric(
        "reactor.wakeups_per_req",
        ratio(t.wakeups as f64, t.requests as f64),
        "count",
    ));
    out.push(metric(
        "reactor.ready_events_per_wakeup",
        ratio(t.ready_events as f64, t.wakeups as f64),
        "count",
    ));
    out.push(metric(
        "reactor.runq_wait_us_per_req",
        t.per_request_us(t.server_wait_ns),
        "us",
    ));
    out.push(metric("transport.ping_rtt_us_p50", ping_p50_us, "us"));

    let solve_p50_us = percentile(&t.solve_ns, 0.5).map(|ns| f64::from(ns) / 1e3);
    out.push(metric("client.solve_us_p50", solve_p50_us, "us"));
    out.push(metric(
        "pow.solver.ns_per_attempt",
        ratio(t.solve_total_ns as f64, t.attempts as f64),
        "ns",
    ));
    out.push(metric(
        "pow.solver.attempts_per_work",
        ratio(t.attempts as f64, t.puzzle_work),
        "ratio",
    ));
    out.push(metric(
        "client.cpu_us_per_fetch",
        ratio(t.client_cpu_ns as f64 / 1e3, t.fetches()),
        "us",
    ));
    let fetch_p50_us = t.fetch_us(0.5);
    out.push(metric("client.fetch_us_p50", fetch_p50_us, "us"));
    out.push(metric(
        "reputation.score_us",
        ratio(t.score.1 as f64 / 1e3, t.score.0 as f64),
        "us",
    ));
    out.push(metric(
        "policy.eval_us",
        ratio(t.policy.1 as f64 / 1e3, t.policy.0 as f64),
        "us",
    ));

    // Fetch latency left over once the solve, the round trips at the
    // ping floor, and the pipeline stages a fetch passes are subtracted.
    let request_chain_us = t.per_request_us(t.stage_ns(0..SOLUTION_STAGES.start));
    let solution_chain_us = ratio(t.stage_ns(SOLUTION_STAGES) as f64 / 1e3, t.solutions as f64);
    let attributed = match workload {
        Workload::BypassFetch => Some(0.0),
        _ => solve_p50_us.zip(solution_chain_us).map(|(a, b)| a + b),
    }
    .zip(request_chain_us)
    .zip(ping_p50_us)
    .map(|((rest, request), ping)| rest + request + workload.round_trips() * ping);
    out.push(metric(
        "unattributed_share",
        fetch_p50_us
            .zip(attributed)
            .map(|(fetch, known)| (fetch - known) / fetch),
        "ratio",
    ));
    let untraced_p50 = steady_median(untraced, |s| s.fetch_us(0.5));
    let traced_p50 = steady_median(traced, |s| s.fetch_us(0.5));
    out.push(metric(
        "trace.overhead_pct",
        traced_p50
            .zip(untraced_p50)
            .map(|(on, off)| (on / off - 1.0) * 100.0),
        "%",
    ));
    out
}

fn check(name: &'static str, passed: bool, detail: String) -> Check {
    Check {
        name,
        passed,
        detail,
    }
}

fn checks(workload: Workload, lifetimes: &[Lifetime]) -> Vec<Check> {
    let clients = || lifetimes.iter().flat_map(|l| &l.clients);
    let sum = |f: fn(&ClientLog) -> u64| clients().map(f).sum::<u64>();
    let grants = sum(|l| l.puzzle_grants + l.bypass_grants);
    let mut out = vec![
        check(
            "bodies_match_resource",
            sum(|l| l.wrong_body) == 0 && grants > 0,
            format!("{} of {grants} grants differed", sum(|l| l.wrong_body)),
        ),
        check(
            "payment_as_fixed",
            sum(|l| l.wrong_payment) == 0,
            format!(
                "{} of {grants} grants paid otherwise than {}",
                sum(|l| l.wrong_payment),
                match workload {
                    Workload::PuzzleFetch => format!("exactly {PUZZLE_BITS} bits"),
                    Workload::BypassFetch => "nothing".into(),
                    Workload::Fig2Attack => "any earned difficulty".into(),
                }
            ),
        ),
    ];
    let mut mismatched = 0;
    let (mut accepted, mut bypassed) = (0, 0);
    for l in lifetimes {
        let a = l.after.solutions_accepted - l.before.solutions_accepted;
        let b = l.after.bypassed - l.before.bypassed;
        let puzzle: u64 = l.clients.iter().map(|c| c.puzzle_grants).sum();
        let bypass: u64 = l.clients.iter().map(|c| c.bypass_grants).sum();
        mismatched += usize::from(a != puzzle || b != bypass);
        accepted += a;
        bypassed += b;
    }
    let (puzzle, bypass) = (sum(|l| l.puzzle_grants), sum(|l| l.bypass_grants));
    out.push(check(
        "server_counts_match_grants",
        mismatched == 0,
        format!(
            "server accepted {accepted}, bypassed {bypassed}; clients saw {puzzle} solved and {bypass} bypassed grants; {mismatched} of {} servers disagreed",
            lifetimes.len()
        ),
    ));
    let floods: Vec<&FloodLog> = lifetimes.iter().filter_map(|l| l.flood.as_ref()).collect();
    if !floods.is_empty() {
        let granted: u64 = floods.iter().map(|f| f.granted).sum();
        let rejected: u64 = floods
            .iter()
            .flat_map(|f| &f.slices)
            .map(|r| r.rejected)
            .sum();
        out.push(check(
            "no_garbage_granted",
            granted == 0 && rejected > 0,
            format!(
                "{granted} of {} garbage solutions granted",
                granted + rejected
            ),
        ));
    }
    let failures: Vec<&str> = clients()
        .filter_map(|l| l.failure.as_deref())
        .chain(floods.iter().filter_map(|f| f.failure.as_deref()))
        .collect();
    out.push(check(
        "load_ran_to_the_end",
        failures.is_empty(),
        if failures.is_empty() {
            "every load thread ran until stopped".into()
        } else {
            failures.join("; ")
        },
    ));
    out
}
