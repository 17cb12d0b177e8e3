//! The four workloads: their fixed shapes, how each is built and driven,
//! and the correctness checks each run must pass.
//!
//! Sizes are constants. There is no quick or full mode and no environment
//! switch: the same workload name and seed always simulate the same
//! requests.

use crate::clock::{rss_kb, Cost};
use crate::probe::{Probe, Timed, TimedPassive};
use bytes::Bytes;
use perpetual_ws::{
    AuditMode, GroupId, PassiveService, PassiveUtils, Service, SystemBuilder, TraceLevel, TxnShim,
    WsCostModel,
};
use perpetual_ws::{ServiceExecutor, System};
use pws_bench::{LoadCaller, MixedCaller, TxnIncrement};
use pws_perpetual::{decode_pmsg, CallId, ClientCore, ClientEvent, PMsg, PerpetualReplica};
use pws_simnet::{Context, DetRng, Node, NodeId, RunOutcome, SimDuration, SimTime, TimerId};
use pws_soap::engine::Engine;
use pws_soap::{MessageContext, XmlNode};
use pws_tpcw::bank::Bank;
use pws_tpcw::bookstore::Bookstore;
use pws_tpcw::pge::Pge;
use pws_tpcw::rbe::Rbe;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["pipeline", "sharded_txn", "tpcw_browse", "failover"];

// ---------------------------------------------------------------- shapes

/// `pipeline`: replicas in the calling service and in the target.
const PIPE_N: u32 = 4;
/// `pipeline`: asynchronous calls the caller keeps in flight.
const PIPE_WINDOW: u64 = 16;
/// `pipeline`: CLBFT batch cap.
const PIPE_BATCH: usize = 16;
/// `pipeline`: calls issued.
const PIPE_CALLS: u64 = 1_500;

/// `sharded_txn`: shards, replicas per shard, callers, window, calls per
/// caller, and the cross-shard period (every 10th call is a 2PC).
const TXN_SHARDS: u32 = 4;
const TXN_N: u32 = 4;
const TXN_CALLERS: u32 = 32;
const TXN_WINDOW: u64 = 4;
const TXN_PER_CALLER: u64 = 100;
const TXN_CROSS_EVERY: u64 = 10;

/// `tpcw_browse`: bookstore/PGE/bank replicas, browsers, think time,
/// page-cost divisor, warm-up and measured window.
const TPCW_N: u32 = 4;
const TPCW_RBES: u32 = 14;
const TPCW_THINK: SimDuration = SimDuration::from_millis(1);
const TPCW_PAGE_SCALE: u32 = 100;
const TPCW_ITEMS: u32 = 1_000;
const TPCW_WARMUP: SimDuration = SimDuration::from_millis(500);
const TPCW_WINDOW: SimDuration = SimDuration::from_secs(5);

/// `failover`: replicas, open-loop rate, warm-up, measured window, and
/// the crash of the initial primary at `FO_WARMUP + FO_CRASH_AFTER`.
const FO_N: u32 = 4;
const FO_RATE: u64 = 400;
/// Stream of the run seed that draws the open-loop arrival instants.
const ARRIVAL_STREAM: u64 = 0xA441_7A15;
const FO_WARMUP: SimDuration = SimDuration::from_millis(500);
const FO_WINDOW: SimDuration = SimDuration::from_secs(6);
const FO_CRASH_AFTER: SimDuration = SimDuration::from_secs(2);
/// An open-loop call outstanding this long is retransmitted to the next
/// responder.
const FO_RETRY: SimDuration = SimDuration::from_millis(300);

/// How long a drained run may take past its measured window before the
/// unfinished requests count as failed.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(30);
/// Slice length of a run's drain phase.
const DRAIN_SLICE: SimDuration = SimDuration::from_millis(100);
/// Share of a count-bounded run's completions treated as warm-up.
const WARMUP_SHARE: f64 = 0.1;
/// Completions per block when taking a fault-free run's typical stall.
const STALL_BLOCK: usize = 16;

/// What the layer replays need to know about a workload's topology.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Replicas in each calling group.
    pub caller_n: u32,
    /// Replicas in each target group.
    pub target_n: u32,
    /// Requests a target group has to order at once.
    pub burst: u32,
    /// CLBFT batch cap.
    pub max_batch: usize,
}

/// The workload's topology (see [`Shape`]).
pub fn shape(name: &str) -> Shape {
    let (caller_n, burst) = match name {
        "pipeline" => (PIPE_N, PIPE_WINDOW as u32),
        "sharded_txn" => (1, TXN_CALLERS * TXN_WINDOW as u32 / TXN_SHARDS),
        "tpcw_browse" => (1, TPCW_RBES),
        _ => (1, 1),
    };
    Shape {
        caller_n,
        target_n: 4,
        burst,
        max_batch: PIPE_BATCH,
    }
}

/// The workload's parameters, recorded in every output.
pub fn params(name: &str) -> Vec<(&'static str, String)> {
    let net = (
        "net",
        "default_ws_net: 250us/hop + 0.008us/B, jitter 25us, loss 0".to_owned(),
    );
    let mut p: Vec<(&'static str, String)> = match name {
        "pipeline" => vec![
            ("loop", "closed".into()),
            ("caller", format!("LoadCaller x{PIPE_N} replicas")),
            ("target", format!("null-op x{PIPE_N} replicas")),
            ("window", PIPE_WINDOW.to_string()),
            ("max_batch", PIPE_BATCH.to_string()),
            ("calls", PIPE_CALLS.to_string()),
        ],
        "sharded_txn" => vec![
            ("loop", "closed".into()),
            ("shards", format!("{TXN_SHARDS} x {TXN_N} replicas")),
            ("callers", format!("{TXN_CALLERS} MixedCaller x1 replica")),
            ("window", TXN_WINDOW.to_string()),
            ("calls_per_caller", TXN_PER_CALLER.to_string()),
            ("cross_shard_every", TXN_CROSS_EVERY.to_string()),
        ],
        "tpcw_browse" => vec![
            ("loop", "closed".into()),
            (
                "bookstore",
                format!("x{TPCW_N} replicas, read-only fast path"),
            ),
            ("pge_bank", format!("x{TPCW_N} replicas each")),
            ("rbes", TPCW_RBES.to_string()),
            ("think_ms", TPCW_THINK.as_millis().to_string()),
            ("page_cost_scale", TPCW_PAGE_SCALE.to_string()),
            ("warmup_ms", TPCW_WARMUP.as_millis().to_string()),
            ("window_ms", TPCW_WINDOW.as_millis().to_string()),
        ],
        "failover" => vec![
            ("loop", "open".into()),
            ("target", format!("null-op x{FO_N} replicas")),
            (
                "rate_rps",
                format!("{FO_RATE}, at seeded uniformly drawn instants"),
            ),
            ("warmup_ms", FO_WARMUP.as_millis().to_string()),
            ("window_ms", FO_WINDOW.as_millis().to_string()),
            (
                "crash_primary_at_ms",
                (FO_WARMUP + FO_CRASH_AFTER).as_millis().to_string(),
            ),
            ("retry_ms", FO_RETRY.as_millis().to_string()),
        ],
        _ => Vec::new(),
    };
    p.push(net);
    p
}

// ------------------------------------------------------------ the result

/// Where a workload's end-to-end simulated figures come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measured {
    /// Throughput, stall and latency at the unreplicated client, in every
    /// run.
    AtClient,
    /// Throughput and stall from completions at the calling replicas;
    /// latency from the traced run's request spans, since a replicated
    /// caller has no per-call clock.
    LatencyFromSpans,
    /// Throughput, stall and latency from the traced run's request spans
    /// (the completion samples also hold the shards' own 2PC calls).
    FromSpans,
}

/// The workload's client requests: who serves and who issues them, where
/// their figures come from, and the keys they route by.
pub struct Requests {
    /// Groups whose request spans are the workload's client requests.
    pub targets: Vec<GroupId>,
    /// Groups that issue them.
    pub callers: Vec<GroupId>,
    /// Where the end-to-end simulated figures come from.
    pub measured: Measured,
    /// Routing keys (for the router replay).
    pub keys: Vec<String>,
}

/// The simulated-clock outcome of one run. Deterministic: every run of a
/// workload and seed, traced or not, must produce an identical value.
///
/// The simulation's trace digest is deliberately not part of it: on
/// `failover` the digest of same-seed runs in one process can differ
/// (same-instant sends during the view change are ordered differently)
/// while every result and counter below is identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Requests the workload attempted.
    pub attempted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Completed requests per simulated second over the measured window
    /// (0 when it comes from the traced run's spans).
    pub throughput_rps: f64,
    /// Longest interval without a completion in the measured window, ms.
    pub outage_ms: f64,
    /// Client-measured round trips in the measured window, ms.
    pub latencies_ms: Vec<f64>,
    /// Open-loop generator lateness per request, ms (empty when closed).
    pub gen_lag_ms: Vec<f64>,
    /// Simulated seconds from the start to the last completion.
    pub active_s: f64,
    /// Counters every run must reproduce exactly.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Counters compared between runs (tracing and auditing add others).
const COMPARED: [&str; 8] = [
    "net.messages_sent",
    "net.bytes_sent",
    "net.messages_lost",
    "cpu.busy_us",
    "perpetual.messages_sent",
    "perpetual.bundles_validated",
    "clbft.ro.served",
    "clbft.txn.committed",
];

/// One built-and-driven run.
pub struct Exec {
    /// The system after the run, for metrics and span queries.
    pub sys: System,
    /// The simulated outcome.
    pub sim: SimOutcome,
    /// Cost of each `SystemBuilder::new` → built `System`.
    pub setup: Vec<Cost>,
    /// Cost inside `System::run_until`, summed over slices.
    pub run: Cost,
    /// Resident set size right after the build and after the run, KiB.
    pub rss_built_kb: u64,
    /// See `rss_built_kb`.
    pub rss_ran_kb: u64,
    /// The workload's client requests.
    pub requests: Requests,
}

/// Builds and drives one run of workload `name`. `probe` makes it the
/// traced run: phase tracing, strict audit, and timed hosted services.
///
/// The system is built `builds` times (the set-up samples) and the last
/// build is driven.
pub fn execute(
    name: &str,
    seed: u64,
    probe: Option<&Probe>,
    builds: usize,
) -> Result<Exec, String> {
    let b = builds;
    match name {
        "pipeline" => pipeline(seed, probe, b),
        "sharded_txn" => sharded_txn(seed, probe, b),
        "tpcw_browse" => tpcw_browse(seed, probe, b),
        "failover" => failover(seed, probe, b),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Builds the system `builds` times, timing each `SystemBuilder::new` →
/// built `System`, and keeps the last. The traced run builds at
/// `TraceLevel::Phases` with the strict auditor, inside a `build` span.
fn build(
    seed: u64,
    probe: Option<&Probe>,
    builds: usize,
    configure: impl Fn(&mut SystemBuilder),
) -> (System, Vec<Cost>) {
    let make = || {
        Cost::measure(|| {
            let mut b = SystemBuilder::new(seed);
            if probe.is_some() {
                b.tracing(TraceLevel::Phases);
                b.audit(AuditMode::Strict);
            } else {
                b.tracing(TraceLevel::Off);
            }
            configure(&mut b);
            b.build()
        })
    };
    let mut costs = Vec::with_capacity(builds);
    loop {
        let (sys, cost) = match probe {
            Some(p) => p.span("build", make),
            None => make(),
        };
        costs.push(cost);
        if costs.len() >= builds.max(1) {
            return (sys, costs);
        }
    }
}

/// Drives `sys` with timed `run_until` slices.
struct Runner<'a> {
    probe: Option<&'a Probe>,
    cost: Cost,
}

impl Runner<'_> {
    fn run_until(&mut self, sys: &mut System, t: SimTime) -> Result<RunOutcome, String> {
        let mut step = || Cost::measure(|| sys.run_until(t));
        let (out, cost) = match self.probe {
            Some(p) => p.span("run_until", step),
            None => step(),
        };
        self.cost.add(cost);
        match out {
            RunOutcome::NodePanicked { node } => Err(format!(
                "node {} panicked: {}",
                node.raw(),
                sys.sim_mut().panic_message().unwrap_or("?")
            )),
            RunOutcome::BudgetExhausted => Err("event budget exhausted".into()),
            other => Ok(other),
        }
    }
}

fn finish(
    sys: System,
    mut sim: SimOutcome,
    setup: Vec<Cost>,
    runner: Runner<'_>,
    rss: (u64, u64),
    requests: Requests,
) -> Result<Exec, String> {
    let violations = sys.audit_violations();
    if violations != 0 {
        return Err(format!("audit found {violations} violation(s)"));
    }
    for key in COMPARED {
        sim.counters.insert(key, sys.metrics().counter(key));
    }
    Ok(Exec {
        sys,
        sim,
        setup,
        run: runner.cost,
        rss_built_kb: rss.0,
        rss_ran_kb: rss.1,
        requests,
    })
}

fn outcome(attempted: u64, completed: u64) -> SimOutcome {
    SimOutcome {
        attempted,
        completed,
        throughput_rps: 0.0,
        outage_ms: 0.0,
        latencies_ms: Vec::new(),
        gen_lag_ms: Vec::new(),
        active_s: 0.0,
        counters: BTreeMap::new(),
    }
}

/// Throughput and stall of sorted completion times (seconds) inside
/// `(from, to]`, where each request completes `copies` times (once per
/// calling replica). Throughput is in requests per second; the stall is
/// in ms.
///
/// Across an injected fault (`Stall::Longest`) the stall is the longest
/// interval without a completion: the outage. With nothing injected that
/// extreme value swings by a quarter from seed to seed, so a fault-free
/// run reports its typical stall instead (`Stall::Typical`): the
/// completions are cut into blocks of [`STALL_BLOCK`] and each block's
/// longest gap is averaged over the blocks.
pub fn window_stats(times: &[f64], from: f64, to: f64, copies: f64, stall: Stall) -> (f64, f64) {
    let mut edges = vec![from];
    edges.extend(times.iter().copied().filter(|&t| t > from && t <= to));
    edges.push(to);
    let rps = (edges.len() - 2) as f64 / copies / (to - from);
    let gaps: Vec<f64> = edges.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect();
    let longest = |g: &[f64]| g.iter().copied().fold(0.0, f64::max);
    let ms = match stall {
        Stall::Longest => longest(&gaps),
        Stall::Typical => {
            let blocks: Vec<f64> = gaps.chunks(STALL_BLOCK).map(longest).collect();
            blocks.iter().sum::<f64>() / blocks.len() as f64
        }
    };
    (rps, ms)
}

/// Which stall [`window_stats`] reports.
#[derive(Debug, Clone, Copy)]
pub enum Stall {
    /// The longest gap in the window.
    Longest,
    /// The mean over blocks of completions of each block's longest gap.
    Typical,
}

/// [`window_stats`] over the completions after the warm-up share of a
/// count-bounded run: from the warm-up point to the last completion.
pub fn count_window_stats(times: &[f64], copies: f64) -> (f64, f64) {
    if times.len() < 2 {
        return (0.0, 0.0);
    }
    let mut t = times.to_vec();
    t.sort_by(f64::total_cmp);
    let i0 = (t.len() as f64 * WARMUP_SHARE) as usize;
    window_stats(&t, t[i0], t[t.len() - 1], copies, Stall::Typical)
}

/// Node id of replica `idx` of group `gid`.
fn replica_node(sys: &mut System, gid: GroupId, idx: u32) -> NodeId {
    (0..sys.sim_mut().node_count() as u32)
        .map(NodeId::from_raw)
        .find(|&n| {
            sys.sim_mut()
                .node_mut::<PerpetualReplica>(n)
                .is_some_and(|r| r.group() == gid && r.index() == idx)
        })
        .expect("replica exists")
}

// ------------------------------------------------------------ services

/// The §6.2 null-op: replies with its old counter and increments it. Same
/// behaviour as `pws_bench::Increment::null`, but the counter is shared
/// with the benchmark so it can check replica agreement after the run.
struct NullOp {
    counter: Rc<Cell<u64>>,
}

impl PassiveService for NullOp {
    fn handle(&mut self, req: MessageContext, _utils: &mut PassiveUtils) -> MessageContext {
        let old = self.counter.get();
        self.counter.set(old + 1);
        req.reply_with(
            "",
            XmlNode::new("incrementResult").with_text(old.to_string()),
        )
    }
}

fn passive(s: impl PassiveService, probe: Option<&Probe>) -> Box<dyn PassiveService> {
    match probe {
        Some(p) => Box::new(TimedPassive::new(s, p)),
        None => Box::new(s),
    }
}

fn service<S: Service>(s: S, probe: Option<&Probe>) -> Box<dyn Service> {
    match probe {
        Some(p) => Box::new(Timed::new(s, p)),
        None => Box::new(s),
    }
}

/// The service of type `S` hosted by replica `idx` of `name`, wrapped or
/// not.
fn hosted<'a, S: Service>(sys: &'a mut System, name: &str, idx: u32) -> &'a mut S {
    let exec = sys
        .replica_mut(name, idx)
        .expect("replica")
        .executor_mut::<ServiceExecutor>()
        .expect("service executor");
    if exec.service_mut::<S>().is_some() {
        return exec.service_mut::<S>().expect("checked");
    }
    &mut exec
        .service_mut::<Timed<S>>()
        .expect("hosted service")
        .inner
}

// ------------------------------------------------------------ pipeline

fn pipeline(seed: u64, probe: Option<&Probe>, builds: usize) -> Result<Exec, String> {
    let counters: Vec<Rc<Cell<u64>>> = (0..PIPE_N).map(|_| Rc::default()).collect();
    let shared = counters.clone();
    let (mut sys, setup) = build(seed, probe, builds, |b| {
        let (pc, pt, shared) = (probe.cloned(), probe.cloned(), shared.clone());
        b.max_batch_size(PIPE_BATCH);
        b.service("caller", PIPE_N, move |_| {
            service(
                LoadCaller::new("target", PIPE_CALLS, PIPE_WINDOW),
                pc.as_ref(),
            )
        });
        b.passive_service("target", PIPE_N, move |i| {
            let counter = shared[i as usize].clone();
            passive(NullOp { counter }, pt.as_ref())
        });
    });
    let rss_built = rss_kb();
    let mut runner = Runner {
        probe,
        cost: Cost::default(),
    };
    let end = runner.run_until(&mut sys, SimTime::from_secs(3_600))?;
    if end != RunOutcome::Quiescent {
        return Err(format!("pipeline did not drain: {end:?}"));
    }
    let rss_ran = rss_kb();
    let completed = sys.metrics().counter("perpetual.calls_completed") / u64::from(PIPE_N);
    if completed != PIPE_CALLS {
        return Err(format!(
            "pipeline: {completed} of {PIPE_CALLS} calls completed"
        ));
    }
    for (i, c) in counters.iter().enumerate() {
        if c.get() != PIPE_CALLS {
            return Err(format!(
                "pipeline: target replica {i} counted {} of {PIPE_CALLS}",
                c.get()
            ));
        }
    }
    let times: Vec<f64> = sys
        .metrics()
        .samples()
        .find(|(k, _)| *k == "perpetual.completion_time_s")
        .map(|(_, v)| v.to_vec())
        .unwrap_or_default();
    let mut sim = outcome(PIPE_CALLS, completed);
    (sim.throughput_rps, sim.outage_ms) = count_window_stats(&times, f64::from(PIPE_N));
    sim.active_s = times.iter().copied().fold(0.0, f64::max);
    let requests = Requests {
        targets: vec![sys.group("target")],
        callers: vec![sys.group("caller")],
        measured: Measured::LatencyFromSpans,
        keys: (0..PIPE_CALLS).map(|s| s.to_string()).collect(),
    };
    finish(sys, sim, setup, runner, (rss_built, rss_ran), requests)
}

// ---------------------------------------------------------- sharded_txn

fn sharded_txn(seed: u64, probe: Option<&Probe>, builds: usize) -> Result<Exec, String> {
    let (mut sys, setup) = build(seed, probe, builds, |b| {
        let pt = probe.cloned();
        b.sharded_txn("target", TXN_SHARDS, TXN_N, move |_, _| match &pt {
            Some(p) => Box::new(Timed::new(TxnIncrement::default(), p)),
            None => Box::<TxnIncrement>::default(),
        });
        for c in 0..TXN_CALLERS {
            let pc = probe.cloned();
            b.service(&format!("load{c}"), 1, move |_| {
                let caller = MixedCaller::new(
                    "target",
                    TXN_PER_CALLER,
                    TXN_WINDOW,
                    TXN_CROSS_EVERY,
                    TXN_SHARDS,
                    c,
                );
                service(caller, pc.as_ref())
            });
        }
    });
    let rss_built = rss_kb();
    let mut runner = Runner {
        probe,
        cost: Cost::default(),
    };
    let end = runner.run_until(&mut sys, SimTime::from_secs(3_600))?;
    if end != RunOutcome::Quiescent {
        return Err(format!("sharded_txn did not drain: {end:?}"));
    }
    let rss_ran = rss_kb();
    let attempted = u64::from(TXN_CALLERS) * TXN_PER_CALLER;
    let (mut completed, mut commits, mut aborts) = (0, 0, 0);
    for c in 0..TXN_CALLERS {
        let caller = hosted::<MixedCaller>(&mut sys, &format!("load{c}"), 0);
        completed += caller.done;
        commits += caller.commits;
        aborts += caller.aborts;
    }
    if completed != attempted {
        return Err(format!(
            "sharded_txn: {completed} of {attempted} calls completed"
        ));
    }
    if aborts != 0 {
        return Err(format!("sharded_txn: {aborts} aborts on disjoint keys"));
    }
    let mut applied = 0;
    for shard in 0..TXN_SHARDS {
        let name = format!("target#{shard}");
        let mut per_replica = Vec::new();
        for idx in 0..TXN_N {
            let shim = hosted::<TxnShim>(&mut sys, &name, idx);
            let n = match shim.inner_mut::<TxnIncrement>() {
                Some(inner) => inner.applied,
                None => {
                    shim.inner_mut::<Timed<TxnIncrement>>()
                        .expect("txn increment")
                        .inner
                        .applied
                }
            };
            per_replica.push(n);
        }
        if per_replica.iter().any(|&n| n != per_replica[0]) {
            return Err(format!(
                "sharded_txn: {name} replicas disagree: {per_replica:?}"
            ));
        }
        applied += per_replica[0];
    }
    let expected = (completed - commits) + 2 * commits;
    if applied != expected {
        return Err(format!(
            "sharded_txn: applied {applied} != single-key {} + 2 x commits {commits}",
            completed - commits
        ));
    }
    let mut sim = outcome(attempted, completed);
    sim.active_s = sys
        .metrics()
        .summary("perpetual.completion_time_s")
        .map_or(0.0, |s| s.max);
    let requests = Requests {
        targets: (0..TXN_SHARDS)
            .map(|k| sys.group(&format!("target#{k}")))
            .collect(),
        callers: (0..TXN_CALLERS)
            .map(|c| sys.group(&format!("load{c}")))
            .collect(),
        measured: Measured::FromSpans,
        keys: (0..TXN_CALLERS)
            .flat_map(|c| (0..TXN_PER_CALLER).map(move |s| format!("c{c}-{s}")))
            .collect(),
    };
    finish(sys, sim, setup, runner, (rss_built, rss_ran), requests)
}

// ---------------------------------------------------------- tpcw_browse

/// Wraps a TPC-W browser to time each interaction from the page request
/// to its reply, and to stop it from starting new pages once the measured
/// window is over (so every page it began can drain).
struct TimedRbe {
    inner: Rbe,
    probe: Option<Probe>,
    /// Send time of the interaction in flight.
    sent: Option<SimTime>,
    /// No new pages after this instant.
    stop_at: SimTime,
    started: u64,
    /// `(completion time, latency)` per finished interaction.
    done: Vec<(SimTime, SimDuration)>,
}

impl Node for TimedRbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Some(p) = &self.probe {
            if let Ok(PMsg::ReplyBundle { payload, .. } | PMsg::ReadReply { payload, .. }) =
                decode_pmsg(&msg)
            {
                if let Ok(mc) = MessageContext::from_bytes(&payload) {
                    p.capture_reply(&mc);
                }
            }
        }
        let before = self.inner.completed;
        self.inner.on_message(from, msg, ctx);
        if self.inner.completed > before {
            let sent = self.sent.take().expect("a page was in flight");
            self.done.push((ctx.now(), ctx.now() - sent));
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        // With no page in flight the only live timer is the think timer,
        // which fires the next page: past the window, swallow it.
        if self.sent.is_none() && ctx.now() > self.stop_at {
            return;
        }
        let before = ctx.metrics().counter("client.calls_issued");
        self.inner.on_timer(timer, ctx);
        if self.sent.is_none() && ctx.metrics().counter("client.calls_issued") > before {
            self.sent = Some(ctx.now());
            self.started += 1;
        }
    }
}

fn tpcw_browse(seed: u64, probe: Option<&Probe>, builds: usize) -> Result<Exec, String> {
    let window_end = SimTime::ZERO + TPCW_WARMUP + TPCW_WINDOW;
    let (mut sys, setup) = build(seed, probe, builds, |b| {
        let pb = probe.cloned();
        b.service("bookstore", TPCW_N, move |_| {
            let store = Bookstore::new(TPCW_ITEMS, "pge").with_page_cost_scale(TPCW_PAGE_SCALE);
            service(store, pb.as_ref())
        });
        let pp = probe.cloned();
        b.service("pge", TPCW_N, move |_| {
            service(Pge::new("bank"), pp.as_ref())
        });
        let pk = probe.cloned();
        b.passive_service("bank", TPCW_N, move |_| passive(Bank::new(), pk.as_ref()));
        for i in 0..TPCW_RBES {
            let pr = probe.cloned();
            b.custom_client(&format!("rbe{i}"), move |core, uris| {
                let (_, store) = uris
                    .route("urn:svc:bookstore", &i.to_string())
                    .expect("bookstore routes");
                let rbe = Rbe::new(core, store, u64::from(i), TPCW_THINK).with_read_only(true);
                Box::new(TimedRbe {
                    inner: rbe,
                    probe: pr,
                    sent: None,
                    stop_at: window_end,
                    started: 0,
                    done: Vec::new(),
                })
            });
        }
    });
    let rss_built = rss_kb();
    let mut runner = Runner {
        probe,
        cost: Cost::default(),
    };
    runner.run_until(&mut sys, SimTime::ZERO + TPCW_WARMUP)?;
    runner.run_until(&mut sys, window_end)?;
    let rbes: Vec<NodeId> = (0..TPCW_RBES)
        .map(|i| sys.client_node(&format!("rbe{i}")))
        .collect();
    let in_flight = |sys: &mut System| {
        rbes.iter()
            .filter(|&&n| {
                sys.sim_mut()
                    .node_mut::<TimedRbe>(n)
                    .expect("rbe")
                    .sent
                    .is_some()
            })
            .count()
    };
    while in_flight(&mut sys) > 0 && sys.now() < window_end + DRAIN_LIMIT {
        let next = sys.now() + DRAIN_SLICE;
        runner.run_until(&mut sys, next)?;
    }
    let rss_ran = rss_kb();
    let (mut attempted, mut times, mut lats) = (0, Vec::new(), Vec::new());
    let (from, to) = (
        TPCW_WARMUP.as_secs_f64(),
        (window_end - SimTime::ZERO).as_secs_f64(),
    );
    let mut completed = 0;
    for &n in &rbes {
        let rbe = sys.sim_mut().node_mut::<TimedRbe>(n).expect("rbe");
        attempted += rbe.started;
        completed += rbe.done.len() as u64;
        for &(at, lat) in &rbe.done {
            let t = (at - SimTime::ZERO).as_secs_f64();
            times.push(t);
            if t > from && t <= to {
                lats.push(lat.as_secs_f64() * 1e3);
            }
        }
    }
    if completed != attempted {
        return Err(format!(
            "tpcw_browse: {completed} of {attempted} interactions completed"
        ));
    }
    if sys.metrics().counter("clbft.ro.served") == 0 {
        return Err("tpcw_browse: no read served on the fast path".into());
    }
    times.sort_by(f64::total_cmp);
    let mut sim = outcome(attempted, completed);
    (sim.throughput_rps, sim.outage_ms) = window_stats(&times, from, to, 1.0, Stall::Typical);
    sim.latencies_ms = lats;
    sim.active_s = times.last().copied().unwrap_or(0.0);
    let requests = Requests {
        targets: vec![sys.group("bookstore")],
        callers: (0..TPCW_RBES)
            .map(|i| sys.group(&format!("rbe{i}")))
            .collect(),
        measured: Measured::AtClient,
        keys: (0..TPCW_RBES).map(|i| i.to_string()).collect(),
    };
    finish(sys, sim, setup, runner, (rss_built, rss_ran), requests)
}

// ------------------------------------------------------------- failover

/// An open-loop client: requests fall due at seeded random instants and
/// are sent then (or as soon as the client node is free), whatever
/// happened to the requests before them. Each round trip is timed from
/// its due time.
struct OpenLoop {
    core: ClientCore,
    target: GroupId,
    engine: Engine,
    /// Due time of every request, ascending.
    due: Vec<SimTime>,
    total: u64,
    next: u64,
    gen_timer: Option<TimerId>,
    sweep_timer: Option<TimerId>,
    /// Outstanding calls: due time and last transmission.
    pending: HashMap<u64, (SimTime, SimTime)>,
    /// `(completion time, latency from due)` per completed request.
    done: Vec<(SimTime, SimDuration)>,
    /// Lateness of each send behind its due time.
    lag: Vec<SimDuration>,
    faults: u64,
}

impl OpenLoop {
    fn due(&self, i: u64) -> SimTime {
        self.due[i as usize]
    }

    fn fire(&mut self, i: u64, ctx: &mut Context<'_>) {
        let mut mc = MessageContext::request("urn:svc:target", "increment");
        mc.body_mut().name = "increment".into();
        mc.body_mut().text = i.to_string();
        mc.addressing_mut().reply_to = Some("urn:client".to_owned());
        self.engine.run_out_pipe(&mut mc).expect("out pipe");
        let bytes = mc.to_bytes().expect("marshal");
        ctx.spend(WsCostModel::DEFAULT.marshal_cost(bytes.len()));
        let call = self.core.call(ctx, self.target, bytes);
        let due = self.due(i);
        self.pending.insert(call.0, (due, ctx.now()));
        self.lag.push(ctx.now() - due);
    }
}

impl Node for OpenLoop {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.gen_timer = Some(ctx.set_timer(self.due(0) - ctx.now()));
        self.sweep_timer = Some(ctx.set_timer(FO_RETRY));
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) {
            ctx.spend(WsCostModel::DEFAULT.demarshal_cost(payload.len()));
            let Some((due, _)) = self.pending.remove(&call.0) else {
                return;
            };
            let ok = MessageContext::from_bytes(&payload)
                .is_ok_and(|mc| mc.body().name == "incrementResult");
            if !ok {
                self.faults += 1;
            }
            self.done.push((ctx.now(), ctx.now() - due));
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if Some(timer) == self.gen_timer {
            while self.next < self.total && self.due(self.next) <= ctx.now() {
                self.fire(self.next, ctx);
                self.next += 1;
            }
            self.gen_timer =
                (self.next < self.total).then(|| ctx.set_timer(self.due(self.next) - ctx.now()));
        } else if Some(timer) == self.sweep_timer {
            let now = ctx.now();
            let mut stale: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, (_, last))| now - *last >= FO_RETRY)
                .map(|(&c, _)| c)
                .collect();
            stale.sort_unstable();
            for c in stale {
                self.core.retry(ctx, CallId(c));
                self.pending.get_mut(&c).expect("pending").1 = now;
            }
            let live = self.next < self.total || !self.pending.is_empty();
            self.sweep_timer = live.then(|| ctx.set_timer(FO_RETRY));
        }
    }
}

fn failover(seed: u64, probe: Option<&Probe>, builds: usize) -> Result<Exec, String> {
    let counters: Vec<Rc<Cell<u64>>> = (0..FO_N).map(|_| Rc::default()).collect();
    let shared = counters.clone();
    let window_end = SimTime::ZERO + FO_WARMUP + FO_WINDOW;
    // A Poisson process conditioned on its count: that many instants drawn
    // uniformly over the run, so the offered load is exact and only the
    // arrival pattern depends on the seed.
    let mut arrivals = DetRng::derive(seed, ARRIVAL_STREAM);
    let span_us = (window_end - SimTime::ZERO).as_micros();
    let mut due: Vec<SimTime> = (0..span_us * FO_RATE / 1_000_000)
        .map(|_| SimTime::ZERO + SimDuration::from_micros(1 + arrivals.below(span_us)))
        .collect();
    due.sort_unstable();
    let total = due.len() as u64;
    let (mut sys, setup) = build(seed, probe, builds, |b| {
        let (pt, shared, due) = (probe.cloned(), shared.clone(), due.clone());
        b.passive_service("target", FO_N, move |i| {
            let counter = shared[i as usize].clone();
            passive(NullOp { counter }, pt.as_ref())
        });
        b.custom_client("gen", move |core, uris| {
            Box::new(OpenLoop {
                core,
                target: uris.group("urn:svc:target").expect("target group"),
                engine: Engine::with_id_prefix("gen"),
                due,
                total,
                next: 0,
                gen_timer: None,
                sweep_timer: None,
                pending: HashMap::new(),
                done: Vec::new(),
                lag: Vec::new(),
                faults: 0,
            })
        });
    });
    let rss_built = rss_kb();
    let target = sys.group("target");
    let primary = replica_node(&mut sys, target, 0);
    let gen = sys.client_node("gen");
    let mut runner = Runner {
        probe,
        cost: Cost::default(),
    };
    runner.run_until(&mut sys, SimTime::ZERO + FO_WARMUP + FO_CRASH_AFTER)?;
    sys.sim_mut().net_mut().crash(primary);
    runner.run_until(&mut sys, window_end)?;
    let outstanding = |sys: &mut System| {
        let g = sys.sim_mut().node_mut::<OpenLoop>(gen).expect("generator");
        g.next < g.total || !g.pending.is_empty()
    };
    while outstanding(&mut sys) && sys.now() < window_end + DRAIN_LIMIT {
        let next = sys.now() + DRAIN_SLICE;
        runner.run_until(&mut sys, next)?;
    }
    let rss_ran = rss_kb();
    if sys.metrics().counter("perpetual.view_changes") == 0 {
        return Err("failover: no view change completed after the primary crashed".into());
    }
    let g = sys.sim_mut().node_mut::<OpenLoop>(gen).expect("generator");
    let completed = g.done.len() as u64;
    if completed != total || g.faults != 0 {
        return Err(format!(
            "failover: {completed} of {total} requests completed, {} faulted",
            g.faults
        ));
    }
    let (from, to) = (
        FO_WARMUP.as_secs_f64(),
        (window_end - SimTime::ZERO).as_secs_f64(),
    );
    let mut times: Vec<f64> = g
        .done
        .iter()
        .map(|(at, _)| (*at - SimTime::ZERO).as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    let lats = g
        .done
        .iter()
        .filter(|(at, _)| {
            let t = (*at - SimTime::ZERO).as_secs_f64();
            t > from && t <= to
        })
        .map(|(_, l)| l.as_secs_f64() * 1e3)
        .collect();
    let lag = g.lag.iter().map(|l| l.as_secs_f64() * 1e3).collect();
    let survivors: Vec<u64> = counters[1..].iter().map(|c| c.get()).collect();
    if survivors.iter().any(|&c| c != total) {
        return Err(format!(
            "failover: surviving replicas diverge or miss requests: {survivors:?} of {total}"
        ));
    }
    let mut sim = outcome(total, completed);
    (sim.throughput_rps, sim.outage_ms) = window_stats(&times, from, to, 1.0, Stall::Longest);
    sim.latencies_ms = lats;
    sim.gen_lag_ms = lag;
    sim.active_s = times.last().copied().unwrap_or(0.0);
    let requests = Requests {
        targets: vec![target],
        callers: vec![sys.group("gen")],
        measured: Measured::AtClient,
        keys: (0..total).map(|s| s.to_string()).collect(),
    };
    finish(sys, sim, setup, runner, (rss_built, rss_ran), requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A completion every millisecond over 100 ms, with none in 40..60 ms.
    fn with_hole() -> Vec<f64> {
        (1..=100)
            .filter(|i| !(41..60).contains(i))
            .map(|i| f64::from(i) / 1e3)
            .collect()
    }

    #[test]
    fn the_longest_gap_is_the_outage() {
        let (rps, ms) = window_stats(&with_hole(), 0.0, 0.1, 1.0, Stall::Longest);
        assert!((rps - 810.0).abs() < 1e-6, "{rps}");
        assert!((ms - 20.0).abs() < 1e-9, "{ms}");
    }

    #[test]
    fn the_typical_stall_averages_block_maxima() {
        // 82 gaps in blocks of 16: one block holds the 20 ms hole.
        let (_, ms) = window_stats(&with_hole(), 0.0, 0.1, 1.0, Stall::Typical);
        let expected = (20.0 + 5.0 * 1.0) / 6.0;
        assert!((ms - expected).abs() < 1e-9, "{ms}");
    }

    #[test]
    fn replicated_completions_count_once() {
        let times: Vec<f64> = with_hole().iter().flat_map(|&t| [t, t]).collect();
        let (rps, _) = window_stats(&times, 0.0, 0.1, 2.0, Stall::Longest);
        assert!((rps - 810.0).abs() < 1e-6, "{rps}");
    }
}
