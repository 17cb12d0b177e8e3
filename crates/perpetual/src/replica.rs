//! The Perpetual replica: a co-located voter + driver pair on one node
//! (paper §2.1.1, Fig. 1).
//!
//! Each replica hosts:
//!
//! * a **voter** — a CLBFT instance ordering this group's [`Event`] stream,
//!   plus the candidate/validation bookkeeping that decides *which* events
//!   may enter agreement (the `f_c + 1` matching-request rule, bundle
//!   validation, local abort timers);
//! * a **driver** — the deterministic [`Executor`] plus the outcall table,
//!   reply routing, and responder duty.
//!
//! ## Local-validation gate
//!
//! A backup voter refuses to *prepare* an ordering proposal for an external
//! request or an outcall result until it has locally validated the same
//! event (received `f_c + 1` matching `OutRequest`s, or a reply bundle with
//! `f_t + 1` valid shares). Proposals arriving before local validation are
//! parked in a gate buffer and released when validation catches up. This is
//! what stops a faulty primary from injecting forged cross-group events and
//! is the mechanism behind the paper's fault-isolation guarantee.

use crate::cost::CostModel;
use crate::event::Event;
use crate::executor::{AppCmd, AppEvent, AppObs, AppOutput, CallId, Executor, RequestHandle};
use crate::faults::FaultMode;
use crate::group::{GroupId, Topology};
use crate::messages::{decode_pmsg, encode_pmsg, reply_digest, request_tag, PMsg};
use bytes::Bytes;
use pws_clbft::{
    wire as bft_wire, Action, Config, ExecutedSet, Msg, ObsEvent, Replica as BftReplica, ReplicaId,
    RequestId as BftRequestId, Seq, TimerCmd,
};
use pws_crypto::auth::{verify_bundle, BundleShare};
use pws_crypto::keys::KeyTable;
use pws_crypto::sha256::Digest32;
use pws_simnet::metrics::BatchKeys;
use pws_simnet::{
    AuditEvent, Context, FlightKind, Node, NodeId, Phase, ProtoKey, SimDuration, TimerId,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Default for [`ReplicaConfig::reply_retention`]: how many produced
/// replies (and reply routes) are retained per calling group for
/// responder-rotation retransmits. Callers only ever retry calls they
/// still have outstanding, so pruning the oldest entries keeps the
/// checkpointable driver state from growing with request history while
/// preserving every retransmit any live caller can ask for.
///
/// **Contract:** a caller must keep far fewer than this many calls
/// outstanding against one target group (every client and caller in this
/// workspace uses windows ≤ 16), and its retry cadence must revisit a
/// stuck call well before the group completes this many *newer* requests
/// for it — eviction of a still-wanted reply wedges that call for good.
/// The default gives a churn-degraded group several client retry cycles
/// of slack. This mirrors Castro–Liskov, where the reply cache holds
/// exactly *one* reply per client (their clients are
/// single-outstanding); the window here is 512× more generous.
pub const DEFAULT_REPLY_RETENTION: usize = 512;

/// The dedup key for a delivered external request: the calling group is
/// the origin, the caller's dense *per-target* sequence number the
/// counter — exactly the shape [`ExecutedSet`] compacts to a contiguous
/// prefix per caller, even when the caller scatters its global `req_no`
/// stream across shards.
fn delivered_key(caller: GroupId, target_seq: u64) -> BftRequestId {
    BftRequestId::new(caller.0 as u64, target_seq)
}

/// Inserts into a per-caller retention-bounded map, evicting the
/// lowest-numbered entries past `retention` — but never the entry just
/// inserted. A straggler request can be ordered long after its numeric
/// peers (dropped by a view change mid-churn and re-proposed), making the
/// *newest* insertion the *lowest* key in the map; evicting it on sight
/// would discard its reply or route before they were ever used.
fn insert_bounded<T>(per: &mut BTreeMap<u64, T>, req_no: u64, value: T, retention: usize) {
    per.insert(req_no, value);
    while per.len() > retention.max(1) {
        let lowest = *per.keys().next().expect("nonempty past retention");
        let victim = if lowest == req_no {
            match per.keys().nth(1) {
                Some(k) => *k,
                None => break,
            }
        } else {
            lowest
        };
        per.remove(&victim);
    }
}

/// Static configuration of one Perpetual replica.
pub struct ReplicaConfig {
    /// This replica's group.
    pub group: GroupId,
    /// This replica's index within the group.
    pub index: u32,
    /// The deployment topology.
    pub topology: Arc<Topology>,
    /// Deployment-wide master seed (keys, deterministic app seeds).
    pub master_seed: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// CLBFT view-change timeout.
    pub view_timeout: SimDuration,
    /// Interval after which an unanswered outcall is retransmitted with the
    /// responder role rotated to the next target replica (masks a faulty
    /// responder; part of Perpetual's fault handling).
    pub retry_interval: SimDuration,
    /// Milliseconds added to the simulated clock for time votes, so agreed
    /// timestamps look like wall-clock epochs.
    pub epoch_offset_ms: u64,
    /// Maximum requests the voter's primary seals into one agreement batch
    /// (CLBFT request batching; `1` disables it).
    pub max_batch_size: usize,
    /// Upper bound on how long a queued request may wait for its batch to
    /// seal when the agreement pipeline is full.
    pub batch_delay: SimDuration,
    /// The voter checkpoints (snapshot + certificate vote) every this many
    /// executions.
    pub checkpoint_interval: u64,
    /// The voter's log window (high watermark = stable + window).
    pub watermark_window: u64,
    /// Snapshot page size (bytes) for the voter's Merkle-partitioned
    /// checkpoints and state transfer. Must match across the group.
    pub page_size: u32,
    /// Proactive-recovery window: when set, this replica tears its state
    /// down and rejoins via state transfer every `n × window`, staggered by
    /// replica index so exactly one replica per group recovers per window.
    /// `None` disables proactive recovery. Ignored for singleton groups
    /// (`n = 1`): with no peers to fetch state from, a wipe would be an
    /// irrecoverable crash.
    pub recovery_interval: Option<SimDuration>,
    /// Produced replies and reply routes retained per calling group for
    /// retransmits (see [`DEFAULT_REPLY_RETENTION`] for the caller-side
    /// contract).
    pub reply_retention: usize,
    /// Speculative execution: the voter emits
    /// [`Action::SpeculativeExecute`] at pre-prepare time and the driver
    /// executes against a rollback-able copy of state, overlapping
    /// application work with the prepare/commit rounds.
    pub speculative: bool,
    /// Override for the read-only reply quorum. `None` uses the safe
    /// default `2f_t + 1` (capped at `n_t`); experiments may lower it to
    /// probe the latency/consistency trade-off.
    pub read_only_quorum: Option<usize>,
    /// Collect per-request lifecycle phase events from the voter (see
    /// [`pws_clbft::Config::obs_phases`]). Set by the harness when tracing
    /// is enabled; off by default. Purely observational.
    pub obs_phases: bool,
    /// Collect protocol audit observations from the voter and driver (see
    /// [`pws_clbft::Config::audit`]) for the online invariant auditor. Set
    /// by the harness when auditing is enabled; off by default. Purely
    /// observational.
    pub audit: bool,
    /// Fault injection mode.
    pub fault: FaultMode,
}

impl ReplicaConfig {
    /// A correct replica with default cost model and timeouts.
    pub fn new(group: GroupId, index: u32, topology: Arc<Topology>, master_seed: u64) -> Self {
        ReplicaConfig {
            group,
            index,
            topology,
            master_seed,
            cost: CostModel::DEFAULT,
            view_timeout: SimDuration::from_millis(400),
            retry_interval: SimDuration::from_millis(700),
            epoch_offset_ms: 1_190_000_000_000,
            max_batch_size: 16,
            batch_delay: SimDuration::from_millis(1),
            checkpoint_interval: 64,
            watermark_window: 256,
            page_size: pws_clbft::DEFAULT_PAGE_SIZE,
            recovery_interval: None,
            reply_retention: DEFAULT_REPLY_RETENTION,
            speculative: false,
            read_only_quorum: None,
            obs_phases: false,
            audit: false,
            fault: FaultMode::Correct,
        }
    }

    /// The CLBFT configuration this replica's voter runs with.
    fn bft_config(&self, n: u32) -> Config {
        let mut bft_cfg = Config::new(n);
        bft_cfg.max_batch_size = self.max_batch_size.max(1);
        bft_cfg.batch_delay_us = self.batch_delay.as_micros();
        bft_cfg.checkpoint_interval = self.checkpoint_interval.max(1);
        bft_cfg.watermark_window = self.watermark_window.max(1);
        bft_cfg.page_size = self.page_size.max(1);
        bft_cfg.speculative = self.speculative;
        bft_cfg.obs_phases = self.obs_phases;
        bft_cfg.audit = self.audit;
        bft_cfg
    }
}

impl std::fmt::Debug for ReplicaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaConfig")
            .field("group", &self.group)
            .field("index", &self.index)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct CallState {
    target: GroupId,
    /// Dense per-target dedup sequence (see `Event::External::target_seq`).
    /// Read-only calls never consume one and store `0`.
    target_seq: u64,
    done: bool,
    /// Travels the read-only fast path: no `target_seq`, retransmits
    /// re-broadcast the read.
    read_only: bool,
    /// Original request payload, kept for retransmission.
    payload: Bytes,
}

#[derive(Debug, Default, Clone)]
struct ResponderEntry {
    /// payload + shares per digest (dedup by share origin).
    by_digest: HashMap<Digest32, (Bytes, Vec<BundleShare>)>,
    sent: bool,
}

/// Collects fast-path read replies for one outstanding read-only call.
/// One counted vote per target replica — a Byzantine replica flooding
/// conflicting replies burns its single vote and can neither reach quorum
/// alone nor grow this collector beyond `n_t` entries.
#[derive(Debug, Default)]
struct RoCollector {
    voted: HashSet<u32>,
    by_digest: HashMap<Digest32, (Bytes, Vec<BundleShare>)>,
}

/// Side effects buffered while executing a batch speculatively: everything
/// irreversible (network sends, timer arming, voter interactions) waits in
/// here until commit finalizes the slot; a rollback just drops the buffers.
#[derive(Debug, Default)]
struct SpecBuffers {
    /// Outbound non-voter messages `(node, encoded frame, extra MACs)`;
    /// send cost is charged when the flush actually transmits.
    sends: Vec<(NodeId, Bytes, usize)>,
    /// Deferred driver operations, replayed in order at finalize.
    deferred: Vec<DeferredOp>,
    /// Application-layer observability emissions (txn/reshard spans, audit
    /// observations, gauges). Stamped at finalize so a rolled-back
    /// speculation leaves no phantom spans or audit sightings.
    obs: Vec<AppObs>,
}

#[derive(Debug)]
enum DeferredOp {
    /// Arm the abort/retry timers for a call issued during speculation.
    ArmCallTimers {
        call_no: u64,
        timeout: Option<SimDuration>,
    },
    /// Complete a call resolution: cancel timers, withdraw obsolete
    /// proposals from the voter, re-drain the gate. The reversible half
    /// (the `done` flag) was already set speculatively.
    Resolve { call_no: u64 },
    /// Submit the time vote for a query issued during speculation (the
    /// clock is read at finalize, when the vote actually enters agreement).
    SubmitTime { token: u64 },
}

/// One speculatively executed slot awaiting commit.
#[derive(Debug)]
struct SpecEntry {
    seq: Seq,
    /// Request ids the speculation covered, to match against the eventual
    /// [`Action::Execute`].
    ids: Vec<BftRequestId>,
    /// Full driver+executor snapshot taken before executing, restored on
    /// rollback.
    pre_state: Bytes,
    /// Responder bookkeeping is not snapshot-covered (it is transient
    /// pre-agreement state), so it is saved aside explicitly.
    responder_saved: HashMap<(GroupId, u64), ResponderEntry>,
    bufs: SpecBuffers,
}

/// The group-agreed seed delivered in [`AppEvent::Init`].
pub fn group_seed(master_seed: u64, group: GroupId) -> u64 {
    let mut z = master_seed ^ ((group.0 as u64) << 32 | 0x5eed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The distinct requests proposed for one external call, each with the
/// indices of the calling drivers that sent a byte-equal copy.
type Proposals = Vec<(pws_clbft::Request, HashSet<u32>)>;

/// A Perpetual replica node (voter + driver). Implements [`Node`].
pub struct PerpetualReplica {
    cfg: ReplicaConfig,
    n: u32,
    f: u32,
    bft: BftReplica,
    keys: KeyTable,
    // ----- voter state -----
    /// External-request candidates, keyed by (caller, req_no).
    candidates: HashMap<(GroupId, u64), Proposals>,
    /// CLBFT request digests the gate lets through.
    validated: HashSet<Digest32>,
    /// (call, reply digest) pairs validated by the co-located driver.
    validated_results: HashSet<(u64, Digest32)>,
    /// Ordering proposals parked until local validation.
    gated: Vec<(ReplicaId, Msg)>,
    /// Calls whose local abort timer fired.
    abort_fired: HashSet<u64>,
    // ----- driver state -----
    executor: Box<dyn Executor>,
    next_call: u64,
    next_token: u64,
    /// Dense per-target sequence counters: the dedup key space of our own
    /// outcalls (see `Event::External::target_seq`).
    next_target_seq: BTreeMap<u32, u64>,
    calls: HashMap<u64, CallState>,
    /// Delivered external requests, compacted per calling group (the
    /// driver-level dedup mirror of the voter's [`ExecutedSet`]).
    delivered_external: ExecutedSet,
    /// Reply routes (chosen responder per delivered request), bounded per
    /// caller like [`PerpetualReplica::replies_sent`] — retransmits
    /// re-derive the route from the incoming request anyway, so old
    /// entries carry no information a live caller still needs.
    reply_info: HashMap<GroupId, BTreeMap<u64, u32>>,
    /// Replies already produced, kept (bounded per caller by
    /// [`ReplicaConfig::reply_retention`]) for responder-rotation
    /// retransmits.
    replies_sent: HashMap<GroupId, BTreeMap<u64, Bytes>>,
    /// Result proposals submitted into agreement, per call, so obsolete ones
    /// can be withdrawn when the call resolves.
    submitted_results: HashMap<u64, Vec<pws_clbft::RequestId>>,
    resolved_tokens: HashSet<u64>,
    /// Fast-path read replies per outstanding read-only call. Transient:
    /// not snapshot-covered (a recovering replica simply re-collects from
    /// retransmits).
    ro_replies: HashMap<u64, RoCollector>,
    // ----- speculation -----
    /// Speculatively executed slots, oldest first, awaiting commit.
    spec_queue: VecDeque<SpecEntry>,
    /// `Some` while a batch is executing speculatively: side effects are
    /// routed into these buffers instead of happening.
    spec_building: Option<SpecBuffers>,
    // ----- responder duty -----
    responder_state: HashMap<(GroupId, u64), ResponderEntry>,
    // ----- timers -----
    view_timer: Option<TimerId>,
    batch_timer: Option<TimerId>,
    call_timers: HashMap<TimerId, u64>,
    timers_by_call: HashMap<u64, TimerId>,
    retry_timers: HashMap<TimerId, u64>,
    retry_by_call: HashMap<u64, TimerId>,
    retries: HashMap<u64, u32>,
    /// Fires once for [`FaultMode::StaleDrop`].
    stale_timer: Option<TimerId>,
    /// Fires every `n × recovery_interval` for proactive recovery.
    recovery_timer: Option<TimerId>,
    /// Precomputed `clbft.exec.*` metric keys (the per-batch path is hot;
    /// no per-batch formatting).
    exec_keys: BatchKeys,
    /// Precomputed per-group `clbft.exec.<group>.*` metric keys.
    exec_group_keys: BatchKeys,
    /// Span routes for deferred replies: `(caller, req_no)` → the span key
    /// `(origin, counter)` of the delivered external request. Populated at
    /// delivery only while tracing is on, consumed (removed) when the
    /// reply is produced, and bounded per caller like the reply cache.
    traced_replies: HashMap<GroupId, BTreeMap<u64, (u64, u64)>>,
}

impl std::fmt::Debug for PerpetualReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerpetualReplica")
            .field("group", &self.cfg.group)
            .field("index", &self.cfg.index)
            .field("pending_calls", &self.calls.len())
            .finish_non_exhaustive()
    }
}

impl PerpetualReplica {
    /// Creates a replica hosting `executor`.
    pub fn new(cfg: ReplicaConfig, executor: Box<dyn Executor>) -> Self {
        let n = cfg.topology.n(cfg.group);
        let f = cfg.topology.f(cfg.group);
        assert!(cfg.index < n, "replica index out of range");
        let bft = BftReplica::new(ReplicaId(cfg.index), cfg.bft_config(n));
        let keys = KeyTable::new(cfg.master_seed);
        PerpetualReplica {
            n,
            f,
            bft,
            keys,
            candidates: HashMap::new(),
            validated: HashSet::new(),
            validated_results: HashSet::new(),
            gated: Vec::new(),
            abort_fired: HashSet::new(),
            executor,
            next_call: 0,
            next_target_seq: BTreeMap::new(),
            next_token: 0,
            calls: HashMap::new(),
            delivered_external: ExecutedSet::new(),
            reply_info: HashMap::new(),
            replies_sent: HashMap::new(),
            submitted_results: HashMap::new(),
            resolved_tokens: HashSet::new(),
            ro_replies: HashMap::new(),
            spec_queue: VecDeque::new(),
            spec_building: None,
            responder_state: HashMap::new(),
            view_timer: None,
            batch_timer: None,
            call_timers: HashMap::new(),
            timers_by_call: HashMap::new(),
            retry_timers: HashMap::new(),
            retry_by_call: HashMap::new(),
            retries: HashMap::new(),
            stale_timer: None,
            recovery_timer: None,
            exec_keys: BatchKeys::new("clbft.exec"),
            exec_group_keys: BatchKeys::new(&format!("clbft.exec.{}", cfg.group)),
            traced_replies: HashMap::new(),
            cfg,
        }
    }

    /// Typed access to the hosted executor (for harvesting results after a
    /// run).
    pub fn executor_mut<T: Executor>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self.executor.as_mut();
        any.downcast_mut::<T>()
    }

    /// This replica's group.
    pub fn group(&self) -> GroupId {
        self.cfg.group
    }

    /// This replica's index.
    pub fn index(&self) -> u32 {
        self.cfg.index
    }

    /// The CLBFT view the voter is currently in (for tests).
    pub fn bft_view(&self) -> pws_clbft::View {
        self.bft.view()
    }

    /// The voter's last executed sequence number (for tests/assertions).
    pub fn bft_last_executed(&self) -> pws_clbft::Seq {
        self.bft.last_executed()
    }

    /// The voter's chained execution digest — byte-identical across
    /// replicas that executed the same history (for digest-checked
    /// recovery assertions).
    pub fn bft_execution_chain(&self) -> Digest32 {
        self.bft.execution_chain()
    }

    /// The voter's last stable checkpoint and its digest.
    pub fn bft_stable_checkpoint(&self) -> (pws_clbft::Seq, Digest32) {
        (self.bft.stable_seq(), self.bft.stable_digest())
    }

    /// The voter's dedup-set footprint: `(request ids covered, wire
    /// entries)`. The compaction evidence for tests: ids grow with request
    /// history while entries stay `O(origins + reorder residue)`.
    pub fn bft_dedup_footprint(&self) -> (u64, usize) {
        let set = self.bft.executed_set();
        (set.id_count(), set.wire_entries())
    }

    /// The hosted executor's application snapshot (for digest-checked
    /// recovery assertions).
    pub fn service_snapshot(&self) -> Vec<u8> {
        self.executor.snapshot()
    }

    /// Diagnostic snapshot: (view, last_exec, bft outstanding, gated
    /// proposals, validated digests, delivered externals). For tests.
    pub fn debug_state(&self) -> (u64, u64, usize, usize, usize, usize) {
        (
            self.bft.view().0,
            self.bft.last_executed().0,
            self.bft.outstanding(),
            self.gated.len(),
            self.validated.len(),
            self.delivered_external.id_count() as usize,
        )
    }

    /// Per-request voter state still held: (requests the CLBFT core knows
    /// but has not executed — among them this replica's own submissions,
    /// whose cached digests incoming pre-prepares adopt — and external
    /// requests still collecting driver votes). For tests: both drain once
    /// a run quiesces.
    pub fn voter_backlog(&self) -> (usize, usize) {
        (self.bft.outstanding(), self.candidates.len())
    }

    fn my_node(&self) -> NodeId {
        self.cfg.topology.node(self.cfg.group, self.cfg.index)
    }

    /// Records the responder choice for a delivered request, bounded per
    /// caller like the reply cache — retransmits re-derive the route from
    /// the incoming request, so only the newest window matters.
    fn record_reply_route(&mut self, caller: GroupId, req_no: u64, responder: u32) {
        insert_bounded(
            self.reply_info.entry(caller).or_default(),
            req_no,
            responder,
            self.cfg.reply_retention,
        );
    }

    fn send_pmsg(&mut self, to: NodeId, msg: &PMsg, extra_macs: usize, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        let bytes = encode_pmsg(msg);
        if let Some(bufs) = self.spec_building.as_mut() {
            // Speculating: nothing leaves the node until the slot commits.
            bufs.sends.push((to, bytes, extra_macs));
            return;
        }
        ctx.spend(self.cfg.cost.send_cost(bytes.len(), extra_macs));
        ctx.metrics().incr("perpetual.messages_sent");
        ctx.send(to, bytes);
    }

    fn send_bft(&mut self, to: ReplicaId, msg: &Msg, ctx: &mut Context<'_>) {
        let inner = bft_wire::encode_msg(msg);
        let node = self.cfg.topology.node(self.cfg.group, to.0);
        self.send_pmsg(node, &PMsg::Bft(inner), 0, ctx);
    }

    fn broadcast_bft(&mut self, msg: &Msg, ctx: &mut Context<'_>) {
        for i in 0..self.n {
            if i != self.cfg.index {
                self.send_bft(ReplicaId(i), msg, ctx);
            }
        }
    }

    /// [`FaultMode::EquivocatingPrimary`]: deliver the honest pre-prepare
    /// to every backup but one, and a conflicting variant — same
    /// `(view, seq)`, different batch, consistently recomputed digest — to
    /// the victim. The variant corrupts one request payload, which the
    /// victim's local-validation gate admits as a malformed event (executed
    /// as a deterministic skip), so the conflicting proposal genuinely
    /// enters agreement bookkeeping there. Returns `false` (fall back to an
    /// honest broadcast) when the batch is empty or the group too small to
    /// have a victim and a majority.
    fn broadcast_equivocating(
        &mut self,
        pp: &pws_clbft::PrePrepareMsg,
        ctx: &mut Context<'_>,
    ) -> bool {
        if pp.batch.requests.is_empty() || self.n < 3 {
            return false;
        }
        let victim = (self.cfg.index + 1) % self.n;
        let mut twisted = pp.batch.clone();
        let mut bad = twisted.requests[0].payload().to_vec();
        match bad.first_mut() {
            Some(b) => *b ^= 0xA5,
            None => bad.push(0xA5),
        }
        twisted.requests[0].set_payload(Bytes::from(bad));
        let variant = Msg::PrePrepare(pws_clbft::PrePrepareMsg {
            view: pp.view,
            seq: pp.seq,
            digest: twisted.digest(),
            batch: twisted,
        });
        let honest = Msg::PrePrepare(pp.clone());
        ctx.metrics().incr("perpetual.fault.equivocations");
        for i in 0..self.n {
            if i == self.cfg.index {
                continue;
            }
            let msg = if i == victim { &variant } else { &honest };
            self.send_bft(ReplicaId(i), msg, ctx);
        }
        true
    }

    fn process_actions(&mut self, actions: Vec<Action>, ctx: &mut Context<'_>) {
        // Drain voter-side phase events *before* acting on the actions:
        // agreement phases (e.g. `committed`) must be stamped no later than
        // the execution/reply phases the actions below will record, and
        // `ctx.now()` advances with `spend` during action handling.
        self.drain_obs_events(ctx);
        for a in actions {
            match a {
                Action::Send(to, mut msg) => {
                    if matches!(msg, Msg::StateResponse(_)) {
                        ctx.metrics().incr("clbft.recovery.responses_sent");
                    }
                    if let Msg::PageResponse(pr) = &mut msg {
                        ctx.metrics()
                            .add("clbft.recovery.pages_sent", pr.pages.len() as u64);
                        if self.cfg.fault == FaultMode::CorruptPages {
                            // A compromised responder flips a byte in every
                            // page it serves; the fetcher's Merkle check
                            // must catch each one.
                            for page in &mut pr.pages {
                                let mut bad = page.to_vec();
                                match bad.first_mut() {
                                    Some(b) => *b ^= 0xA5,
                                    None => bad.push(0xA5),
                                }
                                *page = bytes::Bytes::from(bad);
                            }
                        }
                    }
                    self.send_bft(to, &msg, ctx);
                }
                Action::Broadcast(msg) => {
                    if matches!(msg, Msg::FetchState(_)) {
                        ctx.metrics().incr("clbft.recovery.fetches_sent");
                    }
                    if self.cfg.fault == FaultMode::EquivocatingPrimary {
                        if let Msg::PrePrepare(pp) = &msg {
                            if self.broadcast_equivocating(pp, ctx) {
                                continue;
                            }
                        }
                    }
                    self.broadcast_bft(&msg, ctx);
                }
                Action::Execute { seq, batch } => self.handle_execute(seq, batch, ctx),
                Action::TakeCheckpoint(seq) => self.take_checkpoint(seq, ctx),
                Action::InstallState { snapshot, .. } => {
                    // The transferred state supersedes anything speculated
                    // locally; drop the buffers (the install overwrites the
                    // state they would have rolled back).
                    self.discard_speculation(ctx);
                    ctx.metrics().incr("clbft.recovery.installs");
                    ctx.spend(self.cfg.cost.snapshot_cost(snapshot.len()));
                    self.restore_snapshot(&snapshot, ctx);
                }
                Action::ReadOnly(_) => {
                    // Reads are served inline by `handle_read_request`; an
                    // action surfacing here has no reply address, so drop.
                }
                Action::SpeculativeExecute { seq, batch } => {
                    self.speculative_execute(seq, batch, ctx);
                }
                Action::RollbackSpeculation { .. } => self.rollback_speculation(ctx),
                Action::Stable(_) => {
                    ctx.metrics().incr("perpetual.checkpoints_stable");
                    ctx.metrics().incr("clbft.ckpt.stable");
                }
                Action::EnteredView(_) => ctx.metrics().incr("perpetual.view_changes"),
                Action::ViewTimer(TimerCmd::Restart) => {
                    if let Some(t) = self.view_timer.take() {
                        ctx.cancel_timer(t);
                    }
                    self.view_timer = Some(ctx.set_timer(self.cfg.view_timeout));
                }
                Action::ViewTimer(TimerCmd::Stop) => {
                    if let Some(t) = self.view_timer.take() {
                        ctx.cancel_timer(t);
                    }
                }
                Action::BatchTimer(TimerCmd::Restart) => {
                    if let Some(t) = self.batch_timer.take() {
                        ctx.cancel_timer(t);
                    }
                    // Single source of truth: the delay the voter was
                    // configured with (ReplicaConfig::batch_delay, written
                    // into the CLBFT config at construction).
                    let delay = SimDuration::from_micros(self.bft.config().batch_delay_us);
                    self.batch_timer = Some(ctx.set_timer(delay));
                }
                Action::BatchTimer(TimerCmd::Stop) => {
                    if let Some(t) = self.batch_timer.take() {
                        ctx.cancel_timer(t);
                    }
                }
            }
        }
        self.drain_page_metrics(ctx);
        self.drain_obs_events(ctx);
    }

    /// Drains the voter's buffered observability events, stamping each with
    /// the current sim-time (the sans-io voter owns no clock). Only
    /// client-visible request families open lifecycle spans — internal
    /// agreement records (results, aborts, time votes) are filtered here by
    /// origin, so every span the recorder opens can actually close.
    fn drain_obs_events(&mut self, ctx: &mut Context<'_>) {
        for ev in self.bft.take_obs_events() {
            match ev {
                ObsEvent::Phase { id, phase } => {
                    if crate::event::is_traced_origin(id.origin) {
                        ctx.obs_phase(self.cfg.group.0, id.origin, id.counter, phase);
                    }
                }
                ObsEvent::Flight { kind, a, b } => ctx.obs_flight(kind, a, b),
                ObsEvent::Proto {
                    family,
                    id,
                    phase,
                    count,
                } => {
                    let key = ProtoKey {
                        group: self.cfg.group.0,
                        family,
                        id,
                    };
                    ctx.obs_proto(key, phase, count);
                }
                ObsEvent::Audit(ev) => ctx.obs_audit(self.cfg.group.0, ev),
            }
        }
    }

    /// Drains the voter's page counters into the `clbft.pages.*` metrics
    /// and charges the CPU cost of the hashing work they represent: each
    /// page hashed at a boundary and each transferred page verified against
    /// the certified manifest costs one `page_hash`.
    fn drain_page_metrics(&mut self, ctx: &mut Context<'_>) {
        let c = self.bft.take_page_counters();
        if c == pws_clbft::PageCounters::default() {
            return;
        }
        let m = ctx.metrics();
        m.add("clbft.pages.hashed", c.hashed);
        m.add("clbft.pages.dirty", c.dirty);
        m.add("clbft.pages.fetched", c.fetched);
        m.add("clbft.pages.verified", c.verified);
        m.add("clbft.pages.rejected", c.rejected);
        ctx.spend(self.cfg.cost.page_cost(c.hashed + c.verified));
    }

    /// Delivers one ordered batch to the driver: the per-slot agreement
    /// bookkeeping (authenticator work, ordering-table updates) is charged
    /// once for the whole batch, so multi-outcall services amortize it
    /// across every request the slot carries. Occupancy is recorded both
    /// globally and per group (`clbft.exec.<group>.*`), so topology sweeps
    /// can spot straggler groups instead of averaging them away.
    fn handle_ordered_batch(&mut self, batch: Vec<pws_clbft::Request>, ctx: &mut Context<'_>) {
        self.sample_gauges(batch.len(), ctx);
        ctx.metrics()
            .record_batch_with(&self.exec_keys, batch.len());
        ctx.metrics()
            .record_batch_with(&self.exec_group_keys, batch.len());
        ctx.spend(self.cfg.cost.batch_cost(batch.len()));
        for request in batch {
            self.handle_ordered(request.into_payload(), ctx);
        }
    }

    /// Samples the protocol-plane time-series gauges at a batch-execution
    /// boundary — a deterministic, agreement-ordered point, so repeated
    /// runs sample at identical virtual times. Primary-only: queue depth
    /// and pipeline occupancy are primary-side quantities; sampling idle
    /// backups would drown the series in structural zeros. Purely
    /// observational and gated on tracing, like the span machinery.
    fn sample_gauges(&mut self, batch_len: usize, ctx: &mut Context<'_>) {
        if !ctx.trace_level().spans_enabled() || !self.bft.is_primary() {
            return;
        }
        let g = self.cfg.group.0;
        let queued = self.bft.queued() as f64;
        let in_flight = self.bft.in_flight() as f64;
        ctx.gauge(&format!("ts.queue_depth.{g}"), queued);
        ctx.gauge(&format!("ts.inflight.{g}"), in_flight);
        ctx.gauge(&format!("ts.batch_occupancy.{g}"), batch_len as f64);
    }

    // ----------------------------------------------------------- speculation

    /// A slot committed. If its batch is exactly the oldest outstanding
    /// speculation, the work is already done — release the buffered side
    /// effects instead of re-executing. Any mismatch (a slot that was never
    /// speculated, or state transfer racing past the queue) voids the whole
    /// speculative suffix first, then executes the committed batch for real.
    fn handle_execute(&mut self, seq: Seq, batch: Vec<pws_clbft::Request>, ctx: &mut Context<'_>) {
        let matches = self.spec_queue.front().is_some_and(|e| {
            e.seq == seq
                && e.ids.len() == batch.len()
                && e.ids.iter().zip(&batch).all(|(id, r)| *id == r.id())
        });
        if matches {
            self.finalize_speculation(batch.len(), ctx);
            return;
        }
        if !self.spec_queue.is_empty() {
            self.rollback_speculation(ctx);
        }
        self.handle_ordered_batch(batch, ctx);
    }

    /// Executes a pre-prepared batch against the live executor while every
    /// irreversible side effect (sends, timers, voter interactions) is
    /// parked in [`SpecBuffers`]. The driver+executor snapshot taken first
    /// makes the whole thing undoable; commit later flushes the buffers via
    /// [`Self::finalize_speculation`] without re-executing.
    fn speculative_execute(
        &mut self,
        seq: Seq,
        batch: Vec<pws_clbft::Request>,
        ctx: &mut Context<'_>,
    ) {
        let pre_state = self.build_snapshot();
        let responder_saved = self.responder_state.clone();
        let ids: Vec<BftRequestId> = batch.iter().map(|r| r.id()).collect();
        // The execution work is real and happens now — that is the point of
        // speculating — so its CPU cost is charged now, not at finalize.
        ctx.spend(self.cfg.cost.batch_cost(batch.len()));
        self.spec_building = Some(SpecBuffers::default());
        for request in batch {
            self.handle_ordered(request.into_payload(), ctx);
        }
        let bufs = self.spec_building.take().expect("speculation mode held");
        for id in &ids {
            if crate::event::is_traced_origin(id.origin) {
                ctx.obs_phase(self.cfg.group.0, id.origin, id.counter, Phase::SpecExecuted);
            }
        }
        self.spec_queue.push_back(SpecEntry {
            seq,
            ids,
            pre_state,
            responder_saved,
            bufs,
        });
        ctx.metrics().incr("clbft.spec.executed");
    }

    /// Commit caught up with the oldest speculation: flush its buffered
    /// sends (charging their send cost now) and replay the deferred driver
    /// operations. The executor is already in the post-batch state.
    fn finalize_speculation(&mut self, batch_len: usize, ctx: &mut Context<'_>) {
        let entry = self.spec_queue.pop_front().expect("matched entry");
        self.sample_gauges(batch_len, ctx);
        ctx.metrics().record_batch_with(&self.exec_keys, batch_len);
        ctx.metrics()
            .record_batch_with(&self.exec_group_keys, batch_len);
        for (to, bytes, extra_macs) in entry.bufs.sends {
            ctx.spend(self.cfg.cost.send_cost(bytes.len(), extra_macs));
            ctx.metrics().incr("perpetual.messages_sent");
            ctx.send(to, bytes);
        }
        // Flush the deferred observability emissions before the deferred
        // driver ops (which may advance time via `spend`): span phases get
        // commit-time stamps, audit sightings enter in agreement order.
        self.apply_app_obs(entry.bufs.obs, ctx);
        for op in entry.bufs.deferred {
            match op {
                DeferredOp::ArmCallTimers { call_no, timeout } => {
                    // Skip calls that resolved in the meantime (later in the
                    // same batch, or in a later still-queued speculation).
                    if self.calls.get(&call_no).is_some_and(|c| !c.done) {
                        self.arm_call_timers(call_no, timeout, ctx);
                    }
                }
                DeferredOp::Resolve { call_no } => self.resolve_call(call_no, ctx),
                DeferredOp::SubmitTime { token } => {
                    let millis = ctx.now().as_millis() + self.cfg.epoch_offset_ms;
                    let ev = Event::TimeVote { token, millis };
                    let actions = self.bft.on_request(ev.to_request());
                    self.process_actions(actions, ctx);
                }
            }
        }
        ctx.metrics().incr("clbft.spec.finalized");
    }

    /// A view change (or mismatched commit) voided the speculative suffix:
    /// restore the driver+executor snapshot taken before the *oldest*
    /// speculated slot, put the responder bookkeeping back, and drop every
    /// buffered side effect — nothing speculative ever left this node.
    fn rollback_speculation(&mut self, ctx: &mut Context<'_>) {
        let Some(front) = self.spec_queue.front() else {
            return;
        };
        let pre_state = front.pre_state.clone();
        let responder_saved = front.responder_saved.clone();
        let from_seq = front.seq.0;
        let voided = self.spec_queue.len();
        let voided_ids = self.take_voided_span_ids(ctx);
        self.spec_queue.clear();
        ctx.obs_flight(FlightKind::SpecRolledBack, from_seq, 0);
        for (origin, counter) in voided_ids {
            ctx.obs_phase(self.cfg.group.0, origin, counter, Phase::RolledBack);
        }
        // `restore_snapshot` also re-arms retry timers for restored
        // unresolved calls, healing any timer a speculative resolution
        // would have raced.
        self.restore_snapshot(&pre_state, ctx);
        self.responder_state = responder_saved;
        for _ in 0..voided {
            ctx.metrics().incr("clbft.spec.rolled_back");
        }
    }

    /// Drops the speculative queue without restoring state, for paths that
    /// overwrite the state wholesale right after (state install, wipe).
    fn discard_speculation(&mut self, ctx: &mut Context<'_>) {
        if let Some(front) = self.spec_queue.front() {
            ctx.obs_flight(FlightKind::SpecRolledBack, front.seq.0, 0);
        }
        for _ in 0..self.spec_queue.len() {
            ctx.metrics().incr("clbft.spec.rolled_back");
        }
        let voided_ids = self.take_voided_span_ids(ctx);
        self.spec_queue.clear();
        for (origin, counter) in voided_ids {
            ctx.obs_phase(self.cfg.group.0, origin, counter, Phase::RolledBack);
        }
    }

    /// The traced span keys of every request in the speculative queue, for
    /// stamping [`Phase::RolledBack`] after the queue is voided. Empty
    /// (allocation-free) while tracing is off.
    fn take_voided_span_ids(&self, ctx: &Context<'_>) -> Vec<(u64, u64)> {
        if !ctx.trace_level().spans_enabled() {
            return Vec::new();
        }
        self.spec_queue
            .iter()
            .flat_map(|e| e.ids.iter())
            .filter(|id| crate::event::is_traced_origin(id.origin))
            .map(|id| (id.origin, id.counter))
            .collect()
    }

    // ------------------------------------------- checkpointing & recovery

    /// Answers the voter's [`Action::TakeCheckpoint`]: serialize the
    /// durable driver state plus the executor's application snapshot,
    /// charge the cost model, and hand the bytes back so the voter can
    /// digest and broadcast its checkpoint vote.
    fn take_checkpoint(&mut self, seq: pws_clbft::Seq, ctx: &mut Context<'_>) {
        let snapshot = self.build_snapshot();
        ctx.metrics().incr("clbft.ckpt.taken");
        ctx.metrics()
            .sample("clbft.ckpt.snapshot_bytes", snapshot.len() as f64);
        // Fixed serialization bookkeeping only: the digest work is charged
        // per *dirty* page by `drain_page_metrics` after the voter's
        // incremental re-hash, so checkpoint CPU stops scaling with total
        // state size when the state is mostly quiescent.
        ctx.spend(self.cfg.cost.snapshot_fixed);
        let actions = self.bft.on_snapshot(seq, snapshot);
        self.process_actions(actions, ctx);
    }

    /// Serializes the durable driver + executor state, every collection in
    /// sorted order so all correct replicas produce byte-identical
    /// snapshots at the same agreed boundary.
    fn build_snapshot(&self) -> Bytes {
        let mut calls: Vec<crate::snapshot::CallSnap> = self
            .calls
            .iter()
            .map(|(no, c)| crate::snapshot::CallSnap {
                call_no: *no,
                target: c.target.0,
                target_seq: c.target_seq,
                done: c.done,
                read_only: c.read_only,
                payload: c.payload.clone(),
            })
            .collect();
        calls.sort_by_key(|c| c.call_no);
        let mut reply_routes: Vec<(u32, u64, u32)> = self
            .reply_info
            .iter()
            .flat_map(|(g, per)| per.iter().map(|(r, resp)| (g.0, *r, *resp)))
            .collect();
        reply_routes.sort_unstable();
        let mut replies_sent: Vec<(u32, u64, Bytes)> = self
            .replies_sent
            .iter()
            .flat_map(|(g, per)| per.iter().map(|(r, payload)| (g.0, *r, payload.clone())))
            .collect();
        replies_sent.sort_by_key(|(g, r, _)| (*g, *r));
        let mut resolved_tokens: Vec<u64> = self.resolved_tokens.iter().copied().collect();
        resolved_tokens.sort_unstable();
        crate::snapshot::DriverSnapshot {
            next_call: self.next_call,
            next_token: self.next_token,
            next_target_seq: self.next_target_seq.iter().map(|(g, s)| (*g, *s)).collect(),
            calls,
            delivered: self.delivered_external.clone(),
            reply_routes,
            replies_sent,
            resolved_tokens,
            executor: Bytes::from(self.executor.snapshot()),
        }
        .encode()
    }

    /// Installs a state-transferred snapshot: overwrite the durable driver
    /// state and the hosted application, then re-arm the per-call timers
    /// the restored call table implies. Transient pre-agreement state
    /// (candidates, the validation gate, pending shares) is left alone —
    /// it re-derives from retransmissions.
    fn restore_snapshot(&mut self, snapshot: &Bytes, ctx: &mut Context<'_>) {
        // Restoring rewinds `delivered_external` (speculation rollback) or
        // replaces it wholesale (state install): either way this node's
        // exactly-once ledger starts a fresh incarnation at the auditor.
        ctx.obs_audit(self.cfg.group.0, AuditEvent::NodeReset);
        let snap = match crate::snapshot::DriverSnapshot::decode(snapshot) {
            Ok(s) => s,
            Err(e) => {
                // The digest was vouched for by f+1 replicas, so this is a
                // local bug, not a Byzantine payload; fail loudly.
                panic!("verified snapshot failed to decode: {e}");
            }
        };
        self.next_call = snap.next_call;
        self.next_token = snap.next_token;
        self.next_target_seq = snap.next_target_seq.iter().copied().collect();
        self.calls = snap
            .calls
            .iter()
            .map(|c| {
                (
                    c.call_no,
                    CallState {
                        target: GroupId(c.target),
                        target_seq: c.target_seq,
                        done: c.done,
                        read_only: c.read_only,
                        payload: c.payload.clone(),
                    },
                )
            })
            .collect();
        self.delivered_external = snap.delivered.clone();
        self.reply_info = HashMap::new();
        for (g, r, resp) in &snap.reply_routes {
            self.reply_info
                .entry(GroupId(*g))
                .or_default()
                .insert(*r, *resp);
        }
        self.replies_sent = HashMap::new();
        for (g, r, payload) in &snap.replies_sent {
            self.replies_sent
                .entry(GroupId(*g))
                .or_default()
                .insert(*r, payload.clone());
        }
        self.resolved_tokens = snap.resolved_tokens.iter().copied().collect();
        self.executor.restore(&snap.executor);
        // Timer fixups: resolved calls need no timers; unresolved restored
        // calls need a retry timer so responder rotation keeps masking
        // faulty responders after recovery. Armed in call order, so each
        // timer id maps to the same call on every run.
        let mut call_nos: Vec<u64> = self.calls.keys().copied().collect();
        call_nos.sort_unstable();
        for call_no in call_nos {
            let done = self.calls[&call_no].done;
            if done {
                self.cancel_call_timer(call_no, ctx);
            } else if !self.retry_by_call.contains_key(&call_no) {
                let rt = ctx.set_timer(self.cfg.retry_interval);
                self.retry_timers.insert(rt, call_no);
                self.retry_by_call.insert(call_no, rt);
            }
        }
    }

    /// Tears this replica down to a blank reboot: fresh voter, empty
    /// driver state, all timers cancelled. The hosted executor is left
    /// untouched — it is frozen (nothing executes below the watermark) and
    /// wholly overwritten when state transfer installs a snapshot.
    ///
    /// Unless `cold`, the voter's content-addressed page store survives the
    /// reboot — modeling snapshot pages persisted on disk. The pages are
    /// untrusted cache, not state: the rebooted voter only reuses one after
    /// re-verifying its digest against the next `f + 1`-vouched manifest,
    /// so a warm restart fetches only pages that actually changed (and a
    /// corrupted disk page simply misses the manifest and is re-fetched).
    fn wipe(&mut self, ctx: &mut Context<'_>, cold: bool) {
        ctx.metrics().incr("clbft.recovery.wipes");
        ctx.obs_flight(FlightKind::Wiped, cold as u64, 0);
        // The auditor's exactly-once ledger is per node *incarnation*: a
        // wiped replica legitimately re-executes history during recovery.
        ctx.obs_audit(self.cfg.group.0, AuditEvent::NodeReset);
        self.discard_speculation(ctx);
        self.spec_building = None;
        self.ro_replies.clear();
        let warm_pages = if cold {
            Vec::new()
        } else {
            self.bft.take_page_store()
        };
        self.bft = BftReplica::new(ReplicaId(self.cfg.index), self.cfg.bft_config(self.n));
        self.bft.seed_page_store(warm_pages);
        self.candidates.clear();
        self.validated.clear();
        self.validated_results.clear();
        self.gated.clear();
        self.abort_fired.clear();
        self.calls.clear();
        self.delivered_external = ExecutedSet::new();
        self.reply_info.clear();
        self.replies_sent.clear();
        self.submitted_results.clear();
        self.resolved_tokens.clear();
        self.responder_state.clear();
        self.traced_replies.clear();
        self.next_call = 0;
        self.next_target_seq.clear();
        self.next_token = 0;
        for t in self
            .view_timer
            .take()
            .into_iter()
            .chain(self.batch_timer.take())
        {
            ctx.cancel_timer(t);
        }
        for (t, _) in self.call_timers.drain() {
            ctx.cancel_timer(t);
        }
        for (t, _) in self.retry_timers.drain() {
            ctx.cancel_timer(t);
        }
        self.timers_by_call.clear();
        self.retry_by_call.clear();
        self.retries.clear();
    }

    /// One proactive-recovery turn (paper §7 future work): reboot from
    /// nothing, renegotiate session keys, rejoin through state transfer.
    /// With one replica per group per window, the `≤ f faulty` assumption
    /// becomes time-bounded: a compromised-but-silent replica is flushed
    /// within `n` windows.
    fn proactive_recover(&mut self, ctx: &mut Context<'_>) {
        ctx.metrics().incr("clbft.recovery.proactive_restarts");
        ctx.obs_flight(FlightKind::ProactiveRestart, 0, 0);
        // Warm restart: the on-disk page cache survives (every page is
        // re-verified against the next certified manifest before reuse, so
        // nothing from before the reboot is trusted), keeping proactive
        // recovery's transfer bill proportional to what actually changed.
        self.wipe(ctx, false);
        // Re-derive the pairwise session keys from scratch (the simulated
        // stand-in for an SSL re-handshake with fresh key material) and
        // charge one MAC-key derivation per peer principal.
        self.keys = KeyTable::new(self.cfg.master_seed);
        ctx.spend(self.cfg.cost.mac.saturating_mul(self.n as u64));
        let actions = self.bft.begin_state_fetch();
        self.process_actions(actions, ctx);
    }

    /// Whether an ordering proposal may enter agreement at this replica.
    /// A batched pre-prepare passes only when *every* request in the batch
    /// passes: the batch is the unit of agreement, so it is gated (and
    /// later released) atomically.
    fn gate_ok(&mut self, msg: &Msg) -> bool {
        let Msg::PrePrepare(pp) = msg else {
            return true;
        };
        pp.batch.requests.iter().all(|r| self.request_gate_ok(r))
    }

    fn request_gate_ok(&mut self, request: &pws_clbft::Request) -> bool {
        match Event::decode(request.payload()) {
            Ok(Event::External { .. }) => self.validated.contains(&request.digest()),
            Ok(Event::Result {
                call_no,
                digest,
                payload,
                shares,
            }) => self.result_gate_ok(call_no, digest, &payload, &shares),
            Ok(Event::Abort { call_no }) => {
                self.abort_fired.contains(&call_no)
                    || self.calls.get(&call_no).is_some_and(|c| c.done)
            }
            Ok(Event::TimeVote { .. }) => true,
            // Malformed events pass the gate; execution skips them
            // identically at every correct replica.
            Err(_) => true,
        }
    }

    /// Validates a result proposal: either our own driver already validated
    /// a bundle with this digest, or the embedded shares prove `f_t + 1`
    /// target replicas vouch for the payload.
    fn result_gate_ok(
        &mut self,
        call_no: u64,
        digest: Digest32,
        payload: &Bytes,
        shares: &[BundleShare],
    ) -> bool {
        let Some(call) = self.calls.get(&call_no) else {
            return false; // unknown call: wait (calls are deterministic)
        };
        if call.done || self.validated_results.contains(&(call_no, digest)) {
            return true;
        }
        let target = call.target;
        if digest != reply_digest(payload) || shares.iter().any(|s| s.from.group != target.0) {
            return false;
        }
        let target_f = self.cfg.topology.f(target) as usize;
        let me = self.cfg.topology.principal(self.cfg.group, self.cfg.index);
        let tag = request_tag(self.cfg.group, call_no);
        if verify_bundle(&mut self.keys, shares, &tag, &digest, me, target_f + 1) {
            self.validated_results.insert((call_no, digest));
            true
        } else {
            false
        }
    }

    fn drain_gate(&mut self, ctx: &mut Context<'_>) {
        let mut i = 0;
        while i < self.gated.len() {
            // `gate_ok` takes `&mut self` (bundle checks use the key table)
            // but never touches the gate, so the parked list steps aside
            // for the check instead of cloning the message out of it.
            let gated = std::mem::take(&mut self.gated);
            let releasable = self.gate_ok(&gated[i].1);
            self.gated = gated;
            if releasable {
                let (from, msg) = self.gated.swap_remove(i);
                let actions = self.bft.on_message(from, msg);
                self.process_actions(actions, ctx);
            } else {
                i += 1;
            }
        }
    }

    fn submit_request(&mut self, req: pws_clbft::Request, ctx: &mut Context<'_>) {
        if crate::event::is_traced_origin(req.id().origin) {
            ctx.obs_phase(
                self.cfg.group.0,
                req.id().origin,
                req.id().counter,
                Phase::Queued,
            );
        }
        self.validated.insert(req.digest());
        self.drain_gate(ctx);
        let actions = self.bft.on_request(req);
        self.process_actions(actions, ctx);
    }

    // ---------------------------------------------------------------- voter

    fn handle_out_request(&mut self, from: NodeId, ev: Event, ctx: &mut Context<'_>) {
        let Event::External {
            caller,
            caller_n,
            req_no,
            target_seq,
            ..
        } = &ev
        else {
            return;
        };
        let (caller, caller_n, req_no, target_seq) = (*caller, *caller_n, *req_no, *target_seq);
        if !self.cfg.topology.contains(caller) || self.cfg.topology.n(caller) != caller_n {
            return;
        }
        // Identify which calling driver sent this.
        let Some(driver_idx) = self
            .cfg
            .topology
            .nodes(caller)
            .iter()
            .position(|&n| n == from)
        else {
            return;
        };
        let key = (caller, req_no);
        let req = ev.to_request();
        let proposals = self.candidates.entry(key).or_default();
        let at = match proposals.iter().position(|(r, _)| *r == req) {
            Some(at) => at,
            None => {
                proposals.push((req, HashSet::new()));
                proposals.len() - 1
            }
        };
        let (winner, voters) = &mut proposals[at];
        voters.insert(driver_idx as u32);
        let threshold = self.cfg.topology.f(caller) as usize + 1;
        if voters.len() < threshold {
            return;
        }
        // Hash the winning copy where it is stored, so this clone and every
        // later matching copy reuse the digest.
        let digest = winner.digest();
        let winner = winner.clone();
        if self
            .delivered_external
            .contains(&delivered_key(caller, target_seq))
        {
            // A retransmit of an already-executed request: the caller is
            // still waiting for the reply (e.g. the original responder is
            // faulty). Honour the rotated responder choice and re-send our
            // share.
            let Event::External { responder, .. } = ev else {
                return;
            };
            let responder = responder.min(self.n - 1);
            self.record_reply_route(caller, req_no, responder);
            self.candidates.remove(&key);
            let retained = self
                .replies_sent
                .get(&caller)
                .and_then(|per| per.get(&req_no))
                .cloned();
            if let Some(payload) = retained {
                ctx.metrics().incr("perpetual.shares_retransmitted");
                self.send_share(caller, req_no, responder, payload, ctx);
            }
            return;
        }
        if !self.validated.contains(&digest) {
            ctx.metrics().incr("perpetual.external_requests_validated");
            self.submit_request(winner, ctx);
        }
    }

    /// Builds this replica's bundle share for a reply and routes it to the
    /// responder (possibly ourselves).
    fn send_share(
        &mut self,
        caller: GroupId,
        req_no: u64,
        responder: u32,
        payload: Bytes,
        ctx: &mut Context<'_>,
    ) {
        let digest = reply_digest(&payload);
        let caller_principals = self.cfg.topology.principals(caller);
        let me = self.cfg.topology.principal(self.cfg.group, self.cfg.index);
        let tag = request_tag(caller, req_no);
        ctx.spend(
            self.cfg
                .cost
                .mac
                .saturating_mul(caller_principals.len() as u64),
        );
        let share = BundleShare::build(&mut self.keys, me, &tag, digest, &caller_principals);
        if responder == self.cfg.index {
            self.handle_reply_share(caller, req_no, payload, share, ctx);
        } else {
            let node = self.cfg.topology.node(self.cfg.group, responder);
            self.send_pmsg(
                node,
                &PMsg::ReplyShare {
                    caller,
                    req_no,
                    payload,
                    share,
                },
                caller_principals.len(),
                ctx,
            );
        }
    }

    fn handle_bft_bytes(&mut self, from: NodeId, inner: &[u8], ctx: &mut Context<'_>) {
        // Only accept intra-group traffic.
        let Some(idx) = self
            .cfg
            .topology
            .nodes(self.cfg.group)
            .iter()
            .position(|&n| n == from)
        else {
            return;
        };
        let Ok(msg) = bft_wire::decode_msg(inner) else {
            return;
        };
        let from = ReplicaId(idx as u32);
        self.bft.adopt_digests(&msg);
        if !self.gate_ok(&msg) {
            ctx.metrics().incr("perpetual.proposals_gated");
            self.gated.push((from, msg));
            return;
        }
        let actions = self.bft.on_message(from, msg);
        self.process_actions(actions, ctx);
    }

    // ------------------------------------------------------- read fast path

    /// A caller replica asks us to answer a read from committed state. The
    /// voter's read gate decides admissibility (not in a view change, not
    /// mid-state-transfer, no speculation ahead of the committed frontier);
    /// a closed gate drops the request silently and the caller's quorum
    /// falls short until it retries or falls back to the ordered path.
    fn handle_read_request(
        &mut self,
        from: NodeId,
        caller: GroupId,
        caller_n: u32,
        req_no: u64,
        payload: Bytes,
        ctx: &mut Context<'_>,
    ) {
        if !self.cfg.topology.contains(caller)
            || self.cfg.topology.n(caller) != caller_n
            || !self.cfg.topology.nodes(caller).contains(&from)
        {
            return;
        }
        let req = crate::event::read_request(caller, req_no, payload);
        let mut served = false;
        let mut rest = Vec::new();
        for a in self.bft.on_request(req) {
            match a {
                Action::ReadOnly(r) => {
                    served = true;
                    self.serve_read(from, r, ctx);
                }
                other => rest.push(other),
            }
        }
        if !served {
            ctx.metrics().incr("clbft.ro.refused");
        }
        self.process_actions(rest, ctx);
    }

    /// Executes a gate-approved read against a scratch copy of the
    /// committed application state and sends the asking node our vouched
    /// reply. The execution must prove itself side-effect free: anything
    /// beyond one reply to the asking handle (plus CPU spends) means the
    /// operation was not actually read-only, and the request is dropped —
    /// the caller's quorum fails and it falls back to the ordered path.
    fn serve_read(&mut self, from: NodeId, req: pws_clbft::Request, ctx: &mut Context<'_>) {
        let Some((caller, req_no)) = crate::event::read_request_parts(req.id()) else {
            return;
        };
        if !self.spec_queue.is_empty() {
            // Defense in depth: the voter's gate already refuses reads
            // while speculation is outstanding, but the executor holding
            // uncommitted state is disqualifying on its own.
            ctx.metrics().incr("clbft.ro.unservable");
            ctx.obs_flight(FlightKind::RoRefused, 0, 0);
            return;
        }
        let rid = req.id();
        let scratch = self.executor.snapshot();
        let handle = RequestHandle { caller, req_no };
        let mut out = AppOutput::new(self.next_call, self.next_token);
        self.executor.on_event(
            AppEvent::Request {
                handle,
                payload: req.into_payload(),
            },
            &mut out,
        );
        self.executor.restore(&scratch);
        let mut reply: Option<Bytes> = None;
        let mut clean = true;
        for cmd in out.cmds() {
            match cmd {
                AppCmd::Reply { to, payload } if *to == handle && reply.is_none() => {
                    reply = Some(payload.clone());
                }
                AppCmd::Spend(d) => ctx.spend(*d),
                _ => clean = false,
            }
        }
        let Some(mut payload) = reply.filter(|_| clean) else {
            ctx.metrics().incr("clbft.ro.unservable");
            ctx.obs_flight(FlightKind::RoRefused, 0, 0);
            return;
        };
        ctx.spend(self.cfg.cost.ro_serve);
        if self.cfg.fault == FaultMode::CorruptReplies {
            let mut bad = payload.to_vec();
            if let Some(b) = bad.first_mut() {
                *b ^= 0xff;
            } else {
                bad.push(0xff);
            }
            payload = Bytes::from(bad);
        }
        let digest = reply_digest(&payload);
        let caller_principals = self.cfg.topology.principals(caller);
        let me = self.cfg.topology.principal(self.cfg.group, self.cfg.index);
        let tag = request_tag(caller, req_no);
        ctx.spend(
            self.cfg
                .cost
                .mac
                .saturating_mul(caller_principals.len() as u64),
        );
        let share = BundleShare::build(&mut self.keys, me, &tag, digest, &caller_principals);
        ctx.metrics().incr("clbft.ro.served");
        ctx.obs_phase(self.cfg.group.0, rid.origin, rid.counter, Phase::RoServed);
        self.send_pmsg(
            from,
            &PMsg::ReadReply {
                req_no,
                payload,
                share,
            },
            caller_principals.len(),
            ctx,
        );
    }

    /// One target replica's fast-path read answer. Votes are counted once
    /// per replica (the reply-flood rule), shares must verify individually,
    /// and only `2f_t + 1` matching payloads promote the result into this
    /// group's own ordered stream as a share-proven [`Event::Result`] — the
    /// same shape the ordered reply path produces, so the gate and the
    /// executor cannot tell the two paths apart.
    fn handle_read_reply(
        &mut self,
        from: NodeId,
        req_no: u64,
        payload: Bytes,
        share: BundleShare,
        ctx: &mut Context<'_>,
    ) {
        let Some(call) = self.calls.get(&req_no) else {
            return;
        };
        if call.done || !call.read_only {
            return;
        }
        let target = call.target;
        if share.from.group != target.0 {
            return;
        }
        let idx = share.from.replica;
        // The sender must be the very replica the share claims to be from.
        if self.cfg.topology.nodes(target).get(idx as usize) != Some(&from) {
            return;
        }
        if share.reply_digest != reply_digest(&payload) {
            return;
        }
        // One counted vote per target replica, bounded by n_t: a Byzantine
        // replica spraying conflicting replies burns its single vote.
        if !self.ro_replies.entry(req_no).or_default().voted.insert(idx) {
            ctx.metrics().incr("clbft.ro.duplicate_votes");
            return;
        }
        let me = self.cfg.topology.principal(self.cfg.group, self.cfg.index);
        let tag = request_tag(self.cfg.group, req_no);
        ctx.spend(self.cfg.cost.mac);
        if !share.verify(&mut self.keys, &tag, me) {
            ctx.metrics().incr("clbft.ro.shares_rejected");
            return;
        }
        let digest = share.reply_digest;
        let coll = self.ro_replies.get_mut(&req_no).expect("vote just counted");
        let (_, shares) = coll
            .by_digest
            .entry(digest)
            .or_insert_with(|| (payload, Vec::new()));
        shares.push(share);
        let target_f = self.cfg.topology.f(target) as usize;
        let target_n = self.cfg.topology.n(target) as usize;
        let threshold = self
            .cfg
            .read_only_quorum
            .unwrap_or((2 * target_f + 1).min(target_n));
        if shares.len() < threshold {
            return;
        }
        let coll = self.ro_replies.remove(&req_no).expect("collector present");
        let (payload, shares) = coll
            .by_digest
            .into_iter()
            .find(|(d, _)| *d == digest)
            .expect("quorum digest present")
            .1;
        ctx.metrics().incr("clbft.ro.accepted");
        self.validated_results.insert((req_no, digest));
        let ev = Event::Result {
            call_no: req_no,
            digest,
            payload,
            shares,
        };
        self.submitted_results
            .entry(req_no)
            .or_default()
            .push(ev.request_id());
        self.submit_request(ev.to_request(), ctx);
    }

    // ------------------------------------------------------------ responder

    fn handle_reply_share(
        &mut self,
        caller: GroupId,
        req_no: u64,
        payload: Bytes,
        share: BundleShare,
        ctx: &mut Context<'_>,
    ) {
        if share.reply_digest != reply_digest(&payload) {
            return; // internally inconsistent share
        }
        if share.from.group != self.cfg.group.0 || share.from.replica >= self.n {
            return;
        }
        let entry = self.responder_state.entry((caller, req_no)).or_default();
        if entry.sent {
            return;
        }
        let (stored_payload, shares) = entry
            .by_digest
            .entry(share.reply_digest)
            .or_insert_with(|| (payload, Vec::new()));
        if shares.iter().any(|s| s.from == share.from) {
            return;
        }
        shares.push(share.clone());
        // Wait for 2f+1 matching shares so at least f+1 come from correct
        // replicas: then every correct calling driver can validate the
        // bundle even if f shares carry bad MACs (see DESIGN.md).
        let threshold = (2 * self.f + 1).min(self.n) as usize;
        if shares.len() >= threshold {
            let bundle_payload = stored_payload.clone();
            let bundle_shares = shares.clone();
            entry.sent = true;
            self.send_bundle(caller, req_no, bundle_payload, bundle_shares, ctx);
        }
    }

    fn send_bundle(
        &mut self,
        caller: GroupId,
        req_no: u64,
        payload: Bytes,
        shares: Vec<BundleShare>,
        ctx: &mut Context<'_>,
    ) {
        ctx.metrics().incr("perpetual.bundles_sent");
        let caller_nodes: Vec<NodeId> = self.cfg.topology.nodes(caller).to_vec();
        let equivocate = self.cfg.fault == FaultMode::EquivocatingResponder;
        for (i, node) in caller_nodes.into_iter().enumerate() {
            let msg = if equivocate && i % 2 == 1 {
                // Corrupt the payload for half of the drivers; MACs no
                // longer match, so these drivers must reject the bundle.
                let mut bad = payload.to_vec();
                if let Some(b) = bad.first_mut() {
                    *b ^= 0xff;
                } else {
                    bad.push(0xff);
                }
                PMsg::ReplyBundle {
                    req_no,
                    payload: Bytes::from(bad),
                    shares: shares.clone(),
                }
            } else {
                PMsg::ReplyBundle {
                    req_no,
                    payload: payload.clone(),
                    shares: shares.clone(),
                }
            };
            self.send_pmsg(node, &msg, 0, ctx);
        }
    }

    // --------------------------------------------------------------- driver

    fn handle_reply_bundle(
        &mut self,
        req_no: u64,
        payload: Bytes,
        shares: Vec<BundleShare>,
        ctx: &mut Context<'_>,
    ) {
        let Some(call) = self.calls.get(&req_no) else {
            return;
        };
        if call.done {
            return;
        }
        let target = call.target;
        let target_f = self.cfg.topology.f(target) as usize;
        let digest = reply_digest(&payload);
        let me = self.cfg.topology.principal(self.cfg.group, self.cfg.index);
        let tag = request_tag(self.cfg.group, req_no);
        // Shares must come from the target group.
        if shares.iter().any(|s| s.from.group != target.0) {
            return;
        }
        ctx.spend(self.cfg.cost.mac.saturating_mul(shares.len() as u64));
        if !verify_bundle(&mut self.keys, &shares, &tag, &digest, me, target_f + 1) {
            ctx.metrics().incr("perpetual.bundles_rejected");
            return;
        }
        ctx.metrics().incr("perpetual.bundles_validated");
        self.validated_results.insert((req_no, digest));
        let ev = Event::Result {
            call_no: req_no,
            digest,
            payload,
            shares,
        };
        self.submitted_results
            .entry(req_no)
            .or_default()
            .push(ev.request_id());
        self.submit_request(ev.to_request(), ctx);
    }

    fn handle_ordered(&mut self, payload: Bytes, ctx: &mut Context<'_>) {
        let Ok(ev) = Event::decode(&payload) else {
            return;
        };
        match ev {
            Event::External {
                caller,
                req_no,
                target_seq,
                responder,
                payload,
                ..
            } => {
                let key = (caller, req_no);
                if !self
                    .delivered_external
                    .insert(delivered_key(caller, target_seq))
                {
                    return;
                }
                ctx.obs_audit(
                    self.cfg.group.0,
                    AuditEvent::Executed {
                        origin: caller.0 as u64,
                        target_seq,
                    },
                );
                self.candidates.remove(&key);
                self.record_reply_route(caller, req_no, responder.min(self.n - 1));
                ctx.metrics().incr("perpetual.requests_delivered");
                if ctx.trace_level().spans_enabled() {
                    let rid = crate::event::external_span_id(caller, target_seq);
                    ctx.obs_phase(self.cfg.group.0, rid.0, rid.1, Phase::Executed);
                    // The reply may be produced now (inline service) or much
                    // later (after an outcall round-trip); either way the
                    // route back to this span survives until then.
                    insert_bounded(
                        self.traced_replies.entry(caller).or_default(),
                        req_no,
                        rid,
                        self.cfg.reply_retention,
                    );
                }
                self.deliver(
                    AppEvent::Request {
                        handle: RequestHandle { caller, req_no },
                        payload,
                    },
                    ctx,
                );
            }
            Event::Result {
                call_no, payload, ..
            } => {
                if !self.mark_call_done(call_no, ctx) {
                    return;
                }
                ctx.metrics().incr("perpetual.calls_completed");
                let now_s = ctx.now().as_secs_f64();
                ctx.metrics().sample("perpetual.completion_time_s", now_s);
                self.deliver(
                    AppEvent::Reply {
                        call: CallId(call_no),
                        payload,
                    },
                    ctx,
                );
            }
            Event::Abort { call_no } => {
                if !self.mark_call_done(call_no, ctx) {
                    return;
                }
                ctx.metrics().incr("perpetual.calls_aborted");
                self.deliver(
                    AppEvent::Aborted {
                        call: CallId(call_no),
                    },
                    ctx,
                );
            }
            Event::TimeVote { token, millis } => {
                if !self.resolved_tokens.insert(token) {
                    return;
                }
                self.deliver(AppEvent::Time { token, millis }, ctx);
            }
        }
    }

    fn cancel_call_timer(&mut self, call_no: u64, ctx: &mut Context<'_>) {
        if let Some(t) = self.timers_by_call.remove(&call_no) {
            self.call_timers.remove(&t);
            ctx.cancel_timer(t);
        }
        if let Some(t) = self.retry_by_call.remove(&call_no) {
            self.retry_timers.remove(&t);
            ctx.cancel_timer(t);
        }
        self.retries.remove(&call_no);
    }

    /// Marks a call resolved (first resolution wins). Cancels its timers and
    /// withdraws now-obsolete proposals from agreement. Returns whether this
    /// was the first resolution. Under speculation only the reversible half
    /// (the `done` flag, which the pre-state snapshot covers) happens now;
    /// the voter- and timer-touching half waits in the commit buffers.
    fn mark_call_done(&mut self, call_no: u64, ctx: &mut Context<'_>) -> bool {
        let Some(call) = self.calls.get_mut(&call_no) else {
            return false;
        };
        if call.done {
            return false;
        }
        call.done = true;
        if let Some(bufs) = self.spec_building.as_mut() {
            bufs.deferred.push(DeferredOp::Resolve { call_no });
            return true;
        }
        self.resolve_call(call_no, ctx);
        true
    }

    /// The irreversible half of a call resolution.
    fn resolve_call(&mut self, call_no: u64, ctx: &mut Context<'_>) {
        self.cancel_call_timer(call_no, ctx);
        self.ro_replies.remove(&call_no);
        let mut obsolete = self.submitted_results.remove(&call_no).unwrap_or_default();
        obsolete.push(Event::Abort { call_no }.request_id());
        for id in obsolete {
            let actions = self.bft.drop_request(id);
            self.process_actions(actions, ctx);
        }
        // The gate may be holding proposals that are now releasable
        // (aborts gate-open once the call is done).
        self.drain_gate(ctx);
    }

    /// Arms the abort-timeout and retry timers for a freshly issued call —
    /// or defers the arming to commit time when speculating (a rolled-back
    /// call must leave no timer behind).
    fn arm_call_timers(
        &mut self,
        call_no: u64,
        timeout: Option<SimDuration>,
        ctx: &mut Context<'_>,
    ) {
        if let Some(bufs) = self.spec_building.as_mut() {
            bufs.deferred
                .push(DeferredOp::ArmCallTimers { call_no, timeout });
            return;
        }
        if let Some(d) = timeout {
            let t = ctx.set_timer(d);
            self.call_timers.insert(t, call_no);
            self.timers_by_call.insert(call_no, t);
        }
        if !self.retry_by_call.contains_key(&call_no) {
            let rt = ctx.set_timer(self.cfg.retry_interval);
            self.retry_timers.insert(rt, call_no);
            self.retry_by_call.insert(call_no, rt);
        }
    }

    fn deliver(&mut self, ev: AppEvent, ctx: &mut Context<'_>) {
        let mut out = AppOutput::new(self.next_call, self.next_token);
        self.executor.on_event(ev, &mut out);
        let (nc, nt) = out.counters();
        self.next_call = nc;
        self.next_token = nt;
        let (mut txn_decided, mut reshard_step) = (false, false);
        for name in out.take_metrics() {
            txn_decided |= name == "clbft.txn.committed" || name == "clbft.txn.aborted";
            reshard_step |= name.starts_with("clbft.reshard.");
            ctx.metrics().incr(&name);
        }
        // At most one flight record per delivered event: the ring is for
        // rare protocol milestones, not per-key accounting.
        if txn_decided {
            ctx.obs_flight(FlightKind::TxnRecord, 0, 0);
        }
        if reshard_step {
            ctx.obs_flight(FlightKind::ReshardRecord, 0, 0);
        }
        let obs = out.take_obs();
        if !obs.is_empty() {
            // Under speculation the emissions wait in the commit buffers: a
            // rolled-back slot must leave no phantom spans, gauge samples,
            // or audit sightings behind.
            if let Some(bufs) = self.spec_building.as_mut() {
                bufs.obs.extend(obs);
            } else {
                self.apply_app_obs(obs, ctx);
            }
        }
        let cmds = std::mem::take(&mut out.cmds);
        for cmd in cmds {
            self.run_cmd(cmd, ctx);
        }
    }

    /// Applies application-layer observability emissions, qualifying each
    /// with this replica's group and the current sim-time.
    fn apply_app_obs(&mut self, obs: Vec<AppObs>, ctx: &mut Context<'_>) {
        for o in obs {
            match o {
                AppObs::Proto {
                    family,
                    id,
                    phase,
                    count,
                } => {
                    let key = ProtoKey {
                        group: self.cfg.group.0,
                        family,
                        id,
                    };
                    ctx.obs_proto(key, phase, count);
                }
                AppObs::Audit(ev) => ctx.obs_audit(self.cfg.group.0, ev),
                AppObs::Gauge { name, value } => {
                    if ctx.trace_level().spans_enabled() {
                        ctx.gauge(&name, value);
                    }
                }
            }
        }
    }

    fn run_cmd(&mut self, cmd: AppCmd, ctx: &mut Context<'_>) {
        match cmd {
            AppCmd::Call {
                call,
                target,
                payload,
                timeout,
                read_only,
            } => {
                if !self.cfg.topology.contains(target) || target == self.cfg.group {
                    // Unknown target or self-call: abort immediately and
                    // deterministically (every replica does the same).
                    self.calls.insert(
                        call.0,
                        CallState {
                            target,
                            target_seq: 0,
                            done: true,
                            read_only,
                            payload,
                        },
                    );
                    self.deliver(AppEvent::Aborted { call }, ctx);
                    return;
                }
                if read_only {
                    // Fast path: no per-target sequence number is consumed —
                    // the read never enters the target's agreement stream.
                    self.calls.insert(
                        call.0,
                        CallState {
                            target,
                            target_seq: 0,
                            done: false,
                            read_only: true,
                            payload: payload.clone(),
                        },
                    );
                    ctx.metrics().incr("perpetual.reads_issued");
                    let msg = PMsg::ReadRequest {
                        caller: self.cfg.group,
                        caller_n: self.n,
                        req_no: call.0,
                        payload,
                    };
                    for node in self.cfg.topology.nodes(target).to_vec() {
                        self.send_pmsg(node, &msg, 0, ctx);
                    }
                    self.arm_call_timers(call.0, timeout, ctx);
                    return;
                }
                let seq = self.next_target_seq.entry(target.0).or_insert(0);
                let target_seq = *seq;
                *seq += 1;
                self.calls.insert(
                    call.0,
                    CallState {
                        target,
                        target_seq,
                        done: false,
                        read_only: false,
                        payload: payload.clone(),
                    },
                );
                let target_n = self.cfg.topology.n(target);
                let ev = Event::External {
                    caller: self.cfg.group,
                    caller_n: self.n,
                    req_no: call.0,
                    target_seq,
                    responder: (call.0 % target_n as u64) as u32,
                    timeout_ms: timeout.map_or(0, |d| d.as_millis()),
                    payload,
                };
                ctx.metrics().incr("perpetual.calls_issued");
                let msg = PMsg::OutRequest(ev);
                for node in self.cfg.topology.nodes(target).to_vec() {
                    self.send_pmsg(node, &msg, 0, ctx);
                }
                self.arm_call_timers(call.0, timeout, ctx);
            }
            AppCmd::Reply { to, payload } => {
                // The recorded route is an optimization (it tracks the
                // caller's rotated responder preference); a missing entry
                // — e.g. evicted around a straggler delivery — falls back
                // to the deterministic default responder, which every
                // replica derives identically from the agreed request
                // number and a retrying caller rotates past if faulty.
                let responder = self
                    .reply_info
                    .get(&to.caller)
                    .and_then(|per| per.get(&to.req_no))
                    .copied()
                    .unwrap_or((to.req_no % self.n as u64) as u32);
                let mut payload = payload;
                if self.cfg.fault == FaultMode::CorruptReplies {
                    let mut bad = payload.to_vec();
                    if let Some(b) = bad.first_mut() {
                        *b ^= 0xff;
                    } else {
                        bad.push(0xff);
                    }
                    payload = Bytes::from(bad);
                }
                // Bounded retention: the oldest reply goes once the caller
                // can no longer be waiting on it (see
                // DEFAULT_REPLY_RETENTION for the contract).
                insert_bounded(
                    self.replies_sent.entry(to.caller).or_default(),
                    to.req_no,
                    payload.clone(),
                    self.cfg.reply_retention,
                );
                ctx.metrics().incr("perpetual.replies_produced");
                if let Some((origin, counter)) = self
                    .traced_replies
                    .get_mut(&to.caller)
                    .and_then(|per| per.remove(&to.req_no))
                {
                    ctx.obs_phase(self.cfg.group.0, origin, counter, Phase::Replied);
                }
                self.send_share(to.caller, to.req_no, responder, payload, ctx);
            }
            AppCmd::QueryTime { token } => {
                if let Some(bufs) = self.spec_building.as_mut() {
                    // The vote enters agreement at commit time, reading the
                    // clock then — a rolled-back speculation must not have
                    // submitted anything to the voter.
                    bufs.deferred.push(DeferredOp::SubmitTime { token });
                    return;
                }
                let millis = ctx.now().as_millis() + self.cfg.epoch_offset_ms;
                let ev = Event::TimeVote { token, millis };
                // Every replica proposes its own local reading; CLBFT's
                // request-id dedup makes the primary's suggestion win (§4.2).
                let actions = self.bft.on_request(ev.to_request());
                self.process_actions(actions, ctx);
            }
            AppCmd::Spend(d) => ctx.spend(d),
        }
    }
}

impl Node for PerpetualReplica {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        debug_assert_eq!(ctx.id(), self.my_node(), "topology/node mismatch");
        if let Some(after_ms) = self.cfg.fault.stale_drop_after_ms() {
            self.stale_timer = Some(ctx.set_timer(SimDuration::from_millis(after_ms)));
        }
        // A singleton group has no peers to transfer state back from: a
        // wipe would be an irrecoverable crash, so proactive recovery only
        // engages for replicated groups.
        if self.n > 1 {
            if let Some(window) = self.cfg.recovery_interval {
                // Staggered by index: exactly one replica per group
                // recovers per window, round-robin.
                self.recovery_timer =
                    Some(ctx.set_timer(window.saturating_mul(self.cfg.index as u64 + 1)));
            }
        }
        let seed = group_seed(self.cfg.master_seed, self.cfg.group);
        self.deliver(AppEvent::Init { seed }, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        ctx.spend(self.cfg.cost.recv_cost(msg.len(), 0));
        let Ok(pmsg) = decode_pmsg(&msg) else {
            ctx.metrics().incr("perpetual.malformed_messages");
            return;
        };
        match pmsg {
            PMsg::Bft(inner) => self.handle_bft_bytes(from, &inner, ctx),
            PMsg::OutRequest(ev) => self.handle_out_request(from, ev, ctx),
            PMsg::ReplyShare {
                caller,
                req_no,
                payload,
                share,
            } => {
                // Shares must come from within this group.
                if self.cfg.topology.nodes(self.cfg.group).contains(&from) {
                    self.handle_reply_share(caller, req_no, payload, share, ctx);
                }
            }
            PMsg::ReplyBundle {
                req_no,
                payload,
                shares,
            } => self.handle_reply_bundle(req_no, payload, shares, ctx),
            PMsg::ReadRequest {
                caller,
                caller_n,
                req_no,
                payload,
            } => self.handle_read_request(from, caller, caller_n, req_no, payload, ctx),
            PMsg::ReadReply {
                req_no,
                payload,
                share,
            } => self.handle_read_reply(from, req_no, payload, share, ctx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if self.cfg.fault.is_silent() {
            return;
        }
        if self.stale_timer == Some(timer) {
            self.stale_timer = None;
            ctx.metrics().incr("clbft.recovery.stale_drops");
            // Churny fault: silently drop to a blank state — no fetch, no
            // announcement. Only the peers' checkpoint-vote lag evidence
            // can bring this replica back. The warm variant keeps the
            // on-disk page cache; the cold variant loses it too.
            let cold = matches!(self.cfg.fault, FaultMode::StaleDropCold { .. });
            self.wipe(ctx, cold);
            return;
        }
        if self.recovery_timer == Some(timer) {
            let period = self
                .cfg
                .recovery_interval
                .expect("recovery timer implies an interval")
                .saturating_mul(self.n as u64);
            self.recovery_timer = Some(ctx.set_timer(period));
            self.proactive_recover(ctx);
            return;
        }
        if self.view_timer == Some(timer) {
            self.view_timer = None;
            ctx.metrics().incr("perpetual.view_timeouts");
            let actions = self.bft.on_view_timer();
            self.process_actions(actions, ctx);
            return;
        }
        if self.batch_timer == Some(timer) {
            self.batch_timer = None;
            ctx.metrics().incr("clbft.batch_timeouts");
            let actions = self.bft.on_batch_timer();
            self.process_actions(actions, ctx);
            return;
        }
        if let Some(call_no) = self.call_timers.remove(&timer) {
            self.timers_by_call.remove(&call_no);
            if self.calls.get(&call_no).is_some_and(|c| c.done) {
                return;
            }
            ctx.metrics().incr("perpetual.call_timeouts");
            self.abort_fired.insert(call_no);
            self.drain_gate(ctx);
            let ev = Event::Abort { call_no };
            let actions = self.bft.on_request(ev.to_request());
            self.process_actions(actions, ctx);
            return;
        }
        if let Some(call_no) = self.retry_timers.remove(&timer) {
            self.retry_by_call.remove(&call_no);
            let Some(call) = self.calls.get(&call_no) else {
                return;
            };
            if call.done {
                return;
            }
            let target = call.target;
            if call.read_only {
                // A replicated caller must never demote a read to the
                // ordered path at retry time: retries fire at
                // non-deterministic moments, and consuming a target_seq
                // then would diverge the replicas. Re-broadcasting the
                // read is idempotent; persistent quorum failure surfaces
                // as the call's abort timeout.
                ctx.metrics().incr("perpetual.call_retries");
                ctx.metrics().incr("clbft.ro.retries");
                let payload = call.payload.clone();
                let msg = PMsg::ReadRequest {
                    caller: self.cfg.group,
                    caller_n: self.n,
                    req_no: call_no,
                    payload,
                };
                for node in self.cfg.topology.nodes(target).to_vec() {
                    self.send_pmsg(node, &msg, 0, ctx);
                }
                let rt = ctx.set_timer(self.cfg.retry_interval);
                self.retry_timers.insert(rt, call_no);
                self.retry_by_call.insert(call_no, rt);
                return;
            }
            // Rotate the responder and retransmit the request to every
            // target voter; already-executed requests only re-trigger the
            // reply path on the target side.
            let r = self.retries.entry(call_no).or_insert(0);
            *r += 1;
            let retries = *r as u64;
            ctx.metrics().incr("perpetual.call_retries");
            let target_n = self.cfg.topology.n(target);
            let (payload, target_seq) = match self.calls.get(&call_no) {
                Some(c) => (c.payload.clone(), c.target_seq),
                None => return,
            };
            let ev = Event::External {
                caller: self.cfg.group,
                caller_n: self.n,
                req_no: call_no,
                target_seq,
                responder: ((call_no + retries) % target_n as u64) as u32,
                timeout_ms: 0,
                payload,
            };
            let msg = PMsg::OutRequest(ev);
            for node in self.cfg.topology.nodes(target).to_vec() {
                self.send_pmsg(node, &msg, 0, ctx);
            }
            let rt = ctx.set_timer(self.cfg.retry_interval);
            self.retry_timers.insert(rt, call_no);
            self.retry_by_call.insert(call_no, rt);
        }
    }
}
