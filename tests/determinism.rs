//! Full-stack determinism: two runs of the same replicated-service workload
//! with the same master seed must produce identical traces, metrics, and
//! replies — CLBFT agreement, Perpetual interaction, SOAP marshalling and
//! the simulator all included.

use perpetual_ws::{
    FaultMode, PassiveService, PassiveUtils, Poll, Service, ServiceCtx, SystemBuilder, WaitSet,
    WsEvent,
};
use pws_simnet::SimTime;
use pws_soap::{MessageContext, XmlNode};

struct Accumulator {
    total: u64,
}

impl PassiveService for Accumulator {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        let n: u64 = req.body().text.trim().parse().unwrap_or(0);
        self.total += n;
        req.reply_with("", XmlNode::new("sum").with_text(self.total.to_string()))
    }
}

struct StackFingerprint {
    trace_hash: u64,
    trace_events: u64,
    metrics: String,
    replies: Vec<String>,
}

fn run_stack(seed: u64) -> StackFingerprint {
    let mut b = SystemBuilder::new(seed);
    b.passive_service("acc", 4, |_| Box::new(Accumulator { total: 0 }));
    b.scripted_client("user", "acc", 6);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));
    let replies: Vec<String> = sys
        .client_replies("user")
        .iter()
        .map(|r| r.body().text.clone())
        .collect();
    let digest = sys.sim_mut().trace_digest();
    StackFingerprint {
        trace_hash: digest.value(),
        trace_events: digest.events(),
        metrics: format!("{:?}", sys.metrics()),
        replies,
    }
}

#[test]
fn full_stack_same_seed_reproduces_exactly() {
    let a = run_stack(2008);
    let b = run_stack(2008);
    assert_eq!(a.replies.len(), 6, "workload must complete");
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.trace_events, b.trace_events);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.replies, b.replies);
}

/// Pinned master seed ⇒ pinned trace digest for the quickstart topology
/// (one counter group of 4 replicas, one windowed client, 10 calls).
///
/// This golden constant proves the poll-driven runtime reproduces the seed
/// semantics event-for-event across commits, not merely run-to-run within
/// one build: any change to agreement, scheduling, marshalling, or the
/// service hosting path that alters even one delivery shows up here. If a
/// change is *intended* to alter the event stream, re-pin the constant in
/// the same commit and say why.
const QUICKSTART_SEED: u64 = 42;
// Re-pinned for the read-only fast path (PR 6): requests now carry a
// read-only flag on the wire (one byte in every CLBFT request frame), so
// every frame length, cost-model charge, and delivery time shifted —
// even in this all-ordered workload. Previous value:
// 0xa28a_61bc_ef6b_7bd1 (dense per-target dedup numbering, PR 5).
const QUICKSTART_GOLDEN_DIGEST: u64 = 0x643f_5817_e03b_2f09;

struct Counter(u64);
impl PassiveService for Counter {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        let old = self.0;
        self.0 += 1;
        req.reply_with(
            "",
            XmlNode::new("incrementResult").with_text(old.to_string()),
        )
    }
}

#[test]
fn quickstart_topology_matches_golden_digest() {
    let mut b = SystemBuilder::new(QUICKSTART_SEED);
    b.passive_service("counter", 4, |_| Box::new(Counter(0)));
    b.scripted_client_windowed("client", "counter", 10, 1);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(30));
    assert_eq!(sys.client_replies("client").len(), 10, "workload completes");
    let digest = sys.sim_mut().trace_digest();
    assert_eq!(
        digest.value(),
        QUICKSTART_GOLDEN_DIGEST,
        "trace digest drifted from the pinned golden value \
         (got {:#018x} over {} events)",
        digest.value(),
        digest.events(),
    );
}

/// Pinned master seed ⇒ pinned trace digest for a *saturated* topology:
/// sixteen windowed clients keep one counter group of 4 replicas busy, so
/// many messages reach a replica while it is still working and wait for it
/// in the simulator's event queue, often several at the same instant. This
/// pins the order in which the simulator hands out events that wait behind
/// a busy node or tie on delivery time; the quickstart topology above, with
/// one synchronous client, queues far less.
const SATURATED_SEED: u64 = 7;
const SATURATED_CLIENTS: usize = 16;
const SATURATED_CALLS: u64 = 6;
const SATURATED_GOLDEN_DIGEST: u64 = 0x5e09_a3a2_84d9_d231;

#[test]
fn saturated_topology_matches_golden_digest() {
    let mut b = SystemBuilder::new(SATURATED_SEED);
    b.passive_service("counter", 4, |_| Box::new(Counter(0)));
    for i in 0..SATURATED_CLIENTS {
        b.scripted_client_windowed(&format!("client{i}"), "counter", SATURATED_CALLS, 3);
    }
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(30));
    for i in 0..SATURATED_CLIENTS {
        assert_eq!(
            sys.client_replies(&format!("client{i}")).len() as u64,
            SATURATED_CALLS,
            "client {i} completes"
        );
    }
    let digest = sys.sim_mut().trace_digest();
    assert_eq!(
        digest.value(),
        SATURATED_GOLDEN_DIGEST,
        "trace digest drifted from the pinned golden value \
         (got {:#018x} over {} events)",
        digest.value(),
        digest.events(),
    );
}

#[test]
fn full_stack_different_seeds_diverge_in_trace() {
    // Replies are deterministic in value (the protocol masks randomness),
    // but scheduling jitter differs, so the traces must not collide.
    let a = run_stack(2008);
    let b = run_stack(2009);
    assert_ne!(a.trace_hash, b.trace_hash);
}

struct Echo;
impl PassiveService for Echo {
    fn handle(&mut self, req: MessageContext, _u: &mut PassiveUtils) -> MessageContext {
        req.reply_with("", XmlNode::new("ok").with_text(req.body().text.clone()))
    }
}

/// The crash-primary topology of `tests/resilience.rs`: replica 0 of one
/// 4-replica group is down from the start, so the group must view-change
/// before it serves anything. Returns the trace digest.
fn crashed_primary_digest() -> u64 {
    let mut b = SystemBuilder::new(61);
    b.passive_service("svc", 4, |_| Box::new(Echo));
    b.scripted_client("user", "svc", 4);
    let mut sys = b.build();
    // Service groups are registered before clients: replica 0 of the first
    // service is simnet node 0.
    sys.sim_mut()
        .net_mut()
        .crash(pws_simnet::NodeId::from_raw(0));
    sys.run_until(SimTime::from_secs(120));
    assert_eq!(sys.client_replies("user").len(), 4, "workload completes");
    assert!(sys.metrics().counter("perpetual.view_changes") > 0);
    sys.sim_mut().trace_digest().value()
}

const CRASHED_PRIMARY_GOLDEN_DIGEST: u64 = 0x20c0_f15e_8237_c216;

/// A view change must be as reproducible as the fault-free path: the new
/// primary's `NewView` lists its quorum's votes, and that list's order
/// reaches the wire bytes, so it must not depend on hash-map iteration
/// order. Repeating the run in one process gives each run fresh
/// hash-map seeds, which exposes any such dependence.
#[test]
fn crashed_primary_view_change_reproduces_exactly() {
    let digests: Vec<u64> = (0..8).map(|_| crashed_primary_digest()).collect();
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "same seed, different traces: {digests:#018x?}"
    );
    assert_eq!(
        digests[0], CRASHED_PRIMARY_GOLDEN_DIGEST,
        "trace digest drifted from the pinned golden value (got {:#018x})",
        digests[0],
    );
}

/// A front tier that answers each request at once and fans it out to the
/// backend as three fire-and-forget calls, so most checkpoints capture
/// several unresolved outgoing calls.
struct FanOut;
impl Service for FanOut {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        if let WsEvent::Request { request } = ev {
            for _ in 0..3 {
                let mut call = MessageContext::request("urn:svc:backend", "echo");
                call.body_mut().text = request.body().text.clone();
                ctx.send(call);
            }
            let reply = request.reply_with("", XmlNode::new("ok"));
            ctx.reply(reply, &request);
        }
        Poll::Wait(WaitSet::new().requests().any_reply())
    }
}

/// Replica 3 of the front tier drops to a blank state mid-run and rejoins
/// by state transfer, which re-arms a retry timer for every unresolved
/// call in the installed snapshot. Returns the trace digest.
fn wiped_front_tier_digest() -> u64 {
    let mut b = SystemBuilder::new(2_024);
    b.checkpoint_interval(8);
    b.max_batch_size(1);
    b.service("front", 4, |_| Box::new(FanOut));
    b.passive_service("backend", 4, |_| Box::new(Echo));
    b.fault("front", 3, FaultMode::StaleDrop { after_ms: 150 });
    b.scripted_client_windowed("user", "front", 40, 2);
    let mut sys = b.build();
    sys.run_until(SimTime::from_secs(120));
    assert_eq!(sys.client_replies("user").len(), 40, "workload completes");
    assert!(sys.metrics().counter("clbft.recovery.installs") >= 1);
    sys.sim_mut().trace_digest().value()
}

const WIPED_FRONT_TIER_GOLDEN_DIGEST: u64 = 0x9706_035c_6237_ab17;

/// State transfer must be as reproducible as the fault-free path: the
/// order in which a recovered replica re-arms its retry timers must not
/// depend on hash-map iteration order.
#[test]
fn wipe_and_recover_reproduces_exactly() {
    let digests: Vec<u64> = (0..6).map(|_| wiped_front_tier_digest()).collect();
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "same seed, different traces: {digests:#018x?}"
    );
    assert_eq!(
        digests[0], WIPED_FRONT_TIER_GOLDEN_DIGEST,
        "trace digest drifted from the pinned golden value (got {:#018x})",
        digests[0],
    );
}
