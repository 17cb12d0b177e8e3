//! Full-stack determinism: two runs of the same replicated-service workload
//! with the same master seed must produce identical traces, metrics, and
//! replies — CLBFT agreement, Perpetual interaction, SOAP marshalling and
//! the simulator all included.

use perpetual_ws::{PassiveService, PassiveUtils, SystemBuilder};
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
