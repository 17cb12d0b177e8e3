//! Layer replays: the benchmark's own timed calls into one crate's public
//! functions, on inputs shaped like the workload's (its message sizes,
//! group sizes, envelopes, keys and node count). Each replay runs until
//! its share of the time budget is spent and reports CPU ns per operation.

use crate::clock::cpu_ns;
use bytes::Bytes;
use perpetual_ws::runtime::default_ws_net;
use perpetual_ws::{RendezvousRouter, Router};
use pws_clbft::{Action, Config, Msg, Replica, ReplicaId, Request, RequestId};
use pws_crypto::auth::{verify_bundle, BundleShare};
use pws_crypto::keys::{KeyTable, Principal};
use pws_crypto::{sha256, MacKey};
use pws_simnet::{Context, Node, NodeId, SimDuration, Simulation};
use pws_soap::MessageContext;
use std::collections::VecDeque;
use std::hint::black_box;

/// Times `op` in rounds until `budget_ns` of CPU is spent (at least one
/// round); returns CPU ns per unit of work, where each call of `op`
/// reports how many units it did.
fn per_unit(budget_ns: u64, mut op: impl FnMut() -> u64) -> f64 {
    let t0 = cpu_ns();
    let mut units = 0u64;
    loop {
        units += op();
        let spent = cpu_ns() - t0;
        if spent >= budget_ns {
            return spent as f64 / units.max(1) as f64;
        }
    }
}

/// SHA-256 cost, ns per KiB, on a message of `size` bytes.
pub fn sha256_ns_per_kb(size: usize, budget_ns: u64) -> f64 {
    let msg = vec![0xa5u8; size.max(1)];
    let per_hash = per_unit(budget_ns, || {
        for _ in 0..64 {
            black_box(sha256(black_box(&msg)));
        }
        64
    });
    per_hash * 1024.0 / msg.len() as f64
}

/// One MAC over a message of `size` bytes, ns.
pub fn mac_ns(size: usize, budget_ns: u64) -> f64 {
    let key = MacKey::derive_from_label(1, b"perfbench");
    let msg = vec![0x5au8; size.max(1)];
    per_unit(budget_ns, || {
        for _ in 0..64 {
            black_box(key.compute(black_box(&msg)));
        }
        64
    })
}

/// Verifying one reply bundle: `2f + 1` shares from a target group of
/// `target_n` replicas, MACed for a calling group of `caller_n`, accepted
/// at `f + 1`. ns per bundle.
pub fn bundle_verify_ns(target_n: u32, caller_n: u32, budget_ns: u64) -> f64 {
    let mut keys = KeyTable::new(1);
    let callers: Vec<Principal> = (0..caller_n).map(|i| Principal::new(1, i)).collect();
    let digest = sha256(b"reply");
    let f = (target_n - 1) / 3;
    let shares: Vec<BundleShare> = (0..2 * f + 1)
        .map(|i| BundleShare::build(&mut keys, Principal::new(2, i), b"tag", digest, &callers))
        .collect();
    per_unit(budget_ns, || {
        for _ in 0..16 {
            let ok = verify_bundle(
                &mut keys,
                &shares,
                b"tag",
                &digest,
                callers[0],
                f as usize + 1,
            );
            assert!(ok, "a well-formed bundle verifies");
        }
        16
    })
}

/// Marshal and parse cost of the captured envelopes, ns per envelope.
pub fn soap_ns(envelopes: &[MessageContext], budget_ns: u64) -> (f64, f64) {
    if envelopes.is_empty() {
        return (0.0, 0.0);
    }
    let n = envelopes.len() as u64;
    let marshal = per_unit(budget_ns / 2, || {
        for mc in envelopes {
            black_box(mc.to_bytes().expect("captured envelopes marshal"));
        }
        n
    });
    let wire: Vec<Bytes> = envelopes
        .iter()
        .map(|mc| mc.to_bytes().expect("marshal"))
        .collect();
    let parse = per_unit(budget_ns / 2, || {
        for b in &wire {
            black_box(MessageContext::from_bytes(b).expect("captured envelopes parse"));
        }
        n
    });
    (marshal, parse)
}

/// `RendezvousRouter::shard` over the workload's keys, ns per call.
pub fn route_ns(keys: &[String], shards: u32, budget_ns: u64) -> f64 {
    let router = RendezvousRouter::new();
    let keys = if keys.is_empty() {
        vec!["0".to_owned()]
    } else {
        keys.to_vec()
    };
    per_unit(budget_ns, || {
        for k in &keys {
            black_box(router.shard(black_box(k), shards));
        }
        keys.len() as u64
    })
}

/// A trivial node: forwards every message it receives to a pseudo-random
/// peer, so the population of in-flight messages stays constant.
struct Relay {
    peers: u32,
    state: u64,
}

impl Node for Relay {
    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let to = NodeId::from_raw((self.state % u64::from(self.peers)) as u32);
        ctx.send(to, msg);
    }
}

/// Scheduler cost: `nodes` relays on the workload's network carrying
/// `in_flight` messages of `size` bytes. ns per delivered message.
pub fn sched_ns_per_msg(nodes: u32, in_flight: u32, size: usize, budget_ns: u64) -> f64 {
    let mut sim = Simulation::with_net(7, default_ws_net());
    for i in 0..nodes {
        sim.add_node(Box::new(Relay {
            peers: nodes,
            state: 0x9e37_79b9_7f4a_7c15 ^ u64::from(i + 1),
        }));
    }
    let msg = Bytes::from(vec![0u8; size]);
    for i in 0..in_flight.max(1) {
        let from = NodeId::from_raw(i % nodes);
        let to = NodeId::from_raw((i + 1) % nodes);
        sim.inject(from, to, msg.clone());
    }
    let delivered = |sim: &Simulation| sim.metrics().counter("net.messages_delivered");
    per_unit(budget_ns, || {
        let before = delivered(&sim);
        sim.run_for(SimDuration::from_millis(10));
        delivered(&sim) - before
    })
}

/// A sans-IO 4-replica CLBFT group ordering requests of `size` bytes,
/// `burst` at a time, at batch cap `max_batch`; messages are routed in
/// memory by the benchmark and checkpoints answered with a small
/// snapshot. CPU µs per request ordered (executed at every replica).
pub fn clbft_order_us(size: usize, burst: u32, max_batch: usize, budget_ns: u64) -> f64 {
    let mut cfg = Config::new(4);
    cfg.max_batch_size = max_batch;
    let mut replicas: Vec<Replica> = (0..4)
        .map(|i| Replica::new(ReplicaId(i), cfg.clone()))
        .collect();
    let payload = Bytes::from(vec![b'x'; size.max(1)]);
    let mut executed = [0u64; 4];
    let mut next = 0u64;
    per_unit(budget_ns, || {
        let before = executed[0];
        let mut inbox: VecDeque<(usize, ReplicaId, Msg)> = VecDeque::new();
        for _ in 0..burst.max(1) {
            next += 1;
            let req = Request::new(RequestId::new(1, next), payload.clone());
            let acts = replicas[0].on_request(req);
            route(&mut replicas, 0, acts, &mut inbox, &mut executed);
        }
        loop {
            while let Some((to, from, m)) = inbox.pop_front() {
                let acts = replicas[to].on_message(from, m);
                route(&mut replicas, to, acts, &mut inbox, &mut executed);
            }
            let acts = replicas[0].on_batch_timer();
            if acts.is_empty() {
                break;
            }
            route(&mut replicas, 0, acts, &mut inbox, &mut executed);
        }
        assert!(
            executed.iter().all(|&e| e == next),
            "every replica executes every request"
        );
        executed[0] - before
    }) / 1e3
}

fn route(
    replicas: &mut [Replica],
    at: usize,
    actions: Vec<Action>,
    inbox: &mut VecDeque<(usize, ReplicaId, Msg)>,
    executed: &mut [u64; 4],
) {
    for a in actions {
        match a {
            Action::Broadcast(m) => {
                for to in (0..replicas.len()).filter(|&i| i != at) {
                    inbox.push_back((to, ReplicaId(at as u32), m.clone()));
                }
            }
            Action::Send(dest, m) => inbox.push_back((dest.0 as usize, ReplicaId(at as u32), m)),
            Action::Execute { batch, .. } => executed[at] += batch.len() as u64,
            Action::TakeCheckpoint(seq) => {
                let snapshot = Bytes::from(executed[at].to_be_bytes().to_vec());
                let more = replicas[at].on_snapshot(seq, snapshot);
                route(replicas, at, more, inbox, executed);
            }
            _ => {}
        }
    }
}
