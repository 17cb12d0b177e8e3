//! End-to-end tests of the Perpetual protocol on the simulated network:
//! replicated↔replicated and unreplicated↔replicated interaction, fault
//! injection, deterministic aborts, time votes, and run-to-run determinism.

use bytes::Bytes;
use pws_perpetual::{
    AppEvent, AppOutput, CallId, ClientCore, ClientEvent, CostModel, Executor, FaultMode, GroupId,
    PerpetualReplica, ReplicaConfig, RequestHandle, Topology,
};
use pws_simnet::{Context, Node, NodeId, SimDuration, SimTime, Simulation};
use std::sync::Arc;

// ---------------------------------------------------------------- executors

/// Replies to every request with `prefix ++ payload`.
struct Echo {
    prefix: &'static [u8],
    served: u64,
}

impl Echo {
    fn new(prefix: &'static [u8]) -> Self {
        Echo { prefix, served: 0 }
    }
}

impl Executor for Echo {
    fn on_event(&mut self, ev: AppEvent, out: &mut AppOutput) {
        if let AppEvent::Request { handle, payload } = ev {
            self.served += 1;
            let mut reply = self.prefix.to_vec();
            reply.extend_from_slice(&payload);
            out.reply(handle, Bytes::from(reply));
        }
    }
}

/// On Init, fires `count` calls at `target`; records replies/aborts.
struct Caller {
    target: GroupId,
    count: u64,
    timeout: Option<SimDuration>,
    replies: Vec<(CallId, Bytes)>,
    aborted: Vec<CallId>,
    times: Vec<(u64, u64)>,
    query_time_first: bool,
}

impl Caller {
    fn new(target: GroupId, count: u64) -> Self {
        Caller {
            target,
            count,
            timeout: None,
            replies: Vec::new(),
            aborted: Vec::new(),
            times: Vec::new(),
            query_time_first: false,
        }
    }
}

impl Executor for Caller {
    fn on_event(&mut self, ev: AppEvent, out: &mut AppOutput) {
        match ev {
            AppEvent::Init { .. } => {
                if self.query_time_first {
                    out.query_time();
                }
                for i in 0..self.count {
                    out.call(self.target, Bytes::from(format!("req-{i}")), self.timeout);
                }
            }
            AppEvent::Reply { call, payload } => self.replies.push((call, payload)),
            AppEvent::Aborted { call } => self.aborted.push(call),
            AppEvent::Time { token, millis } => self.times.push((token, millis)),
            AppEvent::Request { .. } => {}
        }
    }
}

// ------------------------------------------------------------------ harness

struct Deployment {
    sim: Simulation,
    groups: Vec<(GroupId, Vec<NodeId>)>,
}

/// Builds a deployment: for each entry `(n, make_executor, faults)` one
/// group of `n` replicas; faults lists per-replica fault modes.
type GroupSpec = (u32, Box<dyn Fn(u32) -> Box<dyn Executor>>, Vec<FaultMode>);

fn build(seed: u64, specs: Vec<GroupSpec>) -> Deployment {
    let mut sim = Simulation::new(seed);
    let mut topo = Topology::new();
    let mut next_node = 0u32;
    let mut groups = Vec::new();
    for (gi, (n, _, _)) in specs.iter().enumerate() {
        let nodes: Vec<NodeId> = (next_node..next_node + n).map(NodeId::from_raw).collect();
        next_node += n;
        topo.register(GroupId(gi as u32), nodes.clone());
        groups.push((GroupId(gi as u32), nodes));
    }
    let topo = Arc::new(topo);
    for (gi, (n, make, faults)) in specs.into_iter().enumerate() {
        for idx in 0..n {
            let mut cfg = ReplicaConfig::new(GroupId(gi as u32), idx, topo.clone(), seed);
            cfg.cost = CostModel::FREE;
            if let Some(f) = faults.get(idx as usize) {
                cfg.fault = *f;
            }
            let node = sim.add_node(Box::new(PerpetualReplica::new(cfg, make(idx))));
            assert_eq!(node, topo.node(GroupId(gi as u32), idx));
        }
    }
    Deployment { sim, groups }
}

fn correct(n: u32) -> Vec<FaultMode> {
    vec![FaultMode::Correct; n as usize]
}

fn caller_state(d: &mut Deployment, group: usize, idx: u32) -> &mut Caller {
    let node = d.groups[group].1[idx as usize];
    d.sim
        .node_mut::<PerpetualReplica>(node)
        .unwrap()
        .executor_mut::<Caller>()
        .unwrap()
}

// -------------------------------------------------------------------- tests

#[test]
fn replicated_caller_to_replicated_target() {
    for (nc, nt) in [(4u32, 4u32), (1, 4), (4, 1), (4, 7)] {
        let mut d = build(
            7,
            vec![
                (
                    nc,
                    Box::new(|_| Box::new(Caller::new(GroupId(1), 5)) as Box<dyn Executor>),
                    correct(nc),
                ),
                (
                    nt,
                    Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                    correct(nt),
                ),
            ],
        );
        d.sim.run_until(SimTime::from_secs(30));
        for idx in 0..nc {
            let c = caller_state(&mut d, 0, idx);
            assert_eq!(c.replies.len(), 5, "nc={nc} nt={nt} replica {idx}");
            assert!(c.aborted.is_empty());
            let mut sorted: Vec<_> = c.replies.clone();
            sorted.sort_by_key(|(c, _)| *c);
            for (i, (call, payload)) in sorted.iter().enumerate() {
                assert_eq!(call.0, i as u64);
                assert_eq!(&payload[..], format!("ok:req-{i}").as_bytes());
            }
        }
        // All caller replicas saw the same reply order (determinism).
        let r0: Vec<_> = caller_state(&mut d, 0, 0).replies.clone();
        for idx in 1..nc {
            assert_eq!(caller_state(&mut d, 0, idx).replies, r0);
        }
    }
}

#[test]
fn target_group_tolerates_f_silent_replicas() {
    let faults = vec![
        FaultMode::Correct,
        FaultMode::Silent,
        FaultMode::Correct,
        FaultMode::Correct,
    ];
    let mut d = build(
        11,
        vec![
            (
                1,
                Box::new(|_| Box::new(Caller::new(GroupId(1), 3)) as Box<dyn Executor>),
                correct(1),
            ),
            (
                4,
                Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                faults,
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(30));
    let c = caller_state(&mut d, 0, 0);
    assert_eq!(c.replies.len(), 3);
}

#[test]
fn target_group_tolerates_f_corrupt_reply_replicas() {
    let faults = vec![
        FaultMode::CorruptReplies,
        FaultMode::Correct,
        FaultMode::Correct,
        FaultMode::Correct,
    ];
    let mut d = build(
        13,
        vec![
            (
                4,
                Box::new(|_| Box::new(Caller::new(GroupId(1), 3)) as Box<dyn Executor>),
                correct(4),
            ),
            (
                4,
                Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                faults,
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(30));
    for idx in 0..4 {
        let c = caller_state(&mut d, 0, idx);
        assert_eq!(c.replies.len(), 3, "replica {idx}");
        for (_, p) in &c.replies {
            assert!(p.starts_with(b"ok:"), "corrupted reply leaked through");
        }
    }
}

#[test]
fn compromised_target_group_triggers_deterministic_abort() {
    // The entire target group is silent (compromised beyond f): with a
    // timeout set, all caller replicas must abort the call deterministically
    // and agree on having done so. This is the fault-isolation guarantee.
    let mut d = build(
        17,
        vec![
            (
                4,
                Box::new(|_| {
                    let mut c = Caller::new(GroupId(1), 2);
                    c.timeout = Some(SimDuration::from_millis(500));
                    Box::new(c) as Box<dyn Executor>
                }),
                correct(4),
            ),
            (
                4,
                Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                vec![FaultMode::Silent; 4],
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(60));
    let a0: Vec<_> = {
        let c = caller_state(&mut d, 0, 0);
        assert!(c.replies.is_empty());
        assert_eq!(c.aborted.len(), 2, "both calls abort");
        c.aborted.clone()
    };
    for idx in 1..4 {
        let c = caller_state(&mut d, 0, idx);
        assert_eq!(c.aborted, a0, "replica {idx} aborted differently");
    }
}

#[test]
fn equivocating_responder_does_not_break_safety() {
    // Replica 0 of the target group equivocates when serving as responder:
    // it sends a valid bundle to some calling drivers and a corrupted one to
    // others. Because result proposals embed their bundle shares as proof,
    // any driver that received a valid bundle can convince the whole calling
    // group: every call completes, with the correct payload, identically at
    // every caller replica.
    let faults = vec![
        FaultMode::EquivocatingResponder,
        FaultMode::Correct,
        FaultMode::Correct,
        FaultMode::Correct,
    ];
    let mut d = build(
        19,
        vec![
            (
                4,
                Box::new(|_| {
                    let mut c = Caller::new(GroupId(1), 4);
                    c.timeout = Some(SimDuration::from_secs(5));
                    Box::new(c) as Box<dyn Executor>
                }),
                correct(4),
            ),
            (
                4,
                Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                faults,
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(60));
    let (r0, a0) = {
        let c = caller_state(&mut d, 0, 0);
        (c.replies.clone(), c.aborted.clone())
    };
    assert_eq!(r0.len() + a0.len(), 4, "every call resolves");
    for (_, p) in &r0 {
        assert!(p.starts_with(b"ok:"), "equivocated payload accepted");
    }
    for idx in 1..4 {
        let c = caller_state(&mut d, 0, idx);
        assert_eq!(c.replies, r0, "replica {idx} replies diverge");
        assert_eq!(c.aborted, a0, "replica {idx} aborts diverge");
    }
    assert_eq!(r0.len(), 4, "all calls complete despite the equivocator");
}

#[test]
fn time_votes_agree_across_replicas() {
    let mut d = build(
        23,
        vec![
            (
                4,
                Box::new(|_| {
                    let mut c = Caller::new(GroupId(1), 1);
                    c.query_time_first = true;
                    Box::new(c) as Box<dyn Executor>
                }),
                correct(4),
            ),
            (
                1,
                Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                correct(1),
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(30));
    let t0 = caller_state(&mut d, 0, 0).times.clone();
    assert_eq!(t0.len(), 1);
    assert!(t0[0].1 >= 1_190_000_000_000, "epoch offset applied");
    for idx in 1..4 {
        assert_eq!(caller_state(&mut d, 0, idx).times, t0, "replica {idx}");
    }
}

#[test]
fn unreplicated_client_core_calls_replicated_target() {
    struct ClientNode {
        core: ClientCore,
        target: GroupId,
        replies: Vec<Bytes>,
        want: u64,
    }
    impl Node for ClientNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.want {
                self.core
                    .call(ctx, self.target, Bytes::from_static(b"ping"));
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
            if let Some(ClientEvent::Reply { payload, .. }) = self.core.on_message(&msg, ctx) {
                self.replies.push(payload);
            }
        }
    }

    let seed = 29;
    let mut sim = Simulation::new(seed);
    let mut topo = Topology::new();
    let target_nodes: Vec<NodeId> = (0..4).map(NodeId::from_raw).collect();
    topo.register(GroupId(0), target_nodes);
    topo.register(GroupId(1), vec![NodeId::from_raw(4)]);
    let topo = Arc::new(topo);
    for idx in 0..4 {
        let mut cfg = ReplicaConfig::new(GroupId(0), idx, topo.clone(), seed);
        cfg.cost = CostModel::FREE;
        sim.add_node(Box::new(PerpetualReplica::new(
            cfg,
            Box::new(Echo::new(b"pong:")),
        )));
    }
    let client = sim.add_node(Box::new(ClientNode {
        core: ClientCore::new(GroupId(1), topo, seed, CostModel::FREE),
        target: GroupId(0),
        replies: Vec::new(),
        want: 10,
    }));
    sim.run_until(SimTime::from_secs(30));
    let c = sim.node_mut::<ClientNode>(client).unwrap();
    assert_eq!(c.replies.len(), 10);
    assert!(c.replies.iter().all(|p| &p[..] == b"pong:ping"));
    assert_eq!(c.core.outstanding(), 0);
}

#[test]
fn client_core_forgets_finished_calls() {
    /// Fires `want` ordered calls, then `want` fast-path reads, then one
    /// ordered call that it abandons at once. Keeps every message it
    /// receives so the test can replay them late.
    struct ClientNode {
        core: ClientCore,
        target: GroupId,
        want: usize,
        replies: usize,
        received: Vec<(NodeId, Bytes)>,
    }
    impl Node for ClientNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.want {
                self.core.call(ctx, self.target, Bytes::from_static(b"w"));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
            self.received.push((from, msg.clone()));
            if self.core.on_message(&msg, ctx).is_none() {
                return;
            }
            self.replies += 1;
            if self.replies == self.want {
                for _ in 0..self.want {
                    self.core
                        .call_read_only(ctx, self.target, Bytes::from_static(b"r"));
                }
            } else if self.replies == 2 * self.want {
                let call = self.core.call(ctx, self.target, Bytes::from_static(b"a"));
                self.core.abandon(call);
            }
        }
    }

    let seed = 31;
    let mut sim = Simulation::new(seed);
    let mut topo = Topology::new();
    topo.register(GroupId(0), (0..4).map(NodeId::from_raw).collect());
    topo.register(GroupId(1), vec![NodeId::from_raw(4)]);
    let topo = Arc::new(topo);
    for idx in 0..4 {
        let mut cfg = ReplicaConfig::new(GroupId(0), idx, topo.clone(), seed);
        cfg.cost = CostModel::FREE;
        sim.add_node(Box::new(PerpetualReplica::new(
            cfg,
            Box::new(Echo::new(b"pong:")),
        )));
    }
    let client = sim.add_node(Box::new(ClientNode {
        core: ClientCore::new(GroupId(1), topo, seed, CostModel::FREE),
        target: GroupId(0),
        want: 8,
        replies: 0,
        received: Vec::new(),
    }));
    sim.run_until(SimTime::from_secs(30));
    let c = sim.node_mut::<ClientNode>(client).unwrap();
    assert_eq!(c.replies, 16, "the abandoned call never completes");
    assert_eq!(c.core.outstanding(), 0, "no finished call is kept");
    // Every reply and read reply, delivered again after its call finished,
    // is ignored.
    let late = std::mem::take(&mut c.received);
    assert!(late.len() > 16);
    for (from, msg) in late {
        sim.inject(from, client, msg);
    }
    sim.run_until(SimTime::from_secs(31));
    let c = sim.node_mut::<ClientNode>(client).unwrap();
    assert_eq!(c.replies, 16);
    assert_eq!(c.core.outstanding(), 0);
}

#[test]
fn runs_are_bit_reproducible() {
    let run = |seed: u64| {
        let mut d = build(
            seed,
            vec![
                (
                    4,
                    Box::new(|_| Box::new(Caller::new(GroupId(1), 8)) as Box<dyn Executor>),
                    correct(4),
                ),
                (
                    4,
                    Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                    correct(4),
                ),
            ],
        );
        d.sim.run_until(SimTime::from_secs(30));
        let replies = caller_state(&mut d, 0, 0).replies.clone();
        (d.sim.trace_digest().value(), replies)
    };
    let (d1, r1) = run(99);
    let (d2, r2) = run(99);
    assert_eq!(d1, d2, "same seed, same trace");
    assert_eq!(r1, r2);
    let (d3, r3) = run(100);
    assert_ne!(d1, d3, "different seed, different schedule");
    // A different schedule may deliver replies in a different order, but the
    // *set* of completed calls and their payloads must match.
    let norm = |rs: &[(CallId, Bytes)]| {
        let mut v: Vec<_> = rs.iter().map(|(c, p)| (c.0, p.clone())).collect();
        v.sort();
        v
    };
    assert_eq!(norm(&r1), norm(&r3));
}

#[test]
fn voter_state_drains_once_a_run_quiesces() {
    let mut d = build(
        5,
        vec![
            (
                4,
                Box::new(|_| Box::new(Caller::new(GroupId(1), 40)) as Box<dyn Executor>),
                correct(4),
            ),
            (
                4,
                Box::new(|_| Box::new(Echo::new(b"ok:")) as Box<dyn Executor>),
                correct(4),
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(30));
    assert_eq!(caller_state(&mut d, 0, 0).replies.len(), 40);
    for (group, nodes) in d.groups.clone() {
        for node in nodes {
            let r = d.sim.node_mut::<PerpetualReplica>(node).unwrap();
            assert_eq!(r.voter_backlog(), (0, 0), "{group:?} {node:?}");
        }
    }
}

#[test]
fn nested_tiers_compose() {
    // Three tiers: caller(4) -> middle(4) -> backend(1). The middle tier's
    // executor forwards each request to the backend and replies with the
    // backend's answer — the n-Tier scenario from the paper's title.
    struct Middle {
        backend: GroupId,
        waiting: Vec<(CallId, RequestHandle)>,
    }
    impl Executor for Middle {
        fn on_event(&mut self, ev: AppEvent, out: &mut AppOutput) {
            match ev {
                AppEvent::Request { handle, payload } => {
                    let call = out.call(self.backend, payload, None);
                    self.waiting.push((call, handle));
                }
                AppEvent::Reply { call, payload } => {
                    if let Some(pos) = self.waiting.iter().position(|(c, _)| *c == call) {
                        let (_, handle) = self.waiting.remove(pos);
                        let mut r = b"mid:".to_vec();
                        r.extend_from_slice(&payload);
                        out.reply(handle, Bytes::from(r));
                    }
                }
                _ => {}
            }
        }
    }

    let mut d = build(
        31,
        vec![
            (
                4,
                Box::new(|_| Box::new(Caller::new(GroupId(1), 4)) as Box<dyn Executor>),
                correct(4),
            ),
            (
                4,
                Box::new(|_| {
                    Box::new(Middle {
                        backend: GroupId(2),
                        waiting: Vec::new(),
                    }) as Box<dyn Executor>
                }),
                correct(4),
            ),
            (
                1,
                Box::new(|_| Box::new(Echo::new(b"be:")) as Box<dyn Executor>),
                correct(1),
            ),
        ],
    );
    d.sim.run_until(SimTime::from_secs(60));
    for idx in 0..4 {
        let c = caller_state(&mut d, 0, idx);
        assert_eq!(c.replies.len(), 4, "replica {idx}");
        for (i, (_, p)) in c.replies.iter().enumerate() {
            let _ = i;
            assert!(p.starts_with(b"mid:be:"), "payload was {:?}", p);
        }
    }
}

#[test]
fn self_call_aborts_deterministically() {
    let mut d = build(
        37,
        vec![(
            4,
            Box::new(|_| Box::new(Caller::new(GroupId(0), 1)) as Box<dyn Executor>),
            correct(4),
        )],
    );
    d.sim.run_until(SimTime::from_secs(5));
    for idx in 0..4 {
        let c = caller_state(&mut d, 0, idx);
        assert_eq!(c.aborted.len(), 1, "replica {idx}");
        assert!(c.replies.is_empty());
    }
}
