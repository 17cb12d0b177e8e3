//! The internal event queue.
//!
//! Events pop in `(time, arrival)` order: earliest instant first, and within
//! one instant in the order they entered the queue, whether by
//! [`EventQueue::push`] or by [`EventQueue::defer_front`]. The queue keeps
//! one FIFO per instant, so that order holds by construction and no
//! sequence number is stored: an event entering instant `t` always sorts
//! after everything already there.
//!
//! Each instant's FIFO is a list of *runs*, maximal stretches of events for
//! the same destination node. Runs and event payloads live in two slabs
//! linked by index and reused through free lists, so steady-state pushes,
//! pops and deferrals allocate nothing. A busy node's whole run is deferred
//! with one splice ([`EventQueue::defer_front`]); see `run_until` in
//! `sim.rs` for why that equals deferring its events one at a time.

use crate::node::NodeId;
use crate::time::SimTime;
use bytes::Bytes;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

#[derive(Debug)]
pub(crate) enum EventKind {
    Start,
    Deliver { from: NodeId, msg: Bytes },
    Timer { id: u64 },
}

/// End of a link chain.
const NIL: u32 = u32::MAX;

/// One queued event: its payload and the next event of its run.
#[derive(Debug)]
struct Slot {
    /// `None` while the slot is free.
    kind: Option<EventKind>,
    next: u32,
}

/// Consecutive events of one instant bound for the same node.
#[derive(Debug, Clone, Copy)]
struct Run {
    to: NodeId,
    head: u32,
    tail: u32,
    len: u32,
    /// The next run of the same instant.
    next: u32,
}

/// The runs of one instant, oldest first.
#[derive(Debug)]
struct Bucket {
    first: u32,
    last: u32,
}

/// A vector whose freed entries are reused before it grows.
#[derive(Debug)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn alloc(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = item;
                i
            }
            None => {
                self.items.push(item);
                u32::try_from(self.items.len() - 1).expect("fewer than 2^32 pending events")
            }
        }
    }

    fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

/// A deterministic queue of pending events, FIFO within each instant.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    buckets: BTreeMap<SimTime, Bucket>,
    runs: Slab<Run>,
    slots: Slab<Slot>,
    len: usize,
}

impl EventQueue {
    pub fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
        let slot = self.slots.alloc(Slot {
            kind: Some(kind),
            next: NIL,
        });
        self.len += 1;
        let run = Run {
            to,
            head: slot,
            tail: slot,
            len: 1,
            next: NIL,
        };
        self.append(at, run, None);
    }

    /// Time and destination of the event that pops next.
    pub fn peek(&self) -> Option<(SimTime, NodeId)> {
        let (&at, bucket) = self.buckets.first_key_value()?;
        Some((at, self.runs.items[bucket.first as usize].to))
    }

    /// Removes the next event, returning its payload; [`EventQueue::peek`]
    /// gives its time and destination.
    pub fn pop(&mut self) -> Option<EventKind> {
        let mut entry = self.buckets.first_entry()?;
        let bucket = entry.get_mut();
        let r = bucket.first;
        let run = &mut self.runs.items[r as usize];
        let slot = run.head;
        run.len -= 1;
        if run.len == 0 {
            bucket.first = run.next;
            self.runs.release(r);
            if bucket.first == NIL {
                entry.remove();
            }
        } else {
            run.head = self.slots.items[slot as usize].next;
        }
        self.len -= 1;
        let kind = self.slots.items[slot as usize].kind.take();
        self.slots.release(slot);
        kind
    }

    /// Moves the front run — the next event and every event after it at
    /// the same instant for the same node, but at most `max` of them — to
    /// the back of instant `at`, keeping their order. Returns how many
    /// events moved (0 on an empty queue).
    ///
    /// This is exactly what `max` (or fewer, when the run is shorter)
    /// consecutive pop-and-push deferrals to `at` would do, provided `at`
    /// is later than the front instant: each would take the front event and
    /// append it behind everything already at `at`.
    pub fn defer_front(&mut self, at: SimTime, max: u64) -> u64 {
        let Some(mut entry) = self.buckets.first_entry() else {
            return 0;
        };
        debug_assert!(at > *entry.key(), "deferral must move events later");
        let bucket = entry.get_mut();
        let r = bucket.first;
        let run = &mut self.runs.items[r as usize];
        if u64::from(run.len) <= max {
            let moved = Run { next: NIL, ..*run };
            bucket.first = run.next;
            if bucket.first == NIL {
                entry.remove();
            }
            self.append(at, moved, Some(r));
            u64::from(moved.len)
        } else {
            // Only under a nearly spent event budget: split the run after
            // its first `max` events.
            let len = u32::try_from(max).expect("max is below the run length");
            let head = run.head;
            let mut tail = head;
            for _ in 1..len {
                tail = self.slots.items[tail as usize].next;
            }
            run.head = self.slots.items[tail as usize].next;
            run.len -= len;
            let moved = Run {
                to: run.to,
                head,
                tail,
                len,
                next: NIL,
            };
            self.append(at, moved, None);
            max
        }
    }

    /// Links the detached `run` at the back of instant `at`, merging it
    /// into that instant's last run when the node matches. `spare` is a
    /// free run record to store it in, if any.
    fn append(&mut self, at: SimTime, run: Run, spare: Option<u32>) {
        let place = |runs: &mut Slab<Run>| match spare {
            Some(r) => {
                runs.items[r as usize] = run;
                r
            }
            None => runs.alloc(run),
        };
        match self.buckets.entry(at) {
            Entry::Occupied(mut e) => {
                let bucket = e.get_mut();
                let last = &mut self.runs.items[bucket.last as usize];
                if last.to == run.to {
                    self.slots.items[last.tail as usize].next = run.head;
                    last.tail = run.tail;
                    last.len += run.len;
                    if let Some(r) = spare {
                        self.runs.release(r);
                    }
                } else {
                    let r = place(&mut self.runs);
                    self.runs.items[bucket.last as usize].next = r;
                    bucket.last = r;
                }
            }
            Entry::Vacant(e) => {
                let r = place(&mut self.runs);
                e.insert(Bucket { first: r, last: r });
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(q: &mut EventQueue, at: u64, to: u32) {
        q.push(SimTime::from_micros(at), NodeId(to), EventKind::Start);
    }

    /// Pops the next event as `(time, destination, timer id)`.
    fn pop_timer(q: &mut EventQueue) -> Option<(SimTime, u32, u64)> {
        let (at, to) = q.peek()?;
        match q.pop() {
            Some(EventKind::Timer { id }) => Some((at, to.0, id)),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    fn pop_to(q: &mut EventQueue) -> Option<NodeId> {
        let (_, to) = q.peek()?;
        q.pop();
        Some(to)
    }

    /// Records currently held by a slab.
    fn live<T>(slab: &Slab<T>) -> usize {
        slab.items.len() - slab.free.len()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        ev(&mut q, 30, 0);
        ev(&mut q, 10, 1);
        ev(&mut q, 20, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(pop_to(&mut q).unwrap(), NodeId(1));
        assert_eq!(pop_to(&mut q).unwrap(), NodeId(2));
        assert_eq!(pop_to(&mut q).unwrap(), NodeId(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::default();
        for i in 0..100u32 {
            ev(&mut q, 5, i);
        }
        for i in 0..100u32 {
            assert_eq!(pop_to(&mut q).unwrap(), NodeId(i));
        }
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::default();
        assert!(q.peek().is_none());
        assert!(q.is_empty());
        ev(&mut q, 42, 0);
        ev(&mut q, 7, 1);
        assert_eq!(q.peek(), Some((SimTime::from_micros(7), NodeId(1))));
    }

    #[test]
    fn defer_front_moves_one_run_behind_the_target_instant() {
        let mut q = EventQueue::default();
        for (at, to) in [(10, 1), (10, 1), (10, 2), (10, 1), (20, 1), (20, 3)] {
            ev(&mut q, at, to);
        }
        // The front run is the two leading events for node 1 only.
        assert_eq!(q.defer_front(SimTime::from_micros(20), u64::MAX), 2);
        assert_eq!(q.defer_front(SimTime::from_micros(20), 1), 1);
        let order: Vec<u32> = std::iter::from_fn(|| pop_to(&mut q)).map(|n| n.0).collect();
        assert_eq!(order, [1, 1, 3, 1, 1, 2]);
        assert_eq!(q.defer_front(SimTime::from_micros(30), 1), 0);
    }

    /// `(Reverse((at, seq)), destination, timer id)`: earliest pops first.
    type RefEntry = (std::cmp::Reverse<(SimTime, u64)>, u32, u64);

    /// A plain priority queue: whole events in a heap keyed by time and a
    /// fresh sequence number, and a deferral is a pop followed by a push.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<RefEntry>,
        next_seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: SimTime, to: u32, tag: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push((std::cmp::Reverse((at, seq)), to, tag));
        }
        fn peek(&self) -> Option<(SimTime, u32)> {
            self.heap
                .peek()
                .map(|(std::cmp::Reverse((at, _)), to, _)| (*at, *to))
        }
        fn pop(&mut self) -> Option<(SimTime, u32, u64)> {
            let (std::cmp::Reverse((at, _)), to, tag) = self.heap.pop()?;
            Some((at, to, tag))
        }
        /// What the simulation loop did before runs were spliced: defer
        /// the front event while it is still for the front node at the
        /// front instant, one at a time, at most `max` times.
        fn defer_one_by_one(&mut self, later: SimTime, max: u64) -> u64 {
            let Some(front) = self.peek() else { return 0 };
            let mut moved = 0;
            while moved < max && self.peek() == Some(front) {
                let (_, to, tag) = self.pop().expect("peeked");
                self.push(later, to, tag);
                moved += 1;
            }
            moved
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn in_place_deferral_pops_like_pop_and_push() {
        for seed in 0..20u64 {
            let mut rng = seed;
            let mut q = EventQueue::default();
            let mut r = Reference::default();
            let mut now = 0u64;
            let (mut peak_events, mut peak_runs) = (0, 0);
            for step in 0..4_000u64 {
                match splitmix(&mut rng) % 8 {
                    // Pushes land at a few coarse times and go to few nodes,
                    // so ties and long runs are common.
                    0..=3 => {
                        let at = SimTime::from_micros(now + splitmix(&mut rng) % 4 * 10);
                        let to = (splitmix(&mut rng) % 3) as u32;
                        q.push(at, NodeId(to), EventKind::Timer { id: step });
                        r.push(at, to, step);
                    }
                    4..=5 => {
                        let Some((at, _)) = q.peek() else { continue };
                        let later = at
                            + crate::time::SimDuration::from_micros(
                                10 + splitmix(&mut rng) % 3 * 10,
                            );
                        // Small caps split runs, as a nearly spent budget does.
                        let max = 1 + splitmix(&mut rng) % 6;
                        let moved = q.defer_front(later, max);
                        assert_eq!(
                            moved,
                            r.defer_one_by_one(later, max),
                            "seed {seed} step {step}"
                        );
                    }
                    _ => {
                        let got = pop_timer(&mut q);
                        let want = r.pop();
                        assert_eq!(got, want, "seed {seed} step {step}");
                        if let Some((at, _, _)) = got {
                            now = at.as_micros();
                        }
                    }
                }
                assert_eq!(q.len(), r.heap.len());
                assert_eq!(q.len(), live(&q.slots));
                peak_events = peak_events.max(live(&q.slots));
                peak_runs = peak_runs.max(live(&q.runs));
            }
            // Every record is reused before a slab grows.
            assert_eq!(q.slots.items.len(), peak_events, "seed {seed}");
            assert_eq!(q.runs.items.len(), peak_runs, "seed {seed}");
            while let Some(want) = r.pop() {
                assert_eq!(pop_timer(&mut q), Some(want), "seed {seed} drain");
            }
            assert!(q.pop().is_none());
            assert!(q.buckets.is_empty());
            assert_eq!(live(&q.runs), 0);
        }
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut q = EventQueue::default();
        for round in 0..10_000u64 {
            for k in 0..8 {
                ev(&mut q, round * 100 + k, k as u32);
            }
            for _ in 0..3 {
                q.defer_front(SimTime::from_micros(round * 100 + 50), u64::MAX);
            }
            for _ in 0..8 {
                q.pop().expect("eight queued");
            }
        }
        assert!(q.is_empty());
        assert_eq!(
            q.slots.items.len(),
            8,
            "event slab never outgrows the live peak"
        );
        assert_eq!(q.slots.free.len(), 8);
        assert_eq!(
            q.runs.items.len(),
            8,
            "run slab never outgrows the live peak"
        );
        assert_eq!(q.runs.free.len(), 8);
    }
}
