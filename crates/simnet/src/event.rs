//! The internal event queue.
//!
//! A binary heap of small `(at, seq)` keys over a slab of event payloads.
//! The heap moves 24-byte keys; a payload is written once on push and taken
//! once on pop. A busy node's event is deferred by re-keying the heap top in
//! place ([`EventQueue::defer_top`]) rather than popping and pushing it back.

use crate::node::NodeId;
use crate::time::SimTime;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
pub(crate) enum EventKind {
    Start,
    Deliver { from: NodeId, msg: Bytes },
    Timer { id: u64 },
}

/// Heap entry: the ordering key plus where the payload waits.
#[derive(Debug)]
struct Key {
    at: SimTime,
    seq: u64,
    to: NodeId,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. The seq tiebreak makes runs reproducible.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of pending events.
///
/// Every key gets a fresh `seq` from one counter, so keys are distinct and
/// the pop order is a function of the key set alone, not of the heap's
/// internal layout.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Key>,
    /// Payloads indexed by [`Key::slot`]; `None` marks a free slot.
    slab: Vec<Option<EventKind>>,
    /// Free slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    pub fn push(&mut self, at: SimTime, to: NodeId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Key { at, seq, to, slot });
    }

    /// Removes the next event, returning its payload; [`EventQueue::peek`]
    /// gives its time and destination.
    pub fn pop(&mut self) -> Option<EventKind> {
        let key = self.heap.pop()?;
        let kind = self.slab[key.slot as usize]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(key.slot);
        Some(kind)
    }

    /// Time and destination of the event that pops next.
    pub fn peek(&self) -> Option<(SimTime, NodeId)> {
        self.heap.peek().map(|k| (k.at, k.to))
    }

    /// Moves the next event to `at`, behind every event already queued for
    /// `at`: exactly the key a pop followed by a push would give it, so the
    /// pop order is the same — only the payload never leaves its slot.
    /// No-op on an empty queue.
    pub fn defer_top(&mut self, at: SimTime) {
        if let Some(mut top) = self.heap.peek_mut() {
            top.at = at;
            top.seq = self.next_seq;
            self.next_seq += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `(Reverse((at, seq)), destination, timer id)`: earliest pops first.
    type RefEntry = (std::cmp::Reverse<(SimTime, u64)>, u32, u64);

    /// The queue this one replaced: whole events in the heap, and a
    /// deferral is a pop followed by a push with a fresh seq.
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
        fn pop(&mut self) -> Option<(SimTime, u32, u64)> {
            let (std::cmp::Reverse((at, _)), to, tag) = self.heap.pop()?;
            Some((at, to, tag))
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
            for step in 0..4_000u64 {
                match splitmix(&mut rng) % 8 {
                    // Pushes land at a few coarse times so ties are common.
                    0..=3 => {
                        let at = SimTime::from_micros(now + splitmix(&mut rng) % 4 * 10);
                        let to = (splitmix(&mut rng) % 5) as u32;
                        q.push(at, NodeId(to), EventKind::Timer { id: step });
                        r.push(at, to, step);
                    }
                    4..=5 => {
                        let Some((at, _)) = q.peek() else { continue };
                        let later =
                            at + crate::time::SimDuration::from_micros(splitmix(&mut rng) % 3 * 10);
                        q.defer_top(later);
                        let (_, to, tag) = r.pop().expect("queues agree on emptiness");
                        r.push(later, to, tag);
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
            }
            while let Some(want) = r.pop() {
                assert_eq!(pop_timer(&mut q), Some(want), "seed {seed} drain");
            }
            assert!(q.pop().is_none());
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
                q.defer_top(SimTime::from_micros(round * 100 + 50));
            }
            for _ in 0..8 {
                q.pop().expect("eight queued");
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.slab.len(), 8, "slab never outgrows the live peak");
        assert_eq!(q.free.len(), 8);
    }
}
