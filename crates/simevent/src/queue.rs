//! Stable priority queue of timestamped events.

use crate::handle::{CancelSet, TimerHandle};
use crate::tiebreak::TieBreak;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event plus the instant it fires, a monotone sequence number, and the
/// tie key derived from both and the event's lane ([`TieBreak::key`]).
/// Cancellation identity always stays on `seq`; only same-instant ordering
/// uses `tie`.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling order; the cancellation/bookkeeping identity.
    pub seq: u64,
    /// Same-instant ordering key ([`TieBreak::key`] of `seq`).
    pub tie: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, at equal
        // times, the smallest tie key) event is at the top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

/// The operations a deterministic event queue must provide. [`EventQueue`]
/// is the only implementation in this crate; the trait is the seam
/// `netsim`'s serial event loop is generic over, so a wrapper (for example
/// one that times every call) can stand in for it.
///
/// The contract, which the model-based proptest below enforces against a
/// sorted-`Vec` oracle: pops are globally ordered by `(time, tie)` where
/// `tie` is [`TieBreak::key`] of the schedule order and lane; cancellation
/// is O(1) lazy deletion with live [`len`](Self::len) accounting.
pub trait QueueBackend<E> {
    /// An empty queue using the default tie-break.
    fn empty() -> Self
    where
        Self: Sized,
    {
        Self::with_tie_break(TieBreak::default())
    }
    /// An empty queue ordering same-instant events by `tie_break`.
    fn with_tie_break(tie_break: TieBreak) -> Self;
    /// Schedule `event` at absolute time `at` (not cancellable, no overhead).
    fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_in_lane(at, 0, event);
    }
    /// Schedule `event` at `at` and return a handle that can cancel it.
    fn schedule_cancellable(&mut self, at: SimTime, event: E) -> TimerHandle {
        self.schedule_cancellable_in_lane(at, 0, event)
    }
    /// Like [`schedule`](Self::schedule), tagging the event with the lane
    /// (`pack_lane(dest, src)`) that [`TieBreak`] orders same-instant
    /// events by.
    fn schedule_in_lane(&mut self, at: SimTime, lane: u64, event: E);
    /// Like [`schedule_cancellable`](Self::schedule_cancellable) with a lane.
    fn schedule_cancellable_in_lane(&mut self, at: SimTime, lane: u64, event: E) -> TimerHandle;
    /// Cancel a previously scheduled event. `false` if it already fired or
    /// was already cancelled.
    fn cancel(&mut self, handle: TimerHandle) -> bool;
    /// Remove and return the earliest live event, if any.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The firing time of the earliest live pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of live pending events (cancelled events excluded).
    fn len(&self) -> usize;
    /// True when no live events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total events ever scheduled on this queue (monotone; survives
    /// [`clear`](Self::clear)).
    fn scheduled_total(&self) -> u64;
    /// Drop all pending events. Does not reset `scheduled_total`.
    fn clear(&mut self);
    /// Release excess capacity after a burst, including any physical storage
    /// still held by lazily-cancelled events. Semantically a no-op: live
    /// events, pop order, and counters are unaffected.
    fn shrink_to_fit(&mut self) {}
}

/// A deterministic event queue (binary heap).
///
/// Events are popped in nondecreasing time order; events scheduled for the
/// same instant are popped by the configured [`TieBreak`], which keeps
/// scheduling order within one lane. The simulator's traffic keeps at most a few hundred events
/// pending and cancels none of them, the regime where a binary heap
/// beats bucketed queues on both speed and memory (DESIGN.md §12).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    scheduled_total: u64,
    cancels: CancelSet,
    tie_break: TieBreak,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the default tie-break.
    pub fn new() -> Self {
        Self::with_tie_break(TieBreak::default())
    }

    /// An empty queue ordering same-instant events by `tie_break`.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
            cancels: CancelSet::default(),
            tie_break,
        }
    }

    /// Events the queue can hold before reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Release excess capacity after a burst (e.g. between sweep points).
    ///
    /// Cancelled-but-unreaped events are physically dropped first: they are
    /// dead weight the allocator would otherwise keep sized for, and leaving
    /// them in place made post-shrink capacity (and the pending-accounting
    /// derived from it) report a stale burst high-water mark. Compaction
    /// never changes pop order — only tombstones are removed.
    pub fn shrink_to_fit(&mut self) {
        if self.cancels.pending_cancelled() > 0 {
            let live: Vec<ScheduledEvent<E>> = std::mem::take(&mut self.heap)
                .into_iter()
                .filter(|se| {
                    if self.cancels.is_cancelled(se.seq) {
                        self.cancels.reap(se.seq);
                        false
                    } else {
                        true
                    }
                })
                .collect();
            self.heap = BinaryHeap::from(live);
        }
        self.heap.shrink_to_fit();
    }

    fn push(&mut self, at: SimTime, lane: u64, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let tie = self.tie_break.key(seq, lane);
        self.heap.push(ScheduledEvent {
            at,
            seq,
            tie,
            event,
        });
        seq
    }

    /// Schedule `event` to fire at absolute time `at` (default lane 0).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.push(at, 0, event);
    }

    /// Schedule `event` at `at` in `lane` (`pack_lane(dest, src)`, which
    /// [`TieBreak`] orders same-instant events by).
    pub fn schedule_in_lane(&mut self, at: SimTime, lane: u64, event: E) {
        self.push(at, lane, event);
    }

    /// Schedule `event` at `at`, returning a cancellation handle.
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> TimerHandle {
        self.schedule_cancellable_in_lane(at, 0, event)
    }

    /// Cancellable scheduling with an explicit lane.
    pub fn schedule_cancellable_in_lane(
        &mut self,
        at: SimTime,
        lane: u64,
        event: E,
    ) -> TimerHandle {
        let seq = self.push(at, lane, event);
        self.cancels.register(seq)
    }

    /// Cancel a pending event (lazy deletion: it is skipped when popped).
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        self.cancels.cancel(handle)
    }

    /// Remove and return the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(se) = self.heap.pop() {
            if self.cancels.reap(se.seq) {
                continue;
            }
            // Pop-is-minimum invariant: nothing still queued may fire before
            // the event we just removed (debug builds only).
            debug_assert!(
                self.peek_time().is_none_or(|next| se.at <= next),
                "EventQueue popped an event later than the remaining head"
            );
            return Some((se.at, se.event));
        }
        None
    }

    /// The firing time of the earliest live pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.heap.peek()?;
        if !self.cancels.is_cancelled(head.seq) {
            return Some(head.at);
        }
        // Rare path: the head is a lazily-deleted timer; fall back to a scan
        // over live events rather than mutating from a peek.
        self.heap
            .iter()
            .filter(|se| !self.cancels.is_cancelled(se.seq))
            .map(|se| se.at)
            .min()
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancels.pending_cancelled()
    }

    /// True when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled on this queue.
    ///
    /// Monotone over the queue's lifetime: unaffected by pops, cancellations,
    /// and [`clear`](Self::clear).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drop all pending events (keeps `scheduled_total` and the seq counter).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancels.clear();
    }
}

impl<E> QueueBackend<E> for EventQueue<E> {
    fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue::with_tie_break(tie_break)
    }
    fn schedule_in_lane(&mut self, at: SimTime, lane: u64, event: E) {
        EventQueue::schedule_in_lane(self, at, lane, event);
    }
    fn schedule_cancellable_in_lane(&mut self, at: SimTime, lane: u64, event: E) -> TimerHandle {
        EventQueue::schedule_cancellable_in_lane(self, at, lane, event)
    }
    fn cancel(&mut self, handle: TimerHandle) -> bool {
        EventQueue::cancel(self, handle)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn scheduled_total(&self) -> u64 {
        EventQueue::scheduled_total(self)
    }
    fn clear(&mut self) {
        EventQueue::clear(self);
    }
    fn shrink_to_fit(&mut self) {
        EventQueue::shrink_to_fit(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1 << 45), 'd');
        q.schedule(SimTime::from_nanos(30), 'c');
        q.schedule(SimTime::from_nanos(10), 'a');
        q.schedule(SimTime::from_nanos(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn same_instant_is_fifo() {
        // Plain and cancellable events share one sequence counter, so a
        // mixed same-instant batch still pops in scheduling order.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            if i % 3 == 0 {
                let _ = q.schedule_cancellable(t, i);
            } else {
                q.schedule(t, i);
            }
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 5u64);
        q.schedule(SimTime::from_nanos(1), 1u64);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(SimTime::from_nanos(3), 3u64);
        q.schedule(SimTime::from_nanos(2), 2u64);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(42));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..10u64 {
            q.schedule(SimTime::ZERO + SimDuration::from_nanos(i), i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.scheduled_total(), 10);
        q.pop();
        assert_eq!(q.len(), 9);
        assert_eq!(q.scheduled_total(), 10);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 10);
    }

    #[test]
    fn scheduled_total_survives_clear_and_keeps_counting() {
        // Regression: `scheduled_total` is a lifetime counter, not a gauge.
        // It must neither reset on clear() nor double-count cancellations.
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        let h = q.schedule_cancellable(SimTime::from_nanos(99), 99);
        assert!(q.cancel(h));
        assert_eq!(q.scheduled_total(), 6, "cancelled events still count");
        q.clear();
        assert_eq!(q.scheduled_total(), 6);
        q.schedule(SimTime::from_nanos(1), 1);
        assert_eq!(q.scheduled_total(), 7, "counter keeps going after clear");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn shrink_to_fit_compacts_cancelled_tombstones() {
        // Regression: a burst of rearmed timers leaves the heap full of
        // cancelled tombstones; shrink_to_fit used to shrink around them, so
        // capacity (and the pending accounting built on it) stayed at the
        // stale burst high-water mark.
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut handles = Vec::new();
        for i in 0..1024u64 {
            handles.push(q.schedule_cancellable(SimTime::from_nanos(1000 + i), i));
        }
        let keeper = q.schedule_cancellable(SimTime::from_nanos(999), 9999);
        for h in handles {
            assert!(q.cancel(h));
        }
        assert_eq!(q.len(), 1);
        q.shrink_to_fit();
        assert!(
            q.capacity() < 1024,
            "capacity must reflect live events, not tombstones (got {})",
            q.capacity()
        );
        assert_eq!(q.len(), 1, "compaction never touches live events");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(999)));
        // The surviving handle is still live and still cancellable.
        assert!(q.cancel(keeper));
        assert!(q.pop().is_none());

        // A plain burst drained by pops is released too, and the queue still
        // works after shrinking.
        for i in 0..1024u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        while q.pop().is_some() {}
        q.shrink_to_fit();
        assert!(q.capacity() < 1024, "shrink_to_fit releases the burst");
        q.schedule(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
    }

    #[test]
    fn cancellation_skips_and_counts() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1u64);
        let h2 = q.schedule_cancellable(SimTime::from_nanos(2), 2u64);
        let h3 = q.schedule_cancellable(SimTime::from_nanos(3), 3u64);
        assert_eq!(q.len(), 3);
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel is a no-op");
        assert_eq!(q.len(), 2, "len is live events only");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 3)), "2 was skipped");
        assert!(!q.cancel(h3), "cancel after fire reports false");
        assert!(q.pop().is_none());

        // The RTO pattern: cancel and rearm slightly later, over and over.
        let mut handle = q.schedule_cancellable(SimTime::from_micros(200), 0);
        for i in 1..500u64 {
            assert!(q.cancel(handle));
            handle = q.schedule_cancellable(SimTime::from_micros(200 + i), i);
            assert_eq!(q.len(), 1, "exactly one live timer at all times");
        }
        assert_eq!(q.pop(), Some((SimTime::from_micros(699), 499)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn permuted_tiebreak_reorders_only_across_lanes_within_an_instant() {
        use crate::tiebreak::{pack_lane, TieBreak};
        // Two instants, 50 events each, spread over 10 destination lanes.
        // Permuted ordering must keep the instants in time order, emit each
        // instant's events as a permutation of the FIFO set, keep same-lane
        // events in FIFO order, and (for this seed) differ from global FIFO.
        let t1 = SimTime::from_micros(1);
        let t2 = SimTime::from_micros(2);
        let mut q = EventQueue::with_tie_break(TieBreak(7));
        for i in 0..50u32 {
            // Cancellable and plain events share the tie keys, so the
            // permutation covers both kinds alike.
            if i % 2 == 0 {
                q.schedule_in_lane(t1, pack_lane((i % 10) as u16, 0), i);
            } else {
                let _ = q.schedule_cancellable_in_lane(t1, pack_lane((i % 10) as u16, 0), i);
            }
        }
        for i in 50..100u32 {
            q.schedule_in_lane(t2, pack_lane((i % 10) as u16, 0), i);
        }
        let popped: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let (first, second) = popped.split_at(50);
        assert!(first.iter().all(|&(t, _)| t == t1));
        assert!(second.iter().all(|&(t, _)| t == t2));
        let g1: Vec<u32> = first.iter().map(|&(_, e)| e).collect();
        assert_ne!(g1, (0..50).collect::<Vec<_>>(), "seed 7 should not be FIFO");
        let mut sorted = g1.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..50).collect::<Vec<_>>(),
            "a permutation, not a loss"
        );
        // Same-lane events (i % 10 equal) must still appear in schedule order.
        for lane in 0..10u32 {
            let in_lane: Vec<u32> = g1.iter().copied().filter(|e| e % 10 == lane).collect();
            let mut expect = in_lane.clone();
            expect.sort_unstable();
            assert_eq!(in_lane, expect, "lane {lane} lost its FIFO order");
        }
    }

    #[test]
    fn permuted_tiebreak_is_reproducible() {
        use crate::tiebreak::{pack_lane, TieBreak};
        let run = |seed: u64| {
            let mut q = EventQueue::with_tie_break(TieBreak(seed));
            for i in 0..64u32 {
                q.schedule_in_lane(SimTime::from_micros(3), pack_lane(i as u16, 0), i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11), "same seed, same order");
        assert_ne!(run(11), run(12), "different seeds diverge on 64 lanes");
    }

    #[test]
    fn peek_time_sees_through_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancellable(SimTime::from_nanos(1), 1u64);
        q.schedule(SimTime::from_nanos(5), 5u64);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 5)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tiebreak::pack_lane;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule a plain event at absolute time t in lane `l`.
        Schedule(u64, u16),
        /// Schedule a cancellable event; remember its handle.
        ScheduleCancellable(u64, u16),
        /// Pop one event.
        Pop,
        /// Cancel the k-th remembered handle (mod the list length); may be
        /// dead already.
        Cancel(usize),
        /// Cancel the oracle's head event if it is cancellable, so the
        /// queue's head becomes a tombstone.
        CancelHead,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Few distinct instants, so same-instant ties are common.
            4 => (0u64..3_000, 0u16..6).prop_map(|(t, l)| Op::Schedule(t / 7 * 7, l)),
            3 => (0u64..3_000, 0u16..6).prop_map(|(t, l)| Op::ScheduleCancellable(t / 7 * 7, l)),
            4 => Just(Op::Pop),
            2 => (0usize..64).prop_map(Op::Cancel),
            1 => Just(Op::CancelHead),
        ]
    }

    /// One live event in the oracle: `(at, tie)` is the sort key, `seq` the
    /// cancellation identity and the event payload.
    #[derive(Debug, Clone, Copy)]
    struct Live {
        at: SimTime,
        tie: u64,
        seq: u64,
    }

    /// Schedule on both sides; returns the handle and its `seq` when
    /// `cancellable`.
    fn schedule(
        q: &mut EventQueue<u64>,
        oracle: &mut Vec<Live>,
        tb: TieBreak,
        t: u64,
        l: u16,
        cancellable: bool,
    ) -> Option<(TimerHandle, u64)> {
        // The queue numbers events by schedule order, from zero.
        let seq = q.scheduled_total();
        let at = SimTime::from_nanos(t);
        let lane = pack_lane(l, 0);
        let handle = if cancellable {
            Some(q.schedule_cancellable_in_lane(at, lane, seq))
        } else {
            q.schedule_in_lane(at, lane, seq);
            None
        };
        let tie = tb.key(seq, lane);
        let pos = oracle.partition_point(|e| (e.at, e.tie) < (at, tie));
        oracle.insert(pos, Live { at, tie, seq });
        handle.map(|h| (h, seq))
    }

    /// Cancel on both sides: the oracle's answer is whether `seq` is live.
    fn cancel(
        q: &mut EventQueue<u64>,
        oracle: &mut Vec<Live>,
        h: TimerHandle,
        seq: u64,
    ) -> Result<(), String> {
        let want = match oracle.iter().position(|e| e.seq == seq) {
            Some(i) => {
                oracle.remove(i);
                true
            }
            None => false,
        };
        prop_assert_eq!(q.cancel(h), want, "cancel result diverged");
        Ok(())
    }

    /// Run `ops` against an [`EventQueue`] and a sorted-`Vec` oracle keyed
    /// by `(at, TieBreak::key(seq, lane))`, comparing every observation.
    fn check_against_oracle(ops: Vec<Op>, tb: TieBreak) -> Result<(), String> {
        let mut q: EventQueue<u64> = EventQueue::with_tie_break(tb);
        let mut oracle: Vec<Live> = Vec::new();
        let mut handles: Vec<(TimerHandle, u64)> = Vec::new();
        let mut scheduled = 0u64;
        for op in ops {
            match op {
                Op::Schedule(t, l) => {
                    schedule(&mut q, &mut oracle, tb, t, l, false);
                    scheduled += 1;
                }
                Op::ScheduleCancellable(t, l) => {
                    handles.extend(schedule(&mut q, &mut oracle, tb, t, l, true));
                    scheduled += 1;
                }
                Op::Pop => {
                    let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                    prop_assert_eq!(q.pop(), want.map(|e| (e.at, e.seq)), "pop diverged");
                }
                Op::Cancel(k) => {
                    if !handles.is_empty() {
                        let (h, seq) = handles[k % handles.len()];
                        cancel(&mut q, &mut oracle, h, seq)?;
                    }
                }
                Op::CancelHead => {
                    let head = oracle.first().map(|e| e.seq);
                    if let Some(&(h, seq)) = handles.iter().find(|(_, s)| Some(*s) == head) {
                        cancel(&mut q, &mut oracle, h, seq)?;
                    }
                }
            }
            prop_assert_eq!(q.len(), oracle.len(), "live length diverged");
            prop_assert_eq!(q.peek_time(), oracle.first().map(|e| e.at), "peek diverged");
            prop_assert_eq!(q.scheduled_total(), scheduled);
        }
        // Drain completely: the whole tail must match too.
        for e in oracle {
            prop_assert_eq!(q.pop(), Some((e.at, e.seq)), "drain diverged");
        }
        prop_assert!(q.pop().is_none());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Interleaved schedule / cancellable schedule / cancel / pop match
        /// the sorted-`Vec` oracle under the default and other seeds.
        #[test]
        fn matches_sorted_vec_oracle(
            ops in prop::collection::vec(arb_op(), 1..300),
            default_seed in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let tb = if default_seed { TieBreak::default() } else { TieBreak(seed) };
            check_against_oracle(ops, tb)?;
        }
    }

    proptest! {
        /// Pops are globally ordered by (time, insertion order), for any
        /// interleaving of schedules.
        #[test]
        fn pops_sorted_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt, "time order violated");
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO tie-break violated");
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Interleaved pop/schedule never yields an event earlier than one
        /// already popped (given schedules are never in the past).
        #[test]
        fn interleaved_monotone(ops in prop::collection::vec((0u64..1000, any::<bool>()), 1..200)) {
            let mut q = EventQueue::new();
            let mut clock = SimTime::ZERO;
            for (dt, pop) in ops {
                if pop {
                    if let Some((t, _)) = q.pop() {
                        prop_assert!(t >= clock);
                        clock = t;
                    }
                } else {
                    q.schedule(clock + SimDuration::from_nanos(dt), ());
                }
            }
        }
    }
}
