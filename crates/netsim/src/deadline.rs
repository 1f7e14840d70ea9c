//! Per-host index of TCP endpoint timer deadlines.

use simevent::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// The `live` value of a slot with no live entry. No deadline reaches it:
/// simulated-time arithmetic panics on overflow first.
const NO_ENTRY: SimTime = SimTime::MAX;

/// The timer deadlines of one host's endpoints, keyed by endpoint slot: a
/// lazy min-heap of `(deadline, slot)` entries plus a column holding each
/// slot's *live* entry.
///
/// Invariant: a slot whose endpoint reports `next_deadline() == Some(d)` has
/// a live entry `e <= d`, and at least one heap entry equals it. Heap
/// entries that differ from their slot's live entry are stale; they and
/// duplicates of a live entry are dropped when they reach the head.
/// [`DeadlineIndex::update`] pushes only when a deadline moves *earlier*
/// than the live entry; a deadline that moved later keeps its old entry,
/// which is moved to the actual deadline only once it reaches the head. An RTO re-armed on every ACK therefore costs no push,
/// and the heap grows with the number of endpoints rather than with how
/// often their timers are re-armed.
///
/// Deadlines are read through a `deadline(slot)` closure, so the index holds
/// no reference to the endpoints.
#[derive(Debug, Default)]
pub(crate) struct DeadlineIndex {
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Live entry per slot; [`NO_ENTRY`] = the slot has no live entry.
    live: Vec<SimTime>,
    /// Largest heap length ever reached.
    #[cfg(test)]
    high_water: usize,
}

impl DeadlineIndex {
    /// Register the next endpoint slot (slots are dense, from 0) with its
    /// current deadline.
    pub(crate) fn add_slot(&mut self, d: Option<SimTime>) {
        self.live.push(NO_ENTRY);
        self.update(self.live.len() as u32 - 1, d);
    }

    /// Record `slot`'s current deadline `d` after its endpoint was driven.
    #[inline]
    pub(crate) fn update(&mut self, slot: u32, d: Option<SimTime>) {
        let Some(d) = d else {
            return;
        };
        debug_assert!(d < NO_ENTRY, "deadline at the end of time");
        let live = &mut self.live[slot as usize];
        if d < *live {
            *live = d;
            self.heap.push(Reverse((d, slot)));
            #[cfg(test)]
            {
                self.high_water = self.high_water.max(self.heap.len());
            }
        }
    }

    /// The earliest deadline over all slots, exactly.
    pub(crate) fn head(&mut self, deadline: impl Fn(u32) -> Option<SimTime>) -> Option<SimTime> {
        self.exact_head(&deadline).map(|(e, _)| e)
    }

    /// Append to `due`, once each, every slot whose deadline is at or before
    /// `now`. Their live entries are consumed: the caller fires those timers
    /// and then [`update`](DeadlineIndex::update)s the slots.
    pub(crate) fn take_due(
        &mut self,
        now: SimTime,
        deadline: impl Fn(u32) -> Option<SimTime>,
        due: &mut Vec<u32>,
    ) {
        while let Some((e, slot)) = self.exact_head(&deadline) {
            if e > now {
                break;
            }
            self.heap.pop();
            self.live[slot as usize] = NO_ENTRY;
            due.push(slot);
        }
    }

    /// The earliest `(deadline, slot)`, left on top of the heap. Drops stale
    /// entries and moves live entries whose deadline moved later until the
    /// top is exact.
    fn exact_head(&mut self, deadline: &impl Fn(u32) -> Option<SimTime>) -> Option<(SimTime, u32)> {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((e, slot)) = *top;
            let live = &mut self.live[slot as usize];
            if *live != e {
                PeekMut::pop(top);
                continue;
            }
            match deadline(slot) {
                Some(d) if d == e => return Some((e, slot)),
                Some(d) => {
                    debug_assert!(d > e, "live entry later than its deadline");
                    *live = d;
                    *top = Reverse((d, slot));
                }
                None => {
                    *live = NO_ENTRY;
                    PeekMut::pop(top);
                }
            }
        }
        None
    }

    /// Largest heap length ever reached.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::topology::{ClusterSpec, Topology};
    use crate::{Network, Simulation, StaticFlows};
    use ecn_core::QdiscSpec;
    use netpacket::NodeId;
    use proptest::prelude::*;
    use tcpstack::TcpConfig;

    const SLOTS: u32 = 6;

    #[derive(Debug, Clone)]
    enum Op {
        /// Set a slot's deadline, then `update` it (what `flush_host` does).
        Set(u32, Option<u64>),
        /// Compare `head` with the brute-force minimum.
        Head,
        /// Take everything due at `now`, then give each due slot a fresh
        /// deadline (`now + delta`, or none) and `update` it — what
        /// `host_timers` does after firing the timers.
        TakeDue(u64, Option<u64>),
    }

    fn arb_deadline() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![3 => (0u64..100).prop_map(Some), 1 => Just(None)]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0..SLOTS, arb_deadline()).prop_map(|(s, d)| Op::Set(s, d)),
            2 => Just(Op::Head),
            2 => (0u64..100, arb_deadline()).prop_map(|(now, d)| Op::TakeDue(now, d)),
        ]
    }

    fn t(ns: Option<u64>) -> Option<SimTime> {
        ns.map(SimTime::from_nanos)
    }

    /// Run `ops` against a [`DeadlineIndex`] and a plain per-slot deadline
    /// column, comparing every head and due set with a brute-force scan.
    fn check_against_model(init: Vec<Option<u64>>, ops: Vec<Op>) -> Result<(), String> {
        let mut model: Vec<Option<SimTime>> = init.into_iter().map(t).collect();
        let mut index = DeadlineIndex::default();
        for &d in &model {
            index.add_slot(d);
        }
        let mut due = Vec::new();
        for op in ops {
            match op {
                Op::Set(slot, d) => {
                    let (old, new) = (index.live[slot as usize], t(d));
                    model[slot as usize] = new;
                    let len = index.heap.len();
                    index.update(slot, new);
                    if old != NO_ENTRY && new.is_none_or(|n| n >= old) {
                        prop_assert_eq!(index.heap.len(), len, "pushed on a later deadline");
                    }
                }
                Op::Head => {
                    let want = model.iter().flatten().min().copied();
                    prop_assert_eq!(index.head(|s| model[s as usize]), want, "head diverged");
                }
                Op::TakeDue(now, next) => {
                    let now = SimTime::from_nanos(now);
                    index.take_due(now, |s| model[s as usize], &mut due);
                    due.sort_unstable();
                    let want: Vec<u32> = (0..SLOTS)
                        .filter(|&s| model[s as usize].is_some_and(|d| d <= now))
                        .collect();
                    prop_assert_eq!(&due, &want, "due set diverged at {:?}", now);
                    for &slot in &due {
                        let d = next.map(|n| now + simevent::SimDuration::from_nanos(n + 1));
                        model[slot as usize] = d;
                        index.update(slot, d);
                    }
                    due.clear();
                }
            }
            for (slot, (&live, &d)) in index.live.iter().zip(&model).enumerate() {
                if let Some(d) = d {
                    prop_assert!(
                        live <= d,
                        "slot {slot}: live entry {live:?} not at or before {d:?}"
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random deadline updates, head queries and due scans agree with a
        /// brute-force minimum over a plain deadline column.
        #[test]
        fn matches_brute_force_model(
            init in prop::collection::vec(arb_deadline(), SLOTS as usize..SLOTS as usize + 1),
            ops in prop::collection::vec(arb_op(), 1..200),
        ) {
            check_against_model(init, ops)?;
        }
    }

    #[test]
    fn heap_stays_proportional_to_endpoints_under_loss() {
        // Seven hosts send four flows each into host 0 through an 8-packet
        // DropTail port, so the port overflows and RTOs fire. Every ACK
        // re-arms a sender's RTO later, which must not grow the heap (pushing
        // on every re-arm peaks at hundreds of entries per sending host).
        let topo = Topology::TwoTier(ClusterSpec {
            racks: 1,
            hosts_per_rack: 8,
            host_link: LinkSpec::gbps(1, 20),
            uplink: LinkSpec::gbps(10, 20),
            switch_qdisc: QdiscSpec::DropTail {
                capacity_packets: 8,
            },
            host_buffer_packets: 200,
            seed: 5,
        });
        let flows = (1..8u32)
            .flat_map(|h| {
                (0..4u64).map(move |i| {
                    (
                        SimTime::from_micros(u64::from(h) * 3 + i * 50),
                        NodeId(h),
                        NodeId(0),
                        500_000 + u64::from(h) * 7_000,
                        TcpConfig::default(),
                    )
                })
            })
            .collect();
        let mut sim = Simulation::new(Network::from_topology(topo), StaticFlows::new(flows));
        assert!(sim.run().app_done);
        assert!(sim.net.sender_stats_total().timeouts > 0, "no RTO fired");
        for (h, (peak, endpoints)) in sim.net.deadline_heap_peaks().into_iter().enumerate() {
            assert!(
                peak <= 4 * endpoints,
                "host {h}: heap peaked at {peak} entries for {endpoints} endpoints"
            );
        }
    }
}
