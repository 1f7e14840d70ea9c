//! Conservative parallel discrete-event harness.
//!
//! One simulation, many worker threads: the model is partitioned into
//! *shards*, each owning a disjoint slice of simulation state and a local
//! event queue. Execution alternates between
//!
//! * **epoch windows** `[T, end)`: every shard processes its own events with
//!   `t < end` in parallel, buffering cross-shard emissions in an outbox, and
//! * **barriers**: the coordinator collects every outbox and routes the
//!   messages through the deterministic [`CrewHandle::route`] exchange.
//!
//! The window end is chosen by the *coordinator* (the caller of
//! [`run_crew`]) under the conservative-lookahead contract: a message emitted
//! from an event at `t >= T` must arrive at `t + lookahead >= end`, so no
//! shard can receive a message in the past. With the minimum link propagation
//! delay as the lookahead, every window is causally closed and the barrier
//! exchange is the only cross-shard communication — which is what makes the
//! run reproducible and lets a lint (`simlint` SL013) ban every other kind of
//! inter-worker traffic.
//!
//! # Determinism
//!
//! The exchange pins the merge order: each destination shard receives its
//! inbound messages sorted by `(at, key)` with ties broken by origin shard
//! and emission order. When `key` encodes `(destination entity, source
//! entity)` — `simevent::pack_lane` — one destination's same-instant inbox
//! keeps a canonical per-source order no matter how many shards produced it
//! or how their windows interleaved in wall-clock time. That is exactly the
//! order `simevent::TieBreak` serialises, so a sharded run is
//! byte-identical to the one-shard run and to the serial loop.
//!
//! Workers are *persistent*: one thread per shard, parked on a condvar
//! between windows. Spawning threads per window (rayon-style scoped joins)
//! costs more than a window's worth of simulation at microsecond lookaheads.

use simevent::SimTime;
use std::sync::{Arc, Condvar, Mutex};

/// A cross-shard message: a payload due at `at` on shard `dest`, with the
/// deterministic merge `key` (pack the destination and source entities so
/// same-instant messages at one destination sort canonically by source).
#[derive(Debug, Clone)]
pub struct ShardMsg<M> {
    /// Simulation time the message takes effect at the destination.
    pub at: SimTime,
    /// Destination shard index.
    pub dest: u32,
    /// Merge key; same-instant messages to one shard are delivered in
    /// ascending `key` order (ties: origin shard, then emission order).
    pub key: u64,
    /// The payload (for a network engine: the packet and its target device).
    pub payload: M,
}

/// One shard of a conservatively parallel simulation.
///
/// The harness only ever drives a worker between barriers or inside its own
/// window, so implementations need no internal synchronisation — all shared
/// state crosses shards as [`ShardMsg`]s through [`CrewHandle::route`].
pub trait EpochWorker: Send {
    /// Cross-shard message payload.
    type Msg: Send;

    /// Earliest pending local event, if any. The coordinator takes the
    /// minimum over all shards when choosing the next window.
    fn next_time(&self) -> Option<SimTime>;

    /// Process every local event with `t < end` (exclusive), buffering
    /// cross-shard emissions in the worker's outbox. Events generated during
    /// the window that land locally before `end` must be processed in the
    /// same window.
    fn run_window(&mut self, end: SimTime);

    /// Remove and return the buffered cross-shard emissions, in emission
    /// order.
    fn take_outbox(&mut self) -> Vec<ShardMsg<Self::Msg>>;

    /// Deliver messages routed to this shard. The harness pre-sorts them by
    /// `(at, key, origin, emission order)`; the worker schedules them in the
    /// given order.
    fn inject(&mut self, msgs: Vec<ShardMsg<Self::Msg>>);
}

enum Cmd {
    Idle,
    Run(SimTime),
    Exit,
}

struct SlotInner<W> {
    worker: W,
    cmd: Cmd,
}

/// One worker's mailbox. The worker thread holds the lock for the entire
/// window it is running, so "lock the slot" and "the shard is quiescent"
/// coincide; the coordinator only locks between windows.
struct Slot<W> {
    inner: Mutex<SlotInner<W>>,
    cv: Condvar,
}

enum Lanes<W> {
    /// Single shard: run inline on the coordinator thread. No threads, no
    /// barriers — this is the `shards=1` arm the speedup gate measures
    /// against, and it must not pay synchronisation costs it does not need.
    Inline(Vec<W>),
    Threaded(Vec<Arc<Slot<W>>>),
}

/// Coordinator-side handle over the worker crew, passed to the closure of
/// [`run_crew`]. All cross-shard communication flows through
/// [`CrewHandle::route`]; everything else is per-shard access between
/// barriers.
pub struct CrewHandle<W: EpochWorker> {
    lanes: Lanes<W>,
    /// Scratch inboxes reused across exchanges, one per shard.
    inboxes: Vec<Vec<ShardMsg<W::Msg>>>,
}

impl<W: EpochWorker> CrewHandle<W> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        match &self.lanes {
            Lanes::Inline(ws) => ws.len(),
            Lanes::Threaded(slots) => slots.len(),
        }
    }

    /// Run one window on every shard (in parallel when threaded), wait for
    /// all of them, then exchange the buffered cross-shard messages.
    pub fn step(&mut self, end: SimTime) {
        match &mut self.lanes {
            Lanes::Inline(ws) => {
                for w in ws.iter_mut() {
                    w.run_window(end);
                }
            }
            Lanes::Threaded(slots) => {
                for slot in slots.iter() {
                    let mut g = slot.inner.lock().expect("shard worker panicked");
                    g.cmd = Cmd::Run(end);
                    drop(g);
                    slot.cv.notify_all();
                }
                for slot in slots.iter() {
                    let mut g = slot.inner.lock().expect("shard worker panicked");
                    while matches!(g.cmd, Cmd::Run(_)) {
                        g = slot.cv.wait(g).expect("shard worker panicked");
                    }
                }
            }
        }
        let mut all = Vec::new();
        let n = self.num_shards();
        for s in 0..n {
            let mut msgs = self.with_worker(s, |w| w.take_outbox());
            all.append(&mut msgs);
        }
        self.route(all);
    }

    /// The blessed cross-shard exchange: group `msgs` by destination shard,
    /// sort each inbox by `(at, key)` — the sort is stable, so ties keep the
    /// (origin shard, emission order) of `msgs` — and deliver via
    /// [`EpochWorker::inject`].
    ///
    /// Callers must pass messages in deterministic order (ascending origin
    /// shard, emission order within a shard); [`CrewHandle::step`] does.
    pub fn route(&mut self, msgs: Vec<ShardMsg<W::Msg>>) {
        if msgs.is_empty() {
            return;
        }
        let n = self.num_shards();
        for m in msgs {
            let d = m.dest as usize;
            assert!(d < n, "message routed to unknown shard {d}");
            self.inboxes[d].push(m);
        }
        for s in 0..n {
            if self.inboxes[s].is_empty() {
                continue;
            }
            let mut inbox = std::mem::take(&mut self.inboxes[s]);
            inbox.sort_by_key(|a| (a.at, a.key));
            self.with_worker(s, |w| w.inject(inbox));
        }
    }

    /// Exclusive access to one quiescent shard (between windows). This is how
    /// the coordinator runs serial phases — application callbacks, flow
    /// installation, the same-instant mini-loop — against shard state.
    pub fn with_worker<T>(&mut self, shard: usize, f: impl FnOnce(&mut W) -> T) -> T {
        match &mut self.lanes {
            Lanes::Inline(ws) => f(&mut ws[shard]),
            Lanes::Threaded(slots) => {
                let mut g = slots[shard].inner.lock().expect("shard worker panicked");
                debug_assert!(matches!(g.cmd, Cmd::Idle), "worker accessed mid-window");
                f(&mut g.worker)
            }
        }
    }

    /// Visit every shard in ascending index order.
    pub fn for_each_worker(&mut self, mut f: impl FnMut(usize, &mut W)) {
        for s in 0..self.num_shards() {
            self.with_worker(s, |w| f(s, w));
        }
    }

    /// Minimum pending local event time across all shards.
    pub fn min_next_time(&mut self) -> Option<SimTime> {
        let mut min = None;
        self.for_each_worker(|_, w| {
            min = match (min, w.next_time()) {
                (Some(a), Some(b)) => Some(SimTime::min(a, b)),
                (a, b) => a.or(b),
            };
        });
        min
    }
}

/// Spawn one persistent thread per worker (none for a single shard), hand the
/// coordinator closure a [`CrewHandle`], and tear the crew down when it
/// returns. The workers are returned in shard order so the caller can merge
/// per-shard state (metrics, traces) back into the serial world.
pub fn run_crew<W: EpochWorker, R>(
    workers: Vec<W>,
    f: impl FnOnce(&mut CrewHandle<W>) -> R,
) -> (Vec<W>, R) {
    let n = workers.len();
    assert!(n >= 1, "a crew needs at least one worker");
    let inboxes = (0..n).map(|_| Vec::new()).collect();
    if n == 1 {
        let mut handle = CrewHandle {
            lanes: Lanes::Inline(workers),
            inboxes,
        };
        let r = f(&mut handle);
        let Lanes::Inline(ws) = handle.lanes else {
            unreachable!()
        };
        return (ws, r);
    }

    let slots: Vec<Arc<Slot<W>>> = workers
        .into_iter()
        .map(|worker| {
            Arc::new(Slot {
                inner: Mutex::new(SlotInner {
                    worker,
                    cmd: Cmd::Idle,
                }),
                cv: Condvar::new(),
            })
        })
        .collect();

    std::thread::scope(|scope| {
        for (i, slot) in slots.iter().enumerate() {
            let slot = Arc::clone(slot);
            std::thread::Builder::new()
                .name(format!("simshard-{i}"))
                .spawn_scoped(scope, move || {
                    let mut g = slot.inner.lock().expect("coordinator panicked");
                    loop {
                        match g.cmd {
                            Cmd::Idle => {
                                g = slot.cv.wait(g).expect("coordinator panicked");
                            }
                            Cmd::Run(end) => {
                                // The lock is held for the whole window: a
                                // quiescent shard and an unlocked slot are
                                // the same thing.
                                g.worker.run_window(end);
                                g.cmd = Cmd::Idle;
                                slot.cv.notify_all();
                            }
                            Cmd::Exit => break,
                        }
                    }
                })
                .expect("spawn shard worker");
        }

        let mut handle = CrewHandle {
            lanes: Lanes::Threaded(slots),
            inboxes,
        };
        let r = f(&mut handle);

        let Lanes::Threaded(slots) = handle.lanes else {
            unreachable!()
        };
        for slot in &slots {
            let mut g = slot.inner.lock().expect("shard worker panicked");
            g.cmd = Cmd::Exit;
            drop(g);
            slot.cv.notify_all();
        }
        // scope joins the worker threads here.
        (unwrap_slots(slots), r)
    })
}

fn unwrap_slots<W>(slots: Vec<Arc<Slot<W>>>) -> Vec<W> {
    slots
        .into_iter()
        .map(|slot| {
            // All worker threads have exited (or are exiting; spin the Arc
            // down). scope() joining before run_crew returns guarantees the
            // refcount drops to 1.
            let mut slot = Some(slot);
            loop {
                match Arc::try_unwrap(slot.take().expect("slot taken twice")) {
                    Ok(s) => {
                        return s
                            .inner
                            .into_inner()
                            .unwrap_or_else(|e| e.into_inner())
                            .worker
                    }
                    Err(arc) => {
                        slot = Some(arc);
                        std::thread::yield_now();
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simevent::SimDuration;
    use std::collections::BTreeMap;

    /// Toy model: each shard owns `ids` counters. Local events are
    /// `(time, key, value)`; processing an event folds the value into the
    /// owner's hash chain (order-sensitive on purpose) and, while `value`
    /// is non-zero, emits a follow-up to counter `value % n_counters` one
    /// lookahead later with `value - 1`. The digest over all counters must be
    /// invariant across shard counts because each counter's inbound sequence
    /// is `(at, key)`-sorted by the exchange.
    struct Toy {
        shard: u32,
        n_shards: u32,
        n_counters: u64,
        lookahead: SimDuration,
        /// (time, key) -> value; key packs (dest counter << 16 | src counter).
        queue: BTreeMap<(SimTime, u64), u64>,
        chains: BTreeMap<u64, u64>,
        outbox: Vec<ShardMsg<(u64, u64)>>,
    }

    fn owner(counter: u64, n_shards: u32, n_counters: u64) -> u32 {
        ((counter * n_shards as u64) / n_counters) as u32
    }

    impl Toy {
        fn process(&mut self, at: SimTime, key: u64, value: u64) {
            let dest_counter = key >> 16;
            let chain = self.chains.entry(dest_counter).or_insert(0xcbf2_9ce4);
            *chain = chain
                .wrapping_mul(0x0100_0000_01b3)
                .wrapping_add(at.as_nanos())
                .wrapping_add(key)
                .wrapping_add(value);
            if value == 0 {
                return;
            }
            let next = (value * 7 + 3) % self.n_counters;
            let nkey = (next << 16) | dest_counter;
            let nat = at + self.lookahead;
            let nowner = owner(next, self.n_shards, self.n_counters);
            if nowner == self.shard {
                self.queue.insert((nat, nkey), value - 1);
            } else {
                self.outbox.push(ShardMsg {
                    at: nat,
                    dest: nowner,
                    key: nkey,
                    payload: (nkey, value - 1),
                });
            }
        }
    }

    impl EpochWorker for Toy {
        type Msg = (u64, u64);

        fn next_time(&self) -> Option<SimTime> {
            self.queue.keys().next().map(|&(t, _)| t)
        }

        fn run_window(&mut self, end: SimTime) {
            while let Some((&(t, key), _)) = self.queue.iter().next() {
                if t >= end {
                    break;
                }
                let value = self.queue.remove(&(t, key)).unwrap();
                self.process(t, key, value);
            }
        }

        fn take_outbox(&mut self) -> Vec<ShardMsg<(u64, u64)>> {
            std::mem::take(&mut self.outbox)
        }

        fn inject(&mut self, msgs: Vec<ShardMsg<(u64, u64)>>) {
            for m in msgs {
                let (key, value) = m.payload;
                self.queue.insert((m.at, key), value);
            }
        }
    }

    fn run_toy(n_shards: u32) -> BTreeMap<u64, u64> {
        const COUNTERS: u64 = 16;
        let lookahead = SimDuration::from_micros(5);
        let mut workers: Vec<Toy> = (0..n_shards)
            .map(|s| Toy {
                shard: s,
                n_shards,
                n_counters: COUNTERS,
                lookahead,
                queue: BTreeMap::new(),
                chains: BTreeMap::new(),
                outbox: Vec::new(),
            })
            .collect();
        // Seed every counter with a burst at t=0 (distinct keys).
        for c in 0..COUNTERS {
            let s = owner(c, n_shards, COUNTERS) as usize;
            workers[s].queue.insert((SimTime::ZERO, c << 16), 40 + c);
        }
        let (workers, ()) = run_crew(workers, |crew| {
            while let Some(t) = crew.min_next_time() {
                crew.step(t + lookahead);
            }
        });
        let mut merged = BTreeMap::new();
        for w in workers {
            for (c, chain) in w.chains {
                // Counters are owned: no key collisions across shards.
                assert!(merged.insert(c, chain).is_none());
            }
        }
        merged
    }

    #[test]
    fn toy_model_is_shard_count_invariant() {
        let one = run_toy(1);
        assert!(!one.is_empty());
        for n in [2, 3, 4] {
            assert_eq!(run_toy(n), one, "digest diverged at {n} shards");
        }
    }

    #[test]
    fn route_sorts_by_at_then_key_stable() {
        struct Rec {
            got: Vec<(SimTime, u64, u64)>,
        }
        impl EpochWorker for Rec {
            type Msg = u64;
            fn next_time(&self) -> Option<SimTime> {
                None
            }
            fn run_window(&mut self, _end: SimTime) {}
            fn take_outbox(&mut self) -> Vec<ShardMsg<u64>> {
                Vec::new()
            }
            fn inject(&mut self, msgs: Vec<ShardMsg<u64>>) {
                self.got
                    .extend(msgs.into_iter().map(|m| (m.at, m.key, m.payload)));
            }
        }
        let t = SimTime::from_micros;
        let msg = |at: SimTime, key: u64, payload: u64| ShardMsg {
            at,
            dest: 0,
            key,
            payload,
        };
        let (workers, ()) = run_crew(vec![Rec { got: Vec::new() }], |crew| {
            crew.route(vec![
                msg(t(2), 5, 0),
                msg(t(1), 9, 1),
                msg(t(1), 2, 2),
                msg(t(1), 2, 3), // tie with previous: emission order wins
                msg(t(2), 1, 4),
            ]);
        });
        assert_eq!(
            workers[0].got,
            vec![
                (t(1), 2, 2),
                (t(1), 2, 3),
                (t(1), 9, 1),
                (t(2), 1, 4),
                (t(2), 5, 0),
            ]
        );
    }

    #[test]
    fn threaded_crew_runs_windows_and_exchanges() {
        // 4 shards forces the threaded lanes; the invariance test above
        // already compares its digest against the inline single-shard run.
        let digest = run_toy(4);
        assert_eq!(digest.len(), 16);
    }
}
