#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate that replaces NS-2's event scheduler in the
//! CLUSTER 2017 ECN/Hadoop reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so every
//!   run is exactly reproducible (no floating-point drift in the clock).
//! * [`EventQueue`] — a binary-heap priority queue whose same-instant order
//!   is fixed by the [`TieBreak`] key, which is required for deterministic
//!   packet ordering. The one queue backend: every event loop (serial and
//!   sharded) runs on it.
//! * [`TimerHandle`] cancellation (O(1) lazy deletion) on [`EventQueue`] and
//!   [`QueueBackend`]. No simulator loop cancels: `netsim` drops a
//!   superseded host timer when it fires. The methods stay because the
//!   benchmark's instrumented queue wrapper implements them.
//! * [`SimRng`] — seedable RNG plumbing so stochastic components (e.g. RED's
//!   drop probability) are reproducible.
//! * [`TieBreak`] — the one same-instant ordering contract: a seeded rank
//!   across destination entities, `(source, schedule order)` within one.
//!   Every run uses its default seed, so the serial loop and the sharded
//!   engine order ties alike; `simverify` re-runs pinned scenarios under
//!   other seeds to prove no result depends on the cross-entity order.
//!
//! # Example
//!
//! ```
//! use simevent::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_micros(5), "second");
//! q.schedule(SimTime::from_micros(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_micros(1));
//! ```

mod handle;
mod queue;
mod rng;
mod tiebreak;
mod time;

pub use handle::TimerHandle;
pub use queue::{EventQueue, QueueBackend, ScheduledEvent};
pub use rng::SimRng;
pub use tiebreak::{pack_lane, TieBreak};
pub use time::{SimDuration, SimTime};

/// Another name for [`EventQueue`]. It exists only because
/// `perfbench/src/main.rs` names it; new code should name [`EventQueue`].
pub type HybridQueue<E> = EventQueue<E>;

// The experiments crate's sweep orchestrator moves whole simulations across
// worker threads, so the kernel types must stay `Send` (no `Rc`, no thread
// affinity). These compile-time assertions turn an accidental `Rc`/`RefCell`
// regression into a build error here instead of a confusing trait-bound
// failure three crates up.
#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn kernel_types_are_send() {
        assert_send::<EventQueue<u64>>();
        assert_send::<TimerHandle>();
        assert_send::<SimRng>();
        assert_sync::<SimTime>();
        assert_sync::<SimDuration>();
    }
}
