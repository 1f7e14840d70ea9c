//! Spans recorded from the benchmark's own code, around the public seams of
//! the simulator: a scheduler backend wrapper passed to
//! `Simulation::run_with_backend`, and an `Application` wrapper. Nothing
//! inside the program is instrumented.
//!
//! The tracer keeps one clock chain per thread. Every span boundary reads
//! the clock once and charges the time since the previous boundary to the
//! layer that was running, so the layers' raw self times partition the
//! traced loop exactly. When the scheduler pops an event, the time until
//! the next boundary is charged to the layer that handles that event kind.
//!
//! Each boundary costs a read of a cheap tick counter. [`calibrate`]
//! measures what one empty span adds to the span's own layer and to the
//! layer it interrupts, back to back; [`Calibration::in_situ`] scales that
//! down to what a span cost inside the simulation, where the counter reads
//! overlap the simulation's own work; [`Snapshot::net_ns`] subtracts the
//! costs from every self time.

use netpacket::FlowId;
use netsim::{Application, DevRef, Event, Network};
use simevent::{QueueBackend, SimTime, TieBreak, TimerHandle};
use std::cell::RefCell;

/// Where the time of a traced simulation goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The event loop's own glue, application timer dispatch and queue
    /// sampling (netsim).
    Loop,
    /// Scheduler backend operations (simevent).
    SimEvent,
    /// `Event::Arrive` at a switch: forwarding, qdisc, link (netsim).
    SwitchArrive,
    /// `Event::PortFree`: the next dequeue on a busy port (netsim).
    PortFree,
    /// `Event::Arrive` at a host: the TCP endpoints (tcpstack).
    HostArrive,
    /// `Event::HostTimers`: retransmission and delayed-ACK timers (tcpstack).
    HostTimers,
    /// Application callbacks: `on_start`, `on_flow_complete`, `on_timer`,
    /// `done` (mrsim for Terasort).
    App,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 7;

impl Layer {
    fn of(ev: &Event) -> Layer {
        match ev {
            Event::Arrive {
                dev: DevRef::Switch(_),
                ..
            } => Layer::SwitchArrive,
            Event::Arrive {
                dev: DevRef::Host(_),
                ..
            } => Layer::HostArrive,
            Event::PortFree { .. } => Layer::PortFree,
            Event::HostTimers { .. } => Layer::HostTimers,
            Event::AppTimer { .. } | Event::Sample => Layer::Loop,
        }
    }
}

/// What one traced stretch recorded.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Raw self time per layer, nanoseconds (sums to the traced wall time).
    pub self_ns: [f64; LAYERS],
    /// Spans opened per layer.
    pub spans: [u64; LAYERS],
    /// Child spans opened while each layer was running.
    pub opened_under: [u64; LAYERS],
    /// Events popped per handling layer.
    pub events: [u64; LAYERS],
    /// Backend schedule calls (cancellable or not).
    pub schedules: u64,
    /// Backend cancel calls.
    pub cancels: u64,
    /// Backend pop calls.
    pub pops: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::ZERO
    }
}

impl Snapshot {
    const ZERO: Snapshot = Snapshot {
        self_ns: [0.0; LAYERS],
        spans: [0; LAYERS],
        opened_under: [0; LAYERS],
        events: [0; LAYERS],
        schedules: 0,
        cancels: 0,
        pops: 0,
    };

    /// Fold another stretch into this one.
    pub fn add(&mut self, o: &Snapshot) {
        for i in 0..LAYERS {
            self.self_ns[i] += o.self_ns[i];
            self.spans[i] += o.spans[i];
            self.opened_under[i] += o.opened_under[i];
            self.events[i] += o.events[i];
        }
        self.schedules += o.schedules;
        self.cancels += o.cancels;
        self.pops += o.pops;
    }

    /// Self time of `layer` net of the calibrated span costs, clamped at 0.
    pub fn net_ns(&self, layer: Layer, cal: &Calibration) -> f64 {
        let i = layer as usize;
        let cost =
            self.spans[i] as f64 * cal.child_ns + self.opened_under[i] as f64 * cal.parent_ns;
        (self.self_ns[i] - cost).max(0.0)
    }

    /// Raw traced wall time, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.self_ns.iter().sum()
    }

    /// All spans opened.
    pub fn total_spans(&self) -> u64 {
        self.spans.iter().sum()
    }
}

/// A cheap monotonic tick counter: the time-stamp counter on x86-64 (about
/// 20 ns a read on a virtual machine, against about 45 ns for
/// `Instant::now`), nanoseconds since a fixed instant elsewhere.
mod clock {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn ticks() -> u64 {
        // SAFETY: RDTSC has no preconditions on x86-64; it only reads the
        // processor's time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    pub fn ticks() -> u64 {
        static BASE: OnceLock<Instant> = OnceLock::new();
        BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Nanoseconds per tick, measured once against `Instant` over 50 ms.
    pub fn ns_per_tick() -> f64 {
        static SCALE: OnceLock<f64> = OnceLock::new();
        *SCALE.get_or_init(|| {
            let (t0, c0) = (Instant::now(), ticks());
            while t0.elapsed() < Duration::from_millis(50) {}
            let (t1, c1) = (Instant::now(), ticks());
            (t1 - t0).as_nanos() as f64 / c1.wrapping_sub(c0).max(1) as f64
        })
    }
}

/// Times a block of work on the tracer's tick counter.
pub struct Stopwatch(u64);

impl Stopwatch {
    /// Start timing.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(clock::ticks())
    }

    /// Nanoseconds since [`Stopwatch::start`], the stopwatch's own cost
    /// included (see [`stopwatch_ns`]).
    #[inline]
    pub fn elapsed_ns(&self) -> f64 {
        clock::ticks().wrapping_sub(self.0) as f64 * clock::ns_per_tick()
    }
}

/// What an empty [`Stopwatch`] reads: median of several passes.
pub fn stopwatch_ns() -> f64 {
    const READS: u64 = 100_000;
    let passes: Vec<f64> = (0..7)
        .map(|_| {
            let mut sum = 0.0;
            for _ in 0..READS {
                sum += Stopwatch::start().elapsed_ns();
            }
            sum / READS as f64
        })
        .collect();
    crate::stats::median(&passes)
}

const DEPTH: usize = 8;

struct Tracer {
    on: bool,
    last: u64,
    cur: Layer,
    stack: [Layer; DEPTH],
    depth: usize,
    /// Raw self time per layer, ticks.
    ticks: [u64; LAYERS],
    snap: Snapshot,
}

impl Tracer {
    #[inline]
    fn charge(&mut self) {
        let t = clock::ticks();
        self.ticks[self.cur as usize] += t.wrapping_sub(self.last);
        self.last = t;
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            on: false,
            last: 0,
            cur: Layer::Loop,
            stack: [Layer::Loop; DEPTH],
            depth: 0,
            ticks: [0; LAYERS],
            snap: Snapshot::ZERO,
        })
    };
}

/// Start a traced stretch on this thread, charging to [`Layer::Loop`].
pub fn start() {
    clock::ns_per_tick();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.snap = Snapshot::ZERO;
        t.ticks = [0; LAYERS];
        t.depth = 0;
        t.cur = Layer::Loop;
        t.on = true;
        t.last = clock::ticks();
    });
}

/// End the traced stretch and return what it recorded.
pub fn stop() -> Snapshot {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.charge();
        t.on = false;
        let scale = clock::ns_per_tick();
        let mut snap = std::mem::replace(&mut t.snap, Snapshot::ZERO);
        for (ns, ticks) in snap.self_ns.iter_mut().zip(t.ticks) {
            *ns = ticks as f64 * scale;
        }
        snap
    })
}

/// A scheduler operation, counted when its span opens.
#[derive(Clone, Copy)]
enum Op {
    None,
    Schedule,
    Cancel,
    Pop,
}

#[inline]
fn enter(layer: Layer, op: Op) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        t.charge();
        match op {
            Op::None => {}
            Op::Schedule => t.snap.schedules += 1,
            Op::Cancel => t.snap.cancels += 1,
            Op::Pop => t.snap.pops += 1,
        }
        let cur = t.cur;
        t.snap.opened_under[cur as usize] += 1;
        t.snap.spans[layer as usize] += 1;
        let d = t.depth;
        t.stack[d] = cur;
        t.depth = d + 1;
        t.cur = layer;
    });
}

/// Close the innermost span. With `next`, the layer below it becomes
/// `next` instead of resuming (a popped event's handler).
#[inline]
fn exit(next: Option<Layer>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        t.charge();
        t.depth -= 1;
        let below = t.stack[t.depth];
        t.cur = match next {
            Some(l) => {
                t.snap.events[l as usize] += 1;
                l
            }
            None => below,
        };
    });
}

/// The cost one empty span adds to the traced times.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Charged to the span's own layer.
    pub child_ns: f64,
    /// Charged to the layer the span interrupts.
    pub parent_ns: f64,
}

impl Calibration {
    /// Whole cost of one span.
    pub fn span_ns(&self) -> f64 {
        self.child_ns + self.parent_ns
    }

    /// The per-span cost a traced stretch actually paid: its wall time
    /// above the untraced run's, over its spans, at most this empty-span
    /// cost and at least 0, split between child and parent like this one.
    /// Subtracting it never removes more than the measured overhead.
    pub fn in_situ(&self, traced_ns: f64, untraced_ns: f64, spans: u64) -> Calibration {
        let paid = crate::stats::ratio(traced_ns - untraced_ns, spans as f64);
        let f = crate::stats::ratio(paid, self.span_ns()).clamp(0.0, 1.0);
        Calibration {
            child_ns: self.child_ns * f,
            parent_ns: self.parent_ns * f,
        }
    }
}

/// Measure the cost of an empty span: median of several passes of
/// back-to-back empty spans.
pub fn calibrate() -> Calibration {
    const SPANS: u64 = 200_000;
    let mut child = Vec::new();
    let mut parent = Vec::new();
    for _ in 0..7 {
        start();
        for _ in 0..SPANS {
            enter(Layer::SimEvent, Op::Schedule);
            exit(None);
        }
        let s = stop();
        child.push(s.self_ns[Layer::SimEvent as usize] / SPANS as f64);
        parent.push(s.self_ns[Layer::Loop as usize] / SPANS as f64);
    }
    Calibration {
        child_ns: crate::stats::median(&child),
        parent_ns: crate::stats::median(&parent),
    }
}

/// A scheduler backend that records a [`Layer::SimEvent`] span around every
/// operation of the wrapped backend.
#[derive(Debug)]
pub struct TracedQueue<Q>(Q);

impl<Q: QueueBackend<Event>> QueueBackend<Event> for TracedQueue<Q> {
    fn with_tie_break(tie_break: TieBreak) -> Self {
        TracedQueue(Q::with_tie_break(tie_break))
    }

    fn schedule_in_lane(&mut self, at: SimTime, lane: u64, event: Event) {
        enter(Layer::SimEvent, Op::Schedule);
        self.0.schedule_in_lane(at, lane, event);
        exit(None);
    }

    fn schedule_cancellable_in_lane(
        &mut self,
        at: SimTime,
        lane: u64,
        event: Event,
    ) -> TimerHandle {
        enter(Layer::SimEvent, Op::Schedule);
        let h = self.0.schedule_cancellable_in_lane(at, lane, event);
        exit(None);
        h
    }

    fn cancel(&mut self, handle: TimerHandle) -> bool {
        enter(Layer::SimEvent, Op::Cancel);
        let r = self.0.cancel(handle);
        exit(None);
        r
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        enter(Layer::SimEvent, Op::Pop);
        let r = self.0.pop();
        exit(r.as_ref().map(|(_, ev)| Layer::of(ev)));
        r
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.0.peek_time()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.0.scheduled_total()
    }

    fn clear(&mut self) {
        self.0.clear()
    }

    fn shrink_to_fit(&mut self) {
        self.0.shrink_to_fit()
    }
}

/// An application that records a [`Layer::App`] span around every callback
/// of the wrapped one.
#[derive(Debug)]
pub struct TracedApp<A>(pub A);

impl<A: Application> Application for TracedApp<A> {
    fn on_start(&mut self, net: &mut Network, now: SimTime) {
        enter(Layer::App, Op::None);
        self.0.on_start(net, now);
        exit(None);
    }

    fn on_flow_complete(&mut self, flow: FlowId, net: &mut Network, now: SimTime) {
        enter(Layer::App, Op::None);
        self.0.on_flow_complete(flow, net, now);
        exit(None);
    }

    fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime) {
        enter(Layer::App, Op::None);
        self.0.on_timer(token, net, now);
        exit(None);
    }

    fn done(&self, net: &Network) -> bool {
        enter(Layer::App, Op::None);
        let d = self.0.done(net);
        exit(None);
        d
    }
}
