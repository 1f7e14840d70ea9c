//! The event loop and the application hook.

use crate::network::{dev_lane, DevRef, Event, Network, APP_LANE, SAMPLE_LANE};
use netpacket::{FlowId, NodeId};
use simevent::{EventQueue, QueueBackend, SimTime, TieBreak};
use tcpstack::TcpConfig;

/// A workload driving the network: starts flows, reacts to completions, and
/// decides when the simulation is over. `mrsim`'s Terasort job implements
/// this; tests use [`StaticFlows`].
pub trait Application {
    /// Called once at t=0 before any event is processed.
    fn on_start(&mut self, net: &mut Network, now: SimTime);
    /// Called when a flow's final byte is acknowledged.
    fn on_flow_complete(&mut self, flow: FlowId, net: &mut Network, now: SimTime);
    /// Called for every [`Event::AppTimer`] the application scheduled via
    /// [`Network::schedule_app_timer`].
    fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime);
    /// Checked after every event; returning `true` ends the run.
    fn done(&self, net: &Network) -> bool;
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: the simulation reached a natural quiescent end.
    Drained,
    /// The next event lay past the simulated-time limit.
    TimeLimit,
    /// The application reported it was done.
    Stopped,
}

/// Outcome of a full simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Events processed.
    pub events: u64,
    /// Simulated end time (last processed event).
    pub end_time: SimTime,
    /// Flows completed during the run.
    pub flows_completed: usize,
    /// Whether the application reported success (all work done).
    pub app_done: bool,
    /// High-water mark of pending events in the event queue.
    pub peak_pending: usize,
}

/// Couples a [`Network`] with an [`Application`] and runs them to completion.
#[derive(Debug)]
pub struct Simulation<A: Application> {
    /// The simulated cluster.
    pub net: Network,
    /// The workload.
    pub app: A,
    /// Hard wall on simulated time.
    pub time_limit: SimTime,
    /// Same-instant event ordering, shared by [`Simulation::run`] and
    /// [`Simulation::run_sharded`]. Every run uses [`TieBreak::default`];
    /// `simverify` sets other seeds to prove results are independent of
    /// the cross-entity order of same-timestamp events.
    pub tie_break: TieBreak,
}

/// The destination lane of an event: its *handling* entity — the shard that
/// would own it. A host's timers share its device lane (one shard owns
/// both); the application and the metrics sampler each get a reserved lane.
#[inline]
pub(crate) fn event_dest_lane(ev: &Event) -> u16 {
    match ev {
        Event::Arrive { dev, .. } | Event::PortFree { dev, .. } => dev_lane(*dev),
        Event::HostTimers { host } => dev_lane(DevRef::Host(*host)),
        Event::AppTimer { .. } => APP_LANE,
        Event::Sample => SAMPLE_LANE,
    }
}

/// Pack an event's (destination, producer) pair into the tie-break lane.
///
/// [`TieBreak`] orders same-instant events by
/// (seeded destination rank, source, FIFO): cross-destination order is
/// permuted — the freedom a sharded engine has — while one destination's
/// same-instant inbox keeps a *canonical* per-source order, independent of
/// the upstream execution interleaving. That is exactly the deterministic
/// per-channel merge a sharded engine performs, and it is what makes the
/// permutation check a sound conformance oracle: without the source key, a
/// permuted upstream order at time `t` would leak into the seq order of
/// same-destination arrivals at `t + delay` and diverge on queue physics.
#[inline]
pub(crate) fn event_tie_lane(src: u16, ev: &Event) -> u64 {
    simevent::pack_lane(event_dest_lane(ev), src)
}

impl<A: Application> Simulation<A> {
    /// Build a simulation with a default 1-hour simulated-time wall.
    pub fn new(net: Network, app: A) -> Self {
        Simulation {
            net,
            app,
            time_limit: SimTime::from_secs(3600),
            tie_break: TieBreak::default(),
        }
    }

    /// Run until the application is done, the event queue drains, or the
    /// time limit is hit.
    ///
    /// The serial event loop, for the fast and the reference-mode network
    /// ([`Network::set_reference_mode`]) alike. It cancels nothing: a
    /// superseded `HostTimers` event is dispatched like any other and the
    /// network drops it. Runs on the binary-heap [`EventQueue`]; see
    /// [`Simulation::run_with_backend`] to wrap it.
    pub fn run(&mut self) -> RunReport {
        self.run_with_backend::<EventQueue<Event>>()
    }

    /// Run on an explicit scheduler backend, such as a wrapper around
    /// [`EventQueue`] that instruments every call. Any backend that pops in
    /// the same `(time, tie)` order yields an identical report.
    pub fn run_with_backend<Q: QueueBackend<Event>>(&mut self) -> RunReport {
        let mut queue = Q::with_tie_break(self.tie_break);
        let limit = self.time_limit;
        let net = &mut self.net;
        let app = &mut self.app;

        // Reused pending-event buffer: the per-event drain swaps it with the
        // network's (empty) buffer instead of allocating a fresh Vec.
        let mut inbox: Vec<(SimTime, u16, Event)> = Vec::new();

        fn drain(
            queue: &mut impl QueueBackend<Event>,
            inbox: &mut Vec<(SimTime, u16, Event)>,
            net: &mut Network,
            now: SimTime,
        ) {
            net.swap_pending(inbox);
            for (t, src, e) in inbox.drain(..) {
                let lane = event_tie_lane(src, &e);
                queue.schedule_in_lane(t.max(now), lane, e);
            }
        }

        app.on_start(net, SimTime::ZERO);
        drain(&mut queue, &mut inbox, net, SimTime::ZERO);
        let mut peak_pending = queue.len();
        let mut events = 0u64;
        let mut end_time = SimTime::ZERO;
        let outcome = if app.done(net) {
            RunOutcome::Stopped
        } else {
            loop {
                let Some((now, ev)) = queue.pop() else {
                    break RunOutcome::Drained;
                };
                if now > limit {
                    // Nothing past the horizon runs; the run ends at it.
                    end_time = limit;
                    break RunOutcome::TimeLimit;
                }
                events += 1;
                end_time = now;
                match ev {
                    Event::AppTimer { token } => app.on_timer(token, net, now),
                    other => net.handle(other, now),
                }
                for f in net.take_completed() {
                    app.on_flow_complete(f, net, now);
                }
                drain(&mut queue, &mut inbox, net, now);
                peak_pending = peak_pending.max(queue.len());
                if app.done(net) {
                    break RunOutcome::Stopped;
                }
            }
        };

        RunReport {
            outcome,
            events,
            end_time,
            flows_completed: net.completed_flows(),
            app_done: app.done(net),
            peak_pending,
        }
    }
}

/// The simplest application: a fixed list of flows, each started at a given
/// time; done when every one has completed.
#[derive(Debug, Clone)]
pub struct StaticFlows {
    flows: Vec<(SimTime, NodeId, NodeId, u64, TcpConfig)>,
    started: usize,
}

impl StaticFlows {
    /// Flows as `(start_time, src, dst, bytes, config)`.
    pub fn new(flows: Vec<(SimTime, NodeId, NodeId, u64, TcpConfig)>) -> Self {
        StaticFlows { flows, started: 0 }
    }

    /// All flows start at t=0 with a shared config.
    pub fn all_at_zero(pairs: Vec<(NodeId, NodeId, u64)>, cfg: TcpConfig) -> Self {
        Self::new(
            pairs
                .into_iter()
                .map(|(s, d, b)| (SimTime::ZERO, s, d, b, cfg.clone()))
                .collect(),
        )
    }
}

impl Application for StaticFlows {
    fn on_start(&mut self, net: &mut Network, now: SimTime) {
        for (i, (at, src, dst, bytes, cfg)) in self.flows.iter().enumerate() {
            if *at <= now {
                net.add_flow(*src, *dst, *bytes, cfg.clone(), now);
                self.started += 1;
            } else {
                net.schedule_app_timer(*at, i as u64);
            }
        }
    }

    fn on_flow_complete(&mut self, _flow: FlowId, _net: &mut Network, _now: SimTime) {}

    fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime) {
        let (_, src, dst, bytes, cfg) = &self.flows[token as usize];
        net.add_flow(*src, *dst, *bytes, cfg.clone(), now);
        self.started += 1;
    }

    fn done(&self, net: &Network) -> bool {
        self.started == self.flows.len() && net.all_flows_complete()
    }
}
