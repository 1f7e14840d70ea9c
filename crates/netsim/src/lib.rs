#![warn(missing_docs)]

//! Packet-level network substrate (the NS-2 replacement).
//!
//! `netsim` glues the other crates into a runnable cluster simulation:
//!
//! * [`LinkSpec`] / `Port` — full-duplex links modelled as two independent
//!   egress ports, each with a serialising transmitter and a pluggable
//!   queue discipline from `ecn-core`;
//! * [`ClusterSpec`] — the two-tier leaf/spine topology the paper's Hadoop
//!   cluster uses: racks of hosts under ToR switches, ToRs under a core
//!   switch, with independently configurable buffer depths and AQMs;
//! * [`Network`] — owns hosts (with their TCP endpoints), switches, routing
//!   and metrics, and handles the four event types of the simulation;
//! * [`Simulation`] / [`Application`] — the event loop plus the hook through
//!   which a workload (e.g. `mrsim`'s Terasort) starts flows and reacts to
//!   their completion.

mod apps;
mod deadline;
mod link;
mod network;
mod shard;
mod sim;
mod topology;

pub use apps::{jain_fairness, LatencyProbes, PairApp};
pub use link::LinkSpec;
pub use network::{DevRef, Event, FlowRecord, Network, PortStatsReport};
pub use sim::{Application, RunReport, Simulation, StaticFlows};
pub use topology::{ClusterSpec, FatTreeSpec, Topology};

// The sweep orchestrator (experiments::simsweep) evaluates independent
// scenario points on a worker pool, which requires entire simulations —
// network, queues (boxed `dyn QueueDiscipline + Send`), TCP endpoints and
// the app — to be movable across threads. Assert it at the source so a
// future `Rc` or raw-pointer shortcut fails to compile here.
#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn simulation_types_are_send() {
        assert_send::<Network>();
        assert_send::<RunReport>();
        assert_send::<Simulation<StaticFlows>>();
    }
}
