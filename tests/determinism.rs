//! Determinism regression: the same seed must yield the same metrics, run to
//! run and per-packet path to per-packet path.
//!
//! The fast-path work (pooled packets, batching, slab lookups) is
//! only admissible because it is bit-for-bit output-preserving; these tests
//! pin that property across every transport × queue combination the paper
//! sweeps.

use ecn_core::ProtectionMode;
use experiments::scenario::{run_scenario_once, BufferDepth, QueueKind, ScenarioConfig, Transport};
use hadoop_ecn::prelude::*;

fn combos() -> Vec<(Transport, QueueKind)> {
    let mut v = vec![(Transport::Tcp, QueueKind::DropTail)];
    for transport in Transport::ECN_TRANSPORTS {
        for queue in [
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::EceBit),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
        ] {
            v.push((transport, queue));
        }
    }
    v
}

/// Terasort twice per transport × queue combo with the same seed: metrics
/// must match exactly (not approximately — these are deterministic integer
/// event orders, so any drift is a bug).
#[test]
fn terasort_repeats_identically_per_combo() {
    let cfg = ScenarioConfig::tiny();
    for (transport, queue) in combos() {
        let delay = simevent::SimDuration::from_micros(500);
        let first = run_scenario_once(&cfg, transport, queue, BufferDepth::Shallow, delay);
        let second = run_scenario_once(&cfg, transport, queue, BufferDepth::Shallow, delay);
        assert_eq!(
            first, second,
            "same-seed repeat diverged for {transport:?} / {queue:?}"
        );
        assert!(
            first.completed,
            "{transport:?} / {queue:?} did not complete"
        );
    }
}

/// The production per-packet path (pooled packets, batched flushes, slab
/// lookups) and the seed algorithms it replaced (a reference-mode network: a
/// Box per packet, full-scan flushes, map lookups) must reach the same
/// outcome on a full Terasort run under the one event loop, `Simulation::run`,
/// processing the same events.
#[test]
fn fast_and_reference_network_agree_on_terasort() {
    let run = |reference: bool| {
        let spec = ClusterSpec {
            racks: 2,
            hosts_per_rack: 3,
            host_link: LinkSpec::gbps(1, 5),
            uplink: LinkSpec::gbps(10, 5),
            switch_qdisc: QdiscSpec::SimpleMarking(SimpleMarkingConfig {
                capacity_packets: 100,
                threshold_packets: 20,
            }),
            host_buffer_packets: 2000,
            seed: 99,
        };
        let n = spec.total_hosts();
        let job = JobSpec::small(600_000, TcpConfig::with_ecn(EcnMode::Dctcp));
        let mut net = Network::new(spec);
        net.set_reference_mode(reference);
        let app = TerasortJob::new(job, n);
        let mut sim = Simulation::new(net, app);
        let report = sim.run();
        (
            report.events,
            report.end_time,
            report.app_done,
            sim.app.result(),
            sim.net.total_bytes_received(),
            sim.net.port_stats().total.marked.total(),
        )
    };
    assert_eq!(run(false), run(true));
}
