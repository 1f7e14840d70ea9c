//! Integration tests of the full network substrate.

use ecn_core::{ProtectionMode, QdiscSpec, RedConfig, SimpleMarkingConfig};
use netpacket::{NodeId, PacketKind};
use netsim::{ClusterSpec, Event, LinkSpec, Network, Simulation, StaticFlows};
use simevent::{SimDuration, SimTime};
use tcpstack::{EcnMode, TcpConfig};

fn droptail_cluster(racks: u32, hosts_per_rack: u32, cap: u64, seed: u64) -> ClusterSpec {
    ClusterSpec {
        racks,
        hosts_per_rack,
        host_link: LinkSpec::gbps(1, 5),
        uplink: LinkSpec::gbps(10, 5),
        switch_qdisc: QdiscSpec::DropTail {
            capacity_packets: cap,
        },
        host_buffer_packets: 2000,
        seed,
    }
}

fn run_flows(
    spec: ClusterSpec,
    pairs: Vec<(NodeId, NodeId, u64)>,
    cfg: TcpConfig,
) -> (netsim::RunReport, Network) {
    let net = Network::new(spec);
    let app = StaticFlows::all_at_zero(pairs, cfg);
    let mut sim = Simulation::new(net, app);
    sim.time_limit = SimTime::from_secs(600);
    let report = sim.run();
    (report, sim.net)
}

#[test]
fn single_flow_same_rack() {
    let (report, net) = run_flows(
        droptail_cluster(1, 4, 100, 1),
        vec![(NodeId(0), NodeId(1), 1_000_000)],
        TcpConfig::default(),
    );
    assert!(report.app_done, "flow must complete: {report:?}");
    assert_eq!(net.total_bytes_received(), 1_000_000);
    assert_eq!(net.orphan_packets(), 0);
    let rec = net.flows().next().unwrap();
    assert!(rec.completed.is_some());
    // Sanity: 1 MB at 1 Gbps is at least 8 ms of wire time.
    assert!(rec.completed.unwrap() >= SimTime::from_millis(8));
}

#[test]
fn single_flow_cross_rack() {
    let (report, net) = run_flows(
        droptail_cluster(2, 2, 100, 1),
        vec![(NodeId(0), NodeId(3), 500_000)],
        TcpConfig::default(),
    );
    assert!(report.app_done);
    assert_eq!(net.total_bytes_received(), 500_000);
    // Cross-rack path: host->ToR0->core->ToR1->host; min latency is
    // 3 hops of 5us propagation plus serialisation.
    assert!(net.latency().min() >= SimDuration::from_micros(15));
}

#[test]
fn flow_throughput_approaches_line_rate() {
    let (_, net) = run_flows(
        droptail_cluster(1, 2, 200, 1),
        vec![(NodeId(0), NodeId(1), 20_000_000)],
        TcpConfig {
            recv_wnd: 4 << 20,
            ..TcpConfig::default()
        },
    );
    let rec = net.flows().next().unwrap();
    let dur = rec.completed.unwrap().since(rec.started);
    let gbps = 20_000_000.0 * 8.0 / dur.as_secs_f64() / 1e9;
    assert!(
        gbps > 0.80,
        "long flow should reach most of 1 Gbps, got {gbps:.3}"
    );
}

#[test]
fn incast_all_to_one_completes() {
    // 7 senders to 1 receiver through one ToR: classic incast. DropTail with
    // a reasonable buffer must survive via retransmissions.
    let pairs: Vec<_> = (1..8).map(|i| (NodeId(i), NodeId(0), 500_000)).collect();
    let (report, net) = run_flows(droptail_cluster(1, 8, 64, 3), pairs, TcpConfig::default());
    assert!(report.app_done, "incast must complete: {report:?}");
    assert_eq!(net.total_bytes_received(), 7 * 500_000);
    // The receiver's ToR down-port must have seen congestion.
    let stats = net.port_stats();
    assert!(
        stats.total.dropped_total() > 0,
        "incast with 64-pkt buffers should drop"
    );
}

#[test]
fn all_to_all_shuffle_completes() {
    let n = 6u32;
    let mut pairs = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d {
                pairs.push((NodeId(s), NodeId(d), 200_000));
            }
        }
    }
    let (report, net) = run_flows(
        droptail_cluster(2, 3, 100, 7),
        pairs.clone(),
        TcpConfig::default(),
    );
    assert!(report.app_done);
    assert_eq!(net.total_bytes_received(), pairs.len() as u64 * 200_000);
    assert_eq!(net.completed_flows(), pairs.len());
}

#[test]
fn deep_buffers_inflate_latency_bufferbloat() {
    // Same workload, shallow vs deep DropTail: deep buffers must show much
    // higher mean packet latency (the Bufferbloat the paper discusses).
    let workload = |cap: u64| {
        let pairs: Vec<_> = (1..6).map(|i| (NodeId(i), NodeId(0), 1_000_000)).collect();
        let (report, net) = run_flows(droptail_cluster(1, 6, cap, 5), pairs, TcpConfig::default());
        assert!(report.app_done);
        net.latency().mean()
    };
    let shallow = workload(50);
    let deep = workload(1000);
    assert!(
        deep.as_nanos() > shallow.as_nanos() * 3,
        "bufferbloat: deep {deep} should dwarf shallow {shallow}"
    );
}

#[test]
fn red_default_mode_early_drops_acks_under_shuffle() {
    // The paper's pathology, observed end to end: an ECN-enabled RED queue in
    // Default mode early-drops pure ACKs during an all-to-all shuffle.
    let red = RedConfig::from_target_delay(
        SimDuration::from_micros(200),
        1_000_000_000,
        1526,
        100,
        ProtectionMode::Default,
    );
    let spec = ClusterSpec {
        switch_qdisc: QdiscSpec::Red(red),
        ..droptail_cluster(1, 6, 100, 11)
    };
    let mut pairs = Vec::new();
    for s in 0..6u32 {
        for d in 0..6u32 {
            if s != d {
                pairs.push((NodeId(s), NodeId(d), 400_000));
            }
        }
    }
    let (report, net) = run_flows(spec, pairs, TcpConfig::with_ecn(EcnMode::Ecn));
    assert!(report.app_done);
    let stats = net.port_stats();
    let ack_early = stats.total.dropped_early.get(PacketKind::PureAck);
    let data_early = stats.total.dropped_early.get(PacketKind::Data);
    assert!(
        ack_early > 0,
        "default RED must early-drop ACKs in a shuffle"
    );
    assert_eq!(
        data_early, 0,
        "ECT data must be marked, never early-dropped"
    );
    assert!(
        stats.total.marked.get(PacketKind::Data) > 0,
        "data must get CE marks"
    );
}

#[test]
fn red_ack_syn_mode_protects_acks_end_to_end() {
    let red = RedConfig::from_target_delay(
        SimDuration::from_micros(200),
        1_000_000_000,
        1526,
        100,
        ProtectionMode::AckSyn,
    );
    let spec = ClusterSpec {
        switch_qdisc: QdiscSpec::Red(red),
        ..droptail_cluster(1, 6, 100, 11)
    };
    let mut pairs = Vec::new();
    for s in 0..6u32 {
        for d in 0..6u32 {
            if s != d {
                pairs.push((NodeId(s), NodeId(d), 400_000));
            }
        }
    }
    let (report, net) = run_flows(spec, pairs, TcpConfig::with_ecn(EcnMode::Ecn));
    assert!(report.app_done);
    let stats = net.port_stats();
    assert_eq!(
        stats.total.dropped_early.get(PacketKind::PureAck),
        0,
        "ack+syn mode must never early-drop ACKs"
    );
    assert_eq!(stats.total.dropped_early.get(PacketKind::Syn), 0);
    assert_eq!(stats.total.dropped_early.get(PacketKind::SynAck), 0);
}

#[test]
fn simple_marking_never_early_drops() {
    let spec = ClusterSpec {
        switch_qdisc: QdiscSpec::SimpleMarking(SimpleMarkingConfig {
            capacity_packets: 100,
            threshold_packets: 17,
        }),
        ..droptail_cluster(1, 6, 100, 13)
    };
    let mut pairs = Vec::new();
    for s in 0..6u32 {
        for d in 0..6u32 {
            if s != d {
                pairs.push((NodeId(s), NodeId(d), 400_000));
            }
        }
    }
    let (report, net) = run_flows(spec, pairs, TcpConfig::with_ecn(EcnMode::Dctcp));
    assert!(report.app_done);
    let stats = net.port_stats();
    assert_eq!(stats.total.dropped_early.total(), 0);
    assert!(
        stats.total.marked.total() > 0,
        "DCTCP traffic should get marked"
    );
}

#[test]
fn queue_trace_records_composition() {
    let spec = droptail_cluster(1, 4, 200, 17);
    let mut net = Network::new(spec);
    // Trace the ToR egress port toward host 0 (switch 0, port 0).
    net.enable_queue_trace(0, 0, SimDuration::from_micros(100), 50_000);
    let pairs: Vec<_> = (1..4).map(|i| (NodeId(i), NodeId(0), 500_000)).collect();
    let app = StaticFlows::all_at_zero(pairs, TcpConfig::default());
    let mut sim = Simulation::new(net, app);
    sim.time_limit = SimTime::from_secs(60);
    let report = sim.run();
    assert!(report.app_done);
    let trace = sim.net.queue_trace().expect("trace enabled");
    assert!(
        trace.peak_packets() > 0,
        "the incast port must queue packets"
    );
    assert!(trace.samples().len() > 10);
    // Composition: the congested direction carries data, so data should
    // dominate its queue (the paper's Fig. 1 shape).
    assert!(
        trace.mean_data_fraction() > 0.5,
        "got {}",
        trace.mean_data_fraction()
    );
}

#[test]
fn staggered_start_times_respected() {
    let net = Network::new(droptail_cluster(1, 3, 100, 19));
    let cfg = TcpConfig::default();
    let app = StaticFlows::new(vec![
        (SimTime::ZERO, NodeId(0), NodeId(1), 10_000, cfg.clone()),
        (
            SimTime::from_millis(50),
            NodeId(1),
            NodeId(2),
            10_000,
            cfg.clone(),
        ),
    ]);
    let mut sim = Simulation::new(net, app);
    let report = sim.run();
    assert!(report.app_done);
    let recs: Vec<_> = sim.net.flows().collect();
    assert_eq!(recs.len(), 2);
    let second = recs.iter().find(|r| r.src == NodeId(1)).unwrap();
    assert_eq!(second.started, SimTime::from_millis(50));
    assert!(second.completed.unwrap() > SimTime::from_millis(50));
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut pairs = Vec::new();
        for s in 0..4u32 {
            for d in 0..4u32 {
                if s != d {
                    pairs.push((NodeId(s), NodeId(d), 300_000));
                }
            }
        }
        let red = RedConfig::from_target_delay(
            SimDuration::from_micros(500),
            1_000_000_000,
            1526,
            100,
            ProtectionMode::EceBit,
        );
        let spec = ClusterSpec {
            switch_qdisc: QdiscSpec::Red(red),
            ..droptail_cluster(2, 2, 100, 99)
        };
        let (report, net) = run_flows(spec, pairs, TcpConfig::with_ecn(EcnMode::Ecn));
        (
            report.events,
            report.end_time,
            net.latency().count(),
            net.latency().mean().as_nanos(),
            net.sender_stats_total(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn plain_tcp_data_is_never_marked() {
    let spec = ClusterSpec {
        switch_qdisc: QdiscSpec::Red(RedConfig::from_target_delay(
            SimDuration::from_micros(200),
            1_000_000_000,
            1526,
            100,
            ProtectionMode::Default,
        )),
        ..droptail_cluster(1, 4, 100, 23)
    };
    let pairs: Vec<_> = (1..4).map(|i| (NodeId(i), NodeId(0), 400_000)).collect();
    let (report, net) = run_flows(spec, pairs, TcpConfig::default()); // ECN off
    assert!(report.app_done);
    let stats = net.port_stats();
    assert_eq!(
        stats.total.marked.total(),
        0,
        "non-ECN traffic cannot be CE-marked"
    );
    // Without ECN, RED signals by dropping data too.
    assert!(stats.total.dropped_early.get(PacketKind::Data) > 0);
}

#[test]
fn latency_probes_alongside_bulk_traffic() {
    use netsim::{LatencyProbes, PairApp};
    let spec = droptail_cluster(1, 4, 100, 41);
    let net = Network::new(spec);
    // Primary: three bulk flows into host 0. Secondary: 20kB probes every 2ms.
    let bulk = StaticFlows::all_at_zero(
        (1..4).map(|i| (NodeId(i), NodeId(0), 800_000)).collect(),
        TcpConfig::default(),
    );
    let probes = LatencyProbes::new(4, 20_000, SimDuration::from_millis(2), TcpConfig::default());
    let mut sim = Simulation::new(net, PairApp::new(bulk, probes));
    sim.time_limit = SimTime::from_secs(120);
    let report = sim.run();
    assert!(report.app_done, "primary decides completion: {report:?}");
    let probes = &sim.app.secondary;
    assert!(
        probes.launched() > 3,
        "probes must keep launching during the bulk transfer"
    );
    assert!(probes.completed() > 0, "some probes must complete");
    assert!(probes.fct().mean() > SimDuration::ZERO);
    assert_eq!(probes.fct_samples().len() as u64, probes.completed());
    // Bulk flows all arrived in full despite the probes.
    let bulk_bytes: u64 = sim
        .net
        .flows()
        .filter(|r| r.bytes == 800_000)
        .map(|r| r.bytes)
        .sum();
    assert_eq!(bulk_bytes, 3 * 800_000);
}

#[test]
fn pair_app_routes_timers_without_crosstalk() {
    use netsim::{LatencyProbes, PairApp};
    // Primary uses staggered starts (its own app timers) while the secondary
    // probes run — both must fire correctly.
    let spec = droptail_cluster(1, 4, 100, 43);
    let net = Network::new(spec);
    let cfg = TcpConfig::default();
    let bulk = StaticFlows::new(vec![
        (
            SimTime::from_millis(1),
            NodeId(1),
            NodeId(0),
            100_000,
            cfg.clone(),
        ),
        (
            SimTime::from_millis(7),
            NodeId(2),
            NodeId(0),
            100_000,
            cfg.clone(),
        ),
    ]);
    let probes = LatencyProbes::new(4, 10_000, SimDuration::from_millis(3), cfg);
    let mut sim = Simulation::new(net, PairApp::new(bulk, probes));
    let report = sim.run();
    assert!(report.app_done);
    assert_eq!(
        sim.net
            .flows()
            .filter(|r| r.bytes == 100_000 && r.completed.is_some())
            .count(),
        2,
        "both staggered primary flows must run"
    );
    assert!(sim.app.secondary.completed() > 0);
}

#[test]
fn codel_cluster_completes_and_marks() {
    use ecn_core::CoDelConfig;
    let spec = ClusterSpec {
        switch_qdisc: QdiscSpec::CoDel(CoDelConfig {
            capacity_packets: 100,
            target: SimDuration::from_micros(300),
            interval: SimDuration::from_millis(1),
            ecn: true,
            protection: ProtectionMode::AckSyn,
        }),
        ..droptail_cluster(1, 6, 100, 47)
    };
    let mut pairs = Vec::new();
    for s in 0..6u32 {
        for d in 0..6u32 {
            if s != d {
                pairs.push((NodeId(s), NodeId(d), 400_000));
            }
        }
    }
    let (report, net) = run_flows(spec, pairs, TcpConfig::with_ecn(EcnMode::Dctcp));
    assert!(report.app_done);
    let stats = net.port_stats();
    assert_eq!(
        stats.total.dropped_early.get(PacketKind::PureAck),
        0,
        "protected"
    );
    assert!(
        stats.total.marked.get(PacketKind::Data) > 0,
        "persistent shuffle queues must mark"
    );
}

#[test]
fn ecn_plus_plus_host_side_fix_eliminates_early_drops() {
    // ECN++-style hosts (control packets sent ECT) under a STOCK Default-mode
    // RED switch: nothing is non-ECT any more, so nothing gets early-dropped.
    // The host-side mirror of the paper's switch-side fix.
    let red = RedConfig::from_target_delay(
        SimDuration::from_micros(200),
        1_000_000_000,
        1526,
        100,
        ProtectionMode::Default,
    );
    let spec = ClusterSpec {
        switch_qdisc: QdiscSpec::Red(red),
        ..droptail_cluster(1, 6, 100, 53)
    };
    let mut pairs = Vec::new();
    for s in 0..6u32 {
        for d in 0..6u32 {
            if s != d {
                pairs.push((NodeId(s), NodeId(d), 400_000));
            }
        }
    }
    let cfg = TcpConfig {
        ect_control_packets: true,
        ..TcpConfig::with_ecn(EcnMode::Ecn)
    };
    let (report, net) = run_flows(spec, pairs, cfg);
    assert!(report.app_done);
    let stats = net.port_stats();
    assert_eq!(
        stats.total.dropped_early.total(),
        0,
        "everything is ECT under ECN++"
    );
    assert!(
        stats.total.marked.get(PacketKind::PureAck) > 0,
        "ACKs are marked instead of dropped"
    );
}

#[test]
fn oversubscribed_uplink_congests_the_core() {
    // 4:1 oversubscription: 4 hosts/rack at 1 Gbps share a 1 Gbps uplink.
    // Cross-rack all-to-all must congest the core/uplink ports, not the ToR
    // down-ports alone.
    let spec = ClusterSpec {
        racks: 2,
        hosts_per_rack: 4,
        host_link: LinkSpec::gbps(1, 5),
        uplink: LinkSpec::gbps(1, 5), // deliberately NOT 10G
        switch_qdisc: QdiscSpec::DropTail {
            capacity_packets: 100,
        },
        host_buffer_packets: 2000,
        seed: 59,
    };
    let mut pairs = Vec::new();
    for s in 0..4u32 {
        // strictly cross-rack traffic
        pairs.push((NodeId(s), NodeId(s + 4), 1_000_000));
        pairs.push((NodeId(s + 4), NodeId(s), 1_000_000));
    }
    let (report, net) = run_flows(spec, pairs, TcpConfig::default());
    assert!(report.app_done);
    let per_port = net.port_stats();
    // Find the ToR uplink ports (index 4 on each ToR) and assert they queued.
    let uplink_peak: u64 = per_port
        .ports
        .iter()
        .filter(|(name, _)| name.starts_with("sw0/p4") || name.starts_with("sw1/p4"))
        .map(|(_, s)| s.max_len_packets)
        .max()
        .unwrap_or(0);
    assert!(
        uplink_peak > 10,
        "oversubscribed uplinks must build queues: {uplink_peak}"
    );
}

#[test]
fn superseded_host_timer_is_dropped() {
    // A HostTimers event away from the host's armed instant is superseded: it
    // must not run an endpoint timer or re-arm a duplicate, on either
    // per-packet path. Only the event at the armed instant does work.
    for reference in [false, true] {
        let mut net = Network::new(droptail_cluster(1, 2, 100, 1));
        net.set_reference_mode(reference);
        net.add_flow(
            NodeId(0),
            NodeId(1),
            10_000,
            TcpConfig::default(),
            SimTime::ZERO,
        );
        let armed: Vec<SimTime> = net
            .take_pending()
            .into_iter()
            .filter_map(|(t, _, e)| matches!(e, Event::HostTimers { host: 0 }).then_some(t))
            .collect();
        assert_eq!(armed.len(), 1, "the SYN arms one host timer");
        let armed = armed[0];
        let stats = net.sender_stats_total();
        let early = SimTime::from_nanos(armed.as_nanos() - 1);
        for stale in [early, armed + SimDuration::from_millis(1)] {
            net.handle(Event::HostTimers { host: 0 }, stale);
            assert_eq!(net.sender_stats_total(), stats, "stale fire ran a timer");
            let pending = net.take_pending();
            assert!(
                pending.is_empty(),
                "stale fire at {stale} queued {pending:?}"
            );
        }
        // The event at the armed instant still retransmits the SYN.
        net.handle(Event::HostTimers { host: 0 }, armed);
        assert_eq!(
            net.sender_stats_total().syn_retransmits,
            stats.syn_retransmits + 1
        );
        assert!(net
            .take_pending()
            .iter()
            .any(|(_, _, e)| matches!(e, Event::HostTimers { host: 0 })));
    }
}
