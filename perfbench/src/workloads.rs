//! The three workloads, how to run each simulation on the end-to-end path,
//! and how to rebuild it from public parts for set-up timing and tracing.

use crate::stats::fnv1a;
use ecn_core::{ProtectionMode, QdiscSpec, SimpleMarkingConfig};
use experiments::scenario::{
    run_scenario_once, BufferDepth, QueueKind, RunMetrics, ScenarioConfig, Transport,
};
use mrsim::{JobSpec, TerasortJob};
use netpacket::PacketKind;
use netsim::{
    Application, ClusterSpec, FatTreeSpec, LinkSpec, Network, Simulation, StaticFlows, Topology,
};
use simevent::{SimDuration, SimTime};
use tcpstack::TcpConfig;
use workload::{fabric_flows, FabricConfig};

/// The paper's target queueing delay for every marking threshold here.
pub const TARGET: SimDuration = SimDuration::from_micros(500);

/// Worker shards of the fat-tree run.
pub const FABRIC_SHARDS: usize = 2;

/// Fat-tree arity: k=16 gives 1024 hosts in 16 pods.
const FAT_TREE_K: u32 = 16;

/// The seven points of the Fig. 2 series: DropTail/TCP, then TCP-ECN and
/// DCTCP each over RED without and with ACK+SYN protection and over simple
/// marking.
fn fig2_points() -> impl Iterator<Item = (Transport, QueueKind)> {
    let ecn = Transport::ECN_TRANSPORTS.into_iter().flat_map(|transport| {
        [
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
        ]
        .map(|queue| (transport, queue))
    });
    std::iter::once((Transport::Tcp, QueueKind::DropTail)).chain(ecn)
}

/// A named set of simulations, run back to back as one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 2 series on its 8-host cluster, shallow buffers.
    Fig2Shallow,
    /// The 32-host hot-host point under DCTCP and simple marking.
    HotHostDctcp,
    /// The k=16 fat tree (1024 hosts) on the 2-shard engine.
    FatTree1024,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fig2-shallow" => Some(Workload::Fig2Shallow),
            "hot-host-dctcp" => Some(Workload::HotHostDctcp),
            "fat-tree-1024" => Some(Workload::FatTree1024),
            _ => None,
        }
    }

    /// The simulations of one run, built from `seed`.
    pub fn sims(self, seed: u64) -> Vec<Sim> {
        match self {
            Workload::Fig2Shallow => {
                let cfg = ScenarioConfig {
                    seed,
                    ..ScenarioConfig::default()
                };
                fig2_points()
                    .map(|(transport, queue)| Sim::Terasort {
                        cfg: cfg.clone(),
                        transport,
                        queue,
                    })
                    .collect()
            }
            Workload::HotHostDctcp => {
                let cfg = ScenarioConfig {
                    racks: 2,
                    hosts_per_rack: 16,
                    input_bytes_per_node: 8_000_000,
                    map_waves: 4,
                    seed,
                    ..ScenarioConfig::tiny()
                };
                vec![Sim::Terasort {
                    cfg,
                    transport: Transport::Dctcp,
                    queue: QueueKind::SimpleMarking,
                }]
            }
            Workload::FatTree1024 => vec![Sim::Fabric { seed }],
        }
    }
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub enum Sim {
    /// A Terasort point through `experiments::scenario`.
    Terasort {
        /// Cluster, job and seed.
        cfg: ScenarioConfig,
        /// Transport of every flow.
        transport: Transport,
        /// Discipline on every switch port.
        queue: QueueKind,
    },
    /// The fat tree under `workload::fabric_flows` traffic.
    Fabric {
        /// Seed of the topology (ECMP salts).
        seed: u64,
    },
}

/// What one simulation produced, reduced to what the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The run finished its work inside the time limit.
    pub completed: bool,
    /// Hash of the simulation's outputs; equal runs give equal digests.
    pub digest: u64,
}

impl Sim {
    /// Short label for the printed digests.
    pub fn label(&self) -> String {
        match self {
            Sim::Terasort {
                transport, queue, ..
            } => format!("{}/{}", transport.label(), queue.label()),
            Sim::Fabric { .. } => format!("fat-tree:{FAT_TREE_K}/dctcp/simple-marking"),
        }
    }

    /// Run on the end-to-end path: `run_scenario_once` for Terasort,
    /// `Simulation::run_sharded(2)` for the fat tree.
    pub fn run_e2e(&self) -> Outcome {
        match self {
            Sim::Terasort {
                cfg,
                transport,
                queue,
            } => {
                let m = run_scenario_once(cfg, *transport, *queue, BufferDepth::Shallow, TARGET);
                terasort_outcome(&m)
            }
            Sim::Fabric { seed } => {
                let mut sim = fabric_sim(*seed, StaticFlows::new);
                let report = sim.run_sharded(FABRIC_SHARDS);
                fabric_outcome(&sim.net, report.app_done)
            }
        }
    }

    /// Build the simulation without running it: the set-up a run pays
    /// before its first event. Boxed only to be dropped after timing.
    pub fn setup(&self) -> Box<dyn std::any::Any> {
        match self {
            Sim::Terasort {
                cfg,
                transport,
                queue,
            } => Box::new(terasort_sim(cfg, *transport, *queue, |job| job)),
            Sim::Fabric { seed } => Box::new(fabric_sim(*seed, StaticFlows::new)),
        }
    }
}

/// The digest of a Terasort point: its `RunMetrics`, every field exact.
pub fn terasort_outcome(m: &RunMetrics) -> Outcome {
    let ok = m.completed && m.runtime_s > 0.0 && m.throughput_per_node_bps > 0.0;
    Outcome {
        completed: ok,
        digest: fnv1a(format!("{m:?}").as_bytes()),
    }
}

/// The digest of a fabric run: per-flow completion nanos in flow order plus
/// the fabric-wide CE-mark count. Completion also requires every flow to
/// have delivered all of its bytes.
pub fn fabric_outcome(net: &Network, app_done: bool) -> Outcome {
    let completions: Vec<u64> = net
        .flows()
        .map(|r| r.completed.map_or(u64::MAX, |t| t.as_nanos()))
        .collect();
    let marked = net.port_stats().total.marked.total();
    let expected: u64 = net.flows().map(|r| r.bytes).sum();
    let ok = app_done
        && net.all_flows_complete()
        && net.total_bytes_received() == expected
        && net.orphan_packets() == 0;
    Outcome {
        completed: ok,
        digest: fnv1a(format!("{completions:?}/{marked}").as_bytes()),
    }
}

/// A Terasort point, built exactly as
/// `experiments::scenario::run_scenario_once` builds it for the classic
/// engine on the paper's two-tier cluster. `wrap` turns the job into the
/// application (plain or traced).
pub fn terasort_sim<A: Application>(
    cfg: &ScenarioConfig,
    transport: Transport,
    queue: QueueKind,
    wrap: impl FnOnce(TerasortJob) -> A,
) -> Simulation<A> {
    let topo = Topology::TwoTier(ClusterSpec {
        racks: cfg.racks,
        hosts_per_rack: cfg.hosts_per_rack,
        host_link: cfg.host_link,
        uplink: cfg.uplink,
        switch_qdisc: cfg.qdisc(queue, BufferDepth::Shallow, TARGET),
        host_buffer_packets: 4 * cfg.deep_packets,
        seed: cfg.seed,
    });
    let n = topo.total_hosts();
    let base = match cfg.cc {
        Some(alg) => TcpConfig::with_cc(alg, transport.ecn_mode()),
        None => TcpConfig::with_ecn(transport.ecn_mode()),
    };
    let job = JobSpec {
        input_bytes_per_node: cfg.input_bytes_per_node,
        map_waves: cfg.map_waves,
        map_rate_bps: 100_000_000,
        reduce_rate_bps: 200_000_000,
        tcp: TcpConfig {
            recv_wnd: 128 << 10,
            sack: false,
            ..base
        },
        parallel_copies: 5,
        shuffle_jitter: cfg.shuffle_jitter,
        seed: cfg.seed ^ 0x5EED,
    };
    let mut sim = Simulation::new(Network::from_topology(topo), wrap(TerasortJob::new(job, n)));
    sim.time_limit = cfg.time_limit;
    sim
}

/// The `RunMetrics` of a finished Terasort simulation, computed as
/// `run_scenario_once` computes them.
pub fn terasort_metrics(net: &Network, job: &TerasortJob, app_done: bool) -> RunMetrics {
    let n = net.topology().total_hosts();
    let res = job.result();
    let span = res.shuffle_done.since(res.first_flow_at);
    let throughput = if span > SimDuration::ZERO {
        res.shuffle_bytes as f64 * 8.0 / span.as_secs_f64() / n as f64
    } else {
        0.0
    };
    let port = net.port_stats().total;
    let tx = net.sender_stats_total();
    RunMetrics {
        runtime_s: res.runtime.as_secs_f64(),
        throughput_per_node_bps: throughput,
        mean_latency_s: net.latency().mean().as_secs_f64(),
        p99_latency_s: net.latency().quantile(0.99).as_secs_f64(),
        acks_early_dropped: port.dropped_early.get(PacketKind::PureAck),
        handshake_early_dropped: port.dropped_early.get(PacketKind::Syn)
            + port.dropped_early.get(PacketKind::SynAck),
        data_marked: port.marked.get(PacketKind::Data),
        full_drops: port.dropped_full.total(),
        timeouts: tx.timeouts,
        fast_retransmits: tx.fast_retransmits,
        syn_retransmits: tx.syn_retransmits,
        cc_fallbacks: tx.cc_fallbacks,
        completed: app_done,
    }
}

/// The fat-tree simulation: DCTCP over simple marking at the paper's
/// 500 µs target, 20 µs links, bisection elephants plus per-pod hotspots.
/// `wrap` turns the flow list into the application (plain or traced).
pub fn fabric_sim<A: Application>(
    seed: u64,
    wrap: impl FnOnce(Vec<workload::FabricFlow>) -> A,
) -> Simulation<A> {
    let topo = Topology::FatTree(FatTreeSpec {
        k: FAT_TREE_K,
        host_link: LinkSpec::gbps(1, 20),
        uplink: LinkSpec::gbps(10, 20),
        switch_qdisc: QdiscSpec::SimpleMarking(SimpleMarkingConfig::from_target_delay(
            TARGET,
            1_000_000_000,
            1526,
            100,
        )),
        host_buffer_packets: 4000,
        seed,
    });
    let flows = fabric_flows(&FabricConfig {
        hosts: topo.total_hosts(),
        hosts_per_pod: FAT_TREE_K * FAT_TREE_K / 4,
        elephant_bytes: 300_000,
        hotspot_senders_per_pod: 8,
        hotspot_bytes: 150_000,
        stagger: SimDuration::from_micros(50),
        tcp: TcpConfig {
            recv_wnd: 128 << 10,
            sack: false,
            ..TcpConfig::with_ecn(Transport::Dctcp.ecn_mode())
        },
    });
    let mut sim = Simulation::new(Network::from_topology(topo), wrap(flows));
    sim.time_limit = SimTime::from_secs(30);
    sim
}

/// Packets the hosts sent: SYNs (one per flow plus retransmits), data
/// segments, ACKs and SYN-ACKs, from the transport counters. Unlike the
/// packet pool's counters these survive a sharded run.
pub fn host_packets(net: &Network) -> u64 {
    let tx = net.sender_stats_total();
    let rx = net.receiver_stats_total();
    net.flows().count() as u64
        + tx.syn_retransmits
        + tx.data_segments_sent
        + rx.acks_sent
        + rx.syn_acks_sent
}
