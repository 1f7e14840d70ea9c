//! Microbenchmarks of single layers through their public APIs: the seven
//! queue disciplines, the five congestion controllers and the latency
//! histogram. Each times blocks of operations with a [`Stopwatch`],
//! subtracts what an empty stopwatch reads, and reports the median of
//! several passes.

use crate::stats::median;
use crate::trace::Stopwatch;
use crate::workloads::TARGET;
use ecn_core::ProtectionMode;
use experiments::scenario::{BufferDepth, QueueKind, ScenarioConfig};
use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, PacketId, SackBlocks, TcpFlags};
use simcc::{Cc, CcAlg, CcParams, CongestionController};
use simevent::{SimDuration, SimRng, SimTime};
use simmetrics::LatencyHistogram;
use std::hint::black_box;

const PASSES: usize = 5;

/// Metric-name form of a discipline label: `red[ack+syn]` → `red-acksyn`.
pub fn qdisc_name(kind: QueueKind) -> String {
    kind.label()
        .chars()
        .filter_map(|c| match c {
            '[' => Some('-'),
            ']' | '+' => None,
            c => Some(c),
        })
        .collect()
}

/// The replayed packet mix: ECT and non-ECT data, pure ACKs, SYNs and
/// SYN-ACKs, drawn from `rng`.
fn packet(rng: &mut SimRng, id: u64) -> Packet {
    let (payload, flags, ecn) = match rng.next_below(100) {
        0..=59 => (1448, TcpFlags::ACK, EcnCodepoint::Ect0),
        60..=69 => (1448, TcpFlags::ACK, EcnCodepoint::NotEct),
        70..=94 => (0, TcpFlags::ACK, EcnCodepoint::NotEct),
        95..=97 => (0, TcpFlags::SYN | TcpFlags::ECE, EcnCodepoint::NotEct),
        _ => (
            0,
            TcpFlags::SYN | TcpFlags::ACK | TcpFlags::ECE,
            EcnCodepoint::NotEct,
        ),
    };
    Packet {
        id: PacketId(id),
        flow: FlowId(rng.next_below(64)),
        src: NodeId(1),
        dst: NodeId(0),
        seq: id * 1448,
        ack: 0,
        payload,
        flags,
        ecn,
        sack: SackBlocks::default(),
        sent_at: SimTime::ZERO,
    }
}

/// Nanoseconds per `enqueue` and per `dequeue` of one discipline, on the
/// shallow 100-packet port of the paper's cluster. Each round offers a
/// burst at twice line rate, then drains it at line rate, so the queue
/// sweeps through the marking and dropping range of every discipline.
pub fn qdisc_ns(kind: QueueKind, seed: u64, empty_ns: f64) -> (f64, f64) {
    const BURST: usize = 64;
    const ROUNDS: usize = 1500;
    let spec = ScenarioConfig::default().qdisc(kind, BufferDepth::Shallow, TARGET);
    let mut enq = Vec::new();
    let mut deq = Vec::new();
    for pass in 0..PASSES {
        let mut q = ecn_core::build_qdisc(&spec, seed);
        let mut rng = SimRng::new(seed ^ pass as u64);
        let mut now = SimTime::ZERO;
        let mut batch: Vec<Packet> = Vec::with_capacity(BURST);
        let mut out: Vec<Packet> = Vec::with_capacity(BURST);
        let (mut enq_ns, mut deq_ns) = (0.0, 0.0);
        let mut id = 0;
        for _ in 0..ROUNDS {
            batch.extend((0..BURST).map(|_| {
                id += 1;
                packet(&mut rng, id)
            }));
            let t = Stopwatch::start();
            for p in batch.drain(..) {
                now += SimDuration::from_micros(6);
                black_box(q.enqueue(p, now));
            }
            enq_ns += t.elapsed_ns() - empty_ns;
            let t = Stopwatch::start();
            for _ in 0..BURST {
                now += SimDuration::from_micros(12);
                if let Some(p) = q.dequeue(now) {
                    out.push(p);
                }
            }
            deq_ns += t.elapsed_ns() - empty_ns;
            out.clear();
        }
        let ops = (ROUNDS * BURST) as f64;
        enq.push(enq_ns / ops);
        deq.push(deq_ns / ops);
    }
    (median(&enq), median(&deq))
}

/// The disciplines of the qdisc microbenchmark: the seven of
/// `QueueKind::all_with_mode`, with the paper's ACK+SYN protection.
pub fn qdiscs() -> [QueueKind; 7] {
    QueueKind::all_with_mode(ProtectionMode::AckSyn)
}

/// Nanoseconds per ACK through one controller: `on_ack` and
/// `on_ce_feedback` on every ACK (the hooks the sender always calls), an
/// RTT sample and an ECN reduction once per 64 ACKs, a CE mark every 97.
pub fn on_ack_ns(alg: CcAlg, empty_ns: f64) -> f64 {
    const OPS: u64 = 300_000;
    let p = CcParams {
        mss: 1448.0,
        init_cwnd: 10.0 * 1448.0,
        init_ssthresh: (1u64 << 20) as f64,
        dctcp_g: 1.0 / 16.0,
    };
    let mut runs = Vec::new();
    for _ in 0..PASSES {
        let mut cc = Cc::new(alg, &p);
        let (mut now, mut ack) = (0u64, 0u64);
        let t = Stopwatch::start();
        for i in 0..OPS {
            now += 12_000;
            ack += 1448;
            cc.on_ack(&p, 1448, now);
            cc.on_ce_feedback(&p, 1448, i % 97 == 0, ack, ack + 64 * 1448);
            if i % 64 == 63 {
                cc.on_rtt_sample(&p, 200_000 + (i % 7) * 10_000, now, false);
                cc.on_ece(&p);
            }
        }
        black_box(cc.cwnd());
        runs.push((t.elapsed_ns() - empty_ns) / OPS as f64);
    }
    median(&runs)
}

/// Nanoseconds per `LatencyHistogram::record` of seeded latencies between
/// 10 µs and 10 ms, the range of the simulated packet latencies.
pub fn hist_record_ns(seed: u64, empty_ns: f64) -> f64 {
    const SAMPLES: usize = 200_000;
    let mut rng = SimRng::new(seed);
    let samples: Vec<SimDuration> = (0..SAMPLES)
        .map(|_| SimDuration::from_nanos(10_000 + rng.next_below(10_000_000)))
        .collect();
    let mut runs = Vec::new();
    for _ in 0..PASSES {
        let mut h = LatencyHistogram::new();
        let t = Stopwatch::start();
        for &d in &samples {
            h.record(d);
        }
        runs.push((t.elapsed_ns() - empty_ns) / SAMPLES as f64);
        black_box(h.count());
    }
    median(&runs)
}
