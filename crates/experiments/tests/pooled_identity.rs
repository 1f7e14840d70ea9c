//! Property: `Network::set_reference_mode` changes the *cost model*, never
//! the simulation. The reference path (seed Box-per-packet allocation,
//! full-scan flush/timer bookkeeping) and the pooled fast path (arena
//! handles, SoA flow columns, deadline heap), both driven by
//! `Simulation::run`, must produce byte-identical
//! metrics JSON and a byte-identical packet-lifecycle trace on every
//! fig2-shallow point — across transports, queue disciplines, congestion
//! controllers, target delays and seeds.

use ecn_core::ProtectionMode;
use experiments::scenario::{
    run_scenario_once_traced, BufferDepth, Engine, QueueKind, ScenarioConfig, Transport,
};
use proptest::prelude::*;
use simevent::SimDuration;
use simtrace::{RingSink, TraceHandle};
use tcpstack::CcAlg;

/// One traced tiny-scenario run: returns the metrics serialized exactly as
/// report JSON would embed them, plus the trace as JSONL.
fn run_point(
    engine: Engine,
    seed: u64,
    transport: Transport,
    queue: QueueKind,
    cc: Option<CcAlg>,
    delay_us: u64,
) -> (String, String) {
    let mut cfg = ScenarioConfig::tiny();
    cfg.seed = seed;
    cfg.cc = cc;
    let trace = TraceHandle::new(Box::new(RingSink::new(1 << 16)));
    let (m, _report) = run_scenario_once_traced(
        &cfg,
        transport,
        queue,
        BufferDepth::Shallow,
        SimDuration::from_micros(delay_us),
        engine,
        trace.clone(),
    );
    let json = serde_json::to_string(&m).expect("metrics serialize");
    let jsonl = trace
        .drain_events()
        .iter()
        .map(|e| e.to_jsonl())
        .collect::<Vec<_>>()
        .join("\n");
    (json, jsonl)
}

proptest! {
    // Each case runs two full (tiny) cluster simulations; a handful of
    // cases keeps the suite fast while still sampling every transport and
    // queue discipline over time.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pooled_and_reference_paths_are_byte_identical(
        seed in 1u64..=1_000_000,
        pick in 0usize..27,
        cc_pick in 0usize..6,
        delay_us in 200u64..=900,
    ) {
        let transports = [Transport::Tcp, Transport::TcpEcn, Transport::Dctcp];
        let queues = [
            QueueKind::DropTail,
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::RedMimic(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
            QueueKind::CoDel(ProtectionMode::AckSyn),
            QueueKind::CurvyRed(ProtectionMode::AckSyn),
            QueueKind::Pie(ProtectionMode::AckSyn),
            QueueKind::DualQ(ProtectionMode::AckSyn),
        ];
        let transport = transports[pick / 9];
        let queue = queues[pick % 9];
        // 0 keeps the transport's native controller pairing; 1..=5 override
        // with each simcc controller, exactly what `--cc` does.
        let cc = (cc_pick > 0).then(|| CcAlg::ALL[cc_pick - 1]);
        let (fast_json, fast_trace) = run_point(Engine::Fast, seed, transport, queue, cc, delay_us);
        let (ref_json, ref_trace) = run_point(Engine::Reference, seed, transport, queue, cc, delay_us);
        prop_assert_eq!(fast_json, ref_json);
        prop_assert_eq!(fast_trace, ref_trace);
    }
}
