//! The repository benchmark: see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <fig2-shallow|hot-host-dctcp|fat-tree-1024>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload in a closed loop (one simulation at a time,
//! the next starting when the previous one ends) for `--seconds` and prints
//! the end-to-end metrics. `--trace 1` prints the per-layer metrics from a
//! separate traced run. The last line of standard output is one JSON object.

mod alloc;
mod micro;
mod stats;
mod trace;
mod workloads;

use experiments::scenario::{run_scenario_once, run_scenario_once_with, BufferDepth, Engine};
use netsim::{Event, StaticFlows};
use simcc::CcAlg;
use simevent::HybridQueue;
use stats::{cpu_seconds, median, ratio};
use std::time::Instant;
use trace::{Layer, Snapshot, TracedApp, TracedQueue};
use workloads::{
    fabric_outcome, fabric_sim, host_packets, terasort_metrics, terasort_outcome, terasort_sim,
    Outcome, Sim, Workload, FABRIC_SHARDS, TARGET,
};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups timed before each end-to-end run; `setup_s` is the median of
/// all of them, so it samples the same stretch of time as `wall_s`.
const SETUPS_PER_RUN: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// The result line.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let sims = args.workload.sims(args.seed);
    let (attempted, failed, metrics) = if args.trace {
        traced(&sims, args.seed, args.seconds)
    } else {
        end_to_end(&sims, args.seconds)
    };
    print_result(failed == 0, attempted, failed, &metrics);
}

/// Whether to start another round after `done` rounds since `start`: the
/// first always, later ones only while the next, at the mean round length,
/// would end closer to `seconds` than stopping now does.
fn another_round(start: Instant, done: u64, seconds: f64) -> bool {
    let t = start.elapsed().as_secs_f64();
    done == 0 || t + t / done as f64 / 2.0 < seconds
}

/// The closed loop: whole runs of the workload until `seconds` have passed.
/// A simulation fails if it did not complete or if its digest differs from
/// the same simulation's digest in the first run.
fn end_to_end(sims: &[Sim], seconds: f64) -> (u64, u64, Metrics) {
    let setup = || {
        let t = Instant::now();
        let nets: Vec<_> = sims.iter().map(Sim::setup).collect();
        let s = t.elapsed().as_secs_f64();
        drop(nets);
        s
    };
    // One unmeasured set-up warms the allocator, as every later run finds it.
    setup();
    let mut setups = Vec::new();

    let mut first: Vec<Outcome> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut cpu = 0.0;
    let start = Instant::now();
    while another_round(start, walls.len() as u64, seconds) {
        setups.extend((0..SETUPS_PER_RUN).map(|_| setup()));
        let live = alloc::reset_peak();
        let cpu_before = cpu_seconds();
        let t = Instant::now();
        for (i, sim) in sims.iter().enumerate() {
            let out = sim.run_e2e();
            attempted += 1;
            if first.len() == i {
                println!("digest {} {:016x}", sim.label(), out.digest);
                first.push(out.clone());
            }
            if !out.completed || out.digest != first[i].digest {
                eprintln!(
                    "perfbench: {} failed: {out:?} vs {:?}",
                    sim.label(),
                    first[i]
                );
                failed += 1;
            }
        }
        walls.push(t.elapsed().as_secs_f64());
        cpu += cpu_seconds() - cpu_before;
        peaks.push((alloc::peak() - live) as f64 / 1e6);
    }
    let cpu = cpu / walls.len() as f64;
    eprintln!(
        "perfbench: {} runs, wall {:?}",
        walls.len(),
        walls.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>()
    );
    let metrics = vec![
        ("wall_s".into(), median(&walls), "s"),
        ("cpu_s".into(), cpu, "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_heap_mb".into(), median(&peaks), "MB"),
        (
            "ok_runs_frac".into(),
            1.0 - failed as f64 / attempted as f64,
            "frac",
        ),
    ];
    (attempted, failed, metrics)
}

/// Everything the traced run adds up over its simulations.
#[derive(Default)]
struct TraceTotals {
    /// Layer spans of the traced serial mirrors.
    snap: Snapshot,
    /// Untraced wall seconds of the same simulations on the same engine,
    /// the classic serial loop.
    untraced_s: f64,
    /// Events of the serial runs.
    events: u64,
    /// Host packets of the serial runs.
    packets: u64,
    /// Packet-pool inserts of the serial runs.
    pool_inserts: u64,
    peak_pending: usize,
    marked: u64,
    early_drops: u64,
    full_drops: u64,
    retransmits: u64,
    data_segments: u64,
    timeouts: u64,
    /// Allocations and host packets of the end-to-end engine's runs.
    e2e_allocs: u64,
    e2e_packets: u64,
    /// Wall seconds of the windowed engine on 1 and 2 shards, and of the
    /// classic serial loop on the same simulations.
    shard1_s: f64,
    shard2_s: f64,
    shard_serial_s: f64,
    /// CPU seconds of the 2-shard runs.
    shard2_cpu: f64,
}

impl TraceTotals {
    fn count(&mut self, net: &netsim::Network) {
        self.packets += host_packets(net);
        self.pool_inserts += net.pool_stats().inserts;
        let port = net.port_stats().total;
        self.marked += port.marked.total();
        self.early_drops += port.dropped_early.total();
        self.full_drops += port.dropped_full.total();
        let tx = net.sender_stats_total();
        self.retransmits += tx.retransmits;
        self.data_segments += tx.data_segments_sent;
        self.timeouts += tx.timeouts;
    }
}

/// Time `f`, returning its result and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// One traced pass over a Terasort point: the untraced run on the
/// end-to-end path, its traced mirror rebuilt from public parts and, with
/// `shards`, the windowed engine at 1 and 2 shards. Returns whether every
/// output agreed.
fn trace_terasort(sim: &Sim, shards: bool, tot: &mut TraceTotals) -> bool {
    let Sim::Terasort {
        cfg,
        transport,
        queue,
    } = sim
    else {
        unreachable!("called on Terasort points only");
    };
    let run = |cfg| {
        run_scenario_once_with(
            cfg,
            *transport,
            *queue,
            BufferDepth::Shallow,
            TARGET,
            Engine::Fast,
        )
    };
    let allocs = alloc::allocs();
    let ((m, report), wall) = timed(|| run(cfg));
    tot.e2e_allocs += alloc::allocs() - allocs;
    tot.untraced_s += wall;
    let expected = terasort_outcome(&m);

    let mut mirror = terasort_sim(cfg, *transport, *queue, TracedApp);
    trace::start();
    let traced = mirror.run_with_backend::<TracedQueue<HybridQueue<Event>>>();
    tot.snap.add(&trace::stop());
    let mirrored = terasort_metrics(&mirror.net, &mirror.app.0, traced.app_done);
    tot.events += report.events;
    tot.peak_pending = tot.peak_pending.max(report.peak_pending);
    tot.count(&mirror.net);
    tot.e2e_packets += host_packets(&mirror.net);
    let mut ok = expected.completed && mirrored == m && traced.events == report.events;
    if !ok {
        eprintln!(
            "perfbench: traced mirror of {} diverged: {} vs {} events",
            sim.label(),
            traced.events,
            report.events
        );
    }

    if !shards {
        return ok;
    }
    tot.shard_serial_s += wall;
    let sharded = |shards| {
        let mut c = cfg.clone();
        c.shards = Some(shards);
        timed(|| run_scenario_once(&c, *transport, *queue, BufferDepth::Shallow, TARGET))
    };
    let (one, w1) = sharded(1);
    let cpu = cpu_seconds();
    let (two, w2) = sharded(FABRIC_SHARDS as u32);
    tot.shard2_cpu += cpu_seconds() - cpu;
    tot.shard1_s += w1;
    tot.shard2_s += w2;
    if one != two || !one.completed {
        eprintln!("perfbench: {} differs between 1 and 2 shards", sim.label());
        ok = false;
    }
    ok
}

/// One traced pass over the fat tree: the classic serial loop untraced and
/// its traced mirror (the layer split), the windowed engine untraced at 1
/// and 2 shards (the end-to-end path), and a 1-shard arm with the traced
/// application, whose digest must equal the 2-shard run's.
fn trace_fabric(seed: u64, tot: &mut TraceTotals) -> bool {
    let mut serial = fabric_sim(seed, StaticFlows::new);
    let (report, wall) = timed(|| serial.run());
    tot.untraced_s += wall;
    tot.shard_serial_s += wall;
    let expected = fabric_outcome(&serial.net, report.app_done);
    let serial_pool = serial.net.pool_stats().inserts;
    drop(serial);

    let mut mirror = fabric_sim(seed, |f| TracedApp(StaticFlows::new(f)));
    trace::start();
    let traced = mirror.run_with_backend::<TracedQueue<HybridQueue<Event>>>();
    tot.snap.add(&trace::stop());
    tot.events += report.events;
    tot.peak_pending = tot.peak_pending.max(report.peak_pending);
    tot.count(&mirror.net);
    let mut ok = expected.completed
        && fabric_outcome(&mirror.net, traced.app_done) == expected
        && traced.events == report.events;
    if !ok {
        eprintln!("perfbench: traced serial mirror of the fat tree diverged");
    }
    drop(mirror);

    let mut one = fabric_sim(seed, StaticFlows::new);
    let (r1, w1) = timed(|| one.run_sharded(1));
    let out1 = fabric_outcome(&one.net, r1.app_done);
    drop(one);

    let mut two = fabric_sim(seed, StaticFlows::new);
    let allocs = alloc::allocs();
    let cpu = cpu_seconds();
    let (r2, w2) = timed(|| two.run_sharded(FABRIC_SHARDS));
    tot.shard2_cpu += cpu_seconds() - cpu;
    tot.e2e_allocs += alloc::allocs() - allocs;
    tot.e2e_packets += host_packets(&two.net);
    let out2 = fabric_outcome(&two.net, r2.app_done);
    eprintln!(
        "perfbench: packet-pool inserts {} on Simulation::run, {} after run_sharded({FABRIC_SHARDS})",
        serial_pool,
        two.net.pool_stats().inserts
    );
    drop(two);
    tot.shard1_s += w1;
    tot.shard2_s += w2;

    let mut arm = fabric_sim(seed, |f| TracedApp(StaticFlows::new(f)));
    trace::start();
    let r = arm.run_sharded(1);
    trace::stop();
    let traced_arm = fabric_outcome(&arm.net, r.app_done);

    if !(out2.completed && out1 == out2 && traced_arm == out2) {
        eprintln!("perfbench: fat-tree outputs differ across shard counts or tracing");
        ok = false;
    }
    ok
}

/// The traced run: traced passes over the workload's simulations until
/// `seconds` have passed (at least one), then the microbenchmarks.
fn traced(sims: &[Sim], seed: u64, seconds: f64) -> (u64, u64, Metrics) {
    let empty_span = trace::calibrate();
    let empty = trace::stopwatch_ns();
    let mut tot = TraceTotals::default();
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while another_round(start, passes, seconds) {
        for (i, sim) in sims.iter().enumerate() {
            attempted += 1;
            let ok = match sim {
                // The windowed engine is the end-to-end path only on the
                // fat tree; on Terasort one point per pass measures it.
                Sim::Terasort { .. } => trace_terasort(sim, i == 0, &mut tot),
                Sim::Fabric { seed } => trace_fabric(*seed, &mut tot),
            };
            if !ok {
                failed += 1;
            }
        }
        passes += 1;
    }

    let s = &tot.snap;
    let traced_s = s.total_ns() / 1e9;
    let cal = empty_span.in_situ(s.total_ns(), tot.untraced_s * 1e9, s.total_spans());
    let net = |l: Layer| s.net_ns(l, &cal);
    let net_total: f64 = [
        Layer::Loop,
        Layer::SimEvent,
        Layer::SwitchArrive,
        Layer::PortFree,
        Layer::HostArrive,
        Layer::HostTimers,
        Layer::App,
    ]
    .iter()
    .map(|&l| net(l))
    .sum();
    let share = |ns: f64| ratio(ns, net_total);
    let per = |l: Layer| ratio(net(l), s.events[l as usize] as f64);
    let ops = (s.schedules + s.cancels + s.pops) as f64;
    let events = tot.events as f64;
    let packets = tot.packets as f64;
    let overhead = ratio(traced_s, tot.untraced_s) - 1.0;
    eprintln!(
        "perfbench: {passes} traced passes, traced loop {traced_s:.3}s vs untraced {:.3}s, \
         {} spans at {:.1} ns in situ ({:.1} ns empty), net self times {:.3}s",
        tot.untraced_s,
        s.total_spans(),
        cal.span_ns(),
        empty_span.span_ns(),
        net_total / 1e9,
    );

    let mut m: Metrics = vec![
        ("simevent.ops_per_event".into(), ratio(ops, events), "count"),
        (
            "simevent.cancels_per_event".into(),
            ratio(s.cancels as f64, events),
            "count",
        ),
        (
            "simevent.peak_pending".into(),
            tot.peak_pending as f64,
            "count",
        ),
        (
            "simevent.ns_per_op".into(),
            ratio(net(Layer::SimEvent), ops),
            "ns",
        ),
        ("simevent.share".into(), share(net(Layer::SimEvent)), "frac"),
        (
            "netsim.events_per_packet".into(),
            ratio(events, packets),
            "count",
        ),
        (
            "netsim.events_per_s".into(),
            ratio(events, tot.untraced_s),
            "1/s",
        ),
        (
            "netsim.switch_arrive_ns".into(),
            per(Layer::SwitchArrive),
            "ns",
        ),
        ("netsim.port_free_ns".into(), per(Layer::PortFree), "ns"),
        (
            "netsim.share".into(),
            share(net(Layer::Loop) + net(Layer::SwitchArrive) + net(Layer::PortFree)),
            "frac",
        ),
    ];
    for kind in micro::qdiscs() {
        let (enq, deq) = micro::qdisc_ns(kind, seed, empty);
        let name = micro::qdisc_name(kind);
        m.push((format!("core.enqueue_ns.{name}"), enq, "ns"));
        m.push((format!("core.dequeue_ns.{name}"), deq, "ns"));
    }
    m.extend([
        (
            "core.marks_per_packet".into(),
            ratio(tot.marked as f64, packets),
            "count",
        ),
        (
            "core.early_drops_per_packet".into(),
            ratio(tot.early_drops as f64, packets),
            "count",
        ),
        (
            "core.full_drops_per_packet".into(),
            ratio(tot.full_drops as f64, packets),
            "count",
        ),
        (
            "tcpstack.host_arrive_ns".into(),
            per(Layer::HostArrive),
            "ns",
        ),
        ("tcpstack.timers_ns".into(), per(Layer::HostTimers), "ns"),
        (
            "tcpstack.share".into(),
            share(net(Layer::HostArrive) + net(Layer::HostTimers)),
            "frac",
        ),
        (
            "tcpstack.retransmit_frac".into(),
            ratio(tot.retransmits as f64, tot.data_segments as f64),
            "frac",
        ),
        (
            "tcpstack.timeouts".into(),
            tot.timeouts as f64 / passes as f64,
            "count",
        ),
    ]);
    for alg in CcAlg::ALL {
        m.push((
            format!("simcc.on_ack_ns.{}", alg.label()),
            micro::on_ack_ns(alg, empty),
            "ns",
        ));
    }
    let app_calls = s.spans[Layer::App as usize] as f64;
    m.extend([
        (
            "netpacket.allocs_per_packet".into(),
            ratio(tot.e2e_allocs as f64, tot.e2e_packets as f64),
            "count",
        ),
        (
            "netpacket.pool_inserts_per_packet".into(),
            ratio(tot.pool_inserts as f64, packets),
            "count",
        ),
        (
            "mrsim.calls_per_event".into(),
            ratio(app_calls, events),
            "count",
        ),
        (
            "mrsim.ns_per_call".into(),
            ratio(net(Layer::App), app_calls),
            "ns",
        ),
        ("mrsim.share".into(), share(net(Layer::App)), "frac"),
        (
            "simshard.speedup".into(),
            ratio(tot.shard1_s, tot.shard2_s),
            "ratio",
        ),
        (
            "simshard.tax".into(),
            ratio(tot.shard1_s, tot.shard_serial_s),
            "ratio",
        ),
        (
            "simshard.cpu_per_wall".into(),
            ratio(tot.shard2_cpu, tot.shard2_s),
            "ratio",
        ),
        (
            "simmetrics.hist_record_ns".into(),
            micro::hist_record_ns(seed, empty),
            "ns",
        ),
        ("trace.overhead_frac".into(), overhead, "frac"),
        ("trace.span_ns".into(), empty_span.span_ns(), "ns"),
        ("trace.in_situ_span_ns".into(), cal.span_ns(), "ns"),
    ]);
    (attempted, failed, m)
}
