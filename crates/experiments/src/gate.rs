//! The benchmark regression gate behind the `bench_gate` bin.
//!
//! `bench_gate` runs a fixed "standard point set" (kernel microbenchmarks
//! plus the Fig. 2 shallow sweep at gate scale), emits `BENCH_7.json`, and
//! compares it against a committed baseline (`BENCH_7_baseline.json`) with
//! per-metric tolerances — exiting nonzero on regression, so the repo's perf
//! trajectory is *enforced*, not just recorded.
//!
//! `BENCH_7.json` is a netbench-style report covering every hot-path layer:
//!
//! * **kernel** — scheduler microbenchmarks on the binary-heap
//!   [`EventQueue`], the one queue backend: `churn` holds 65,536 events and
//!   pops and reschedules; `cancel_heavy` adds a cancel-and-rearm per event,
//!   the RTO pattern. Each is sampled interleaved with a bare
//!   `std::collections::BinaryHeap` loop on the same pending count and RNG
//!   stream, and gated on `vs_bare_heap`, the `EventQueue` rate divided by
//!   the bare-heap rate: a same-process ratio in which load and clock
//!   speed cancel. `events_per_sec` stays in the report, ungated.
//! * **cc** — congestion-controller `on_ack` hot-path microbenchmark: every
//!   `simcc` controller driven through the sender's per-ACK hook sequence,
//!   gated on its throughput ratio against Reno sampled interleaved, so a
//!   controller that grows an allocation or a quadratic scan on the ACK
//!   path trips the gate.
//! * **pool** — packet-arena allocation accounting on one fig2-shallow DCTCP
//!   point: pool inserts, heap allocations (slab spill in pooled mode, one
//!   Box per packet in reference mode), inserts per wall-second.
//! * **link** — scheduler events per pool-inserted packet for both engines;
//!   the batched transmitter's event elision shows up here directly.
//! * **sweep_fig2_shallow** — the standard point set end to end:
//!   `reference_seconds` is the serial sweep on the reference engine (seed
//!   per-packet algorithms and allocation model, same event loop),
//!   `fast_seconds` the serial sweep on the fast engine — each the median
//!   of five interleaved samples — and `parallel_seconds` the fast engine
//!   on one worker per core. `outputs_identical` asserts serial == parallel
//!   AND fast == reference metrics AND every sample equal to the others —
//!   the determinism contract of both the parallel executor and the
//!   arena/batching overhaul, measured on every gate run.
//!
//! Gate policy: the kernel ratios may fall at most [`KERNEL_RATIO_FRAC`]
//! (10%), every other timed or
//! per-packet metric may regress at most [`Tolerance::wall_clock_frac`]
//! (default 25% — CI machines are shared), and `outputs_identical` must
//! hold outright.
//!
//! `bench_gate --bench8` runs the second report, `BENCH_8.json` vs
//! `BENCH_8_baseline.json`: the sharded windowed engine on a 1024-host
//! fat-tree DCTCP point ([`measure_bench8`]), gating the multi-worker
//! wall-clock speedup at [`BENCH8_SHARDS`] shards (absolute floor
//! [`BENCH8_MIN_SPEEDUP`] on machines with that many cores, relative to
//! baseline everywhere) and the shard-count determinism invariant.

use crate::scenario::{
    run_scenario_once_full, run_scenario_once_with, BufferDepth, Engine, QueueKind, RunMetrics,
    ScenarioConfig, Transport,
};
use crate::simsweep::{CacheMode, SweepOptions};
use crate::sweep::SweepGrid;
use ecn_core::{ProtectionMode, QdiscSpec, SimpleMarkingConfig};
use netsim::{FatTreeSpec, LinkSpec, Network, Simulation, StaticFlows, Topology};
use serde::{Deserialize, Serialize};
use simcc::{Cc, CcAlg, CcParams, CongestionController};
use simevent::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};
use tcpstack::TcpConfig;
use workload::{fabric_flows, FabricConfig};

/// One kernel microbenchmark line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelWorkload {
    /// Events held in flight.
    pub pending: u64,
    /// Events popped during measurement.
    pub popped_events: u64,
    /// [`EventQueue`] throughput (median of interleaved samples).
    pub events_per_sec: f64,
    /// Throughput of the bare-`BinaryHeap` twin loop (median of the same
    /// interleaved samples).
    pub bare_heap_events_per_sec: f64,
    /// Median over samples of the `EventQueue` rate divided by the bare-heap
    /// rate measured next to it — the gated metric.
    pub vs_bare_heap: f64,
}

/// The two kernel workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSection {
    /// Hold-and-churn schedule/pop workload.
    pub churn: KernelWorkload,
    /// Cancel-and-rearm timer workload.
    pub cancel_heavy: KernelWorkload,
}

/// One congestion controller's `on_ack` hot-path measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CcWorkload {
    /// Controller label (`reno`, `dctcp`, `cubic`, `bbr`, `prague`).
    pub controller: String,
    /// ACK hook sequences per wall-second (median of interleaved samples).
    pub ops_per_sec: f64,
    /// This controller's throughput relative to Reno's from the same
    /// interleaved sampling pass — the gated metric (load noise cancels in
    /// the ratio).
    pub vs_reno: f64,
}

/// The congestion-controller microbenchmark section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CcSection {
    /// ACK hook sequences executed per sample per controller.
    pub ops: u64,
    /// One line per `simcc` controller, in `CcAlg::ALL` order.
    pub controllers: Vec<CcWorkload>,
}

/// Packet-arena allocation accounting on the measured DCTCP point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolSection {
    /// Packets inserted into the pool over the point (pooled run).
    pub packets: u64,
    /// Heap allocations the pooled run performed for packet storage — slab
    /// growth only; steady state recycles slots.
    pub pooled_heap_allocs: u64,
    /// Heap allocations the reference (seed) model performed: one Box per
    /// packet.
    pub reference_heap_allocs: u64,
    /// Pooled heap allocations per packet (slab growth amortized away).
    pub pooled_allocs_per_packet: f64,
    /// Pool inserts per wall-second, pooled run.
    pub pooled_inserts_per_sec: f64,
    /// Pool inserts per wall-second, reference run.
    pub reference_inserts_per_sec: f64,
    /// High-water mark of simultaneously live packets.
    pub high_water: u64,
}

/// End-to-end engine comparison on the hot-host DCTCP point: the same
/// simulation run on the fast engine (arena, batching, SoA flow state) and
/// the reference engine (seed allocation model, full-scan bookkeeping), both
/// on the one serial event loop. The point is sized so per-host flow
/// concurrency is realistic — that is where the seed's per-event endpoint
/// scans actually cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndSection {
    /// Hosts in the hot-point cluster.
    pub hosts: u64,
    /// Wall seconds, fast engine.
    pub fast_seconds: f64,
    /// Wall seconds, reference engine.
    pub reference_seconds: f64,
    /// reference / fast — the headline end-to-end speedup.
    pub engine_speedup: f64,
    /// Scheduler events processed, fast engine.
    pub fast_events: u64,
    /// Scheduler events processed, reference engine.
    pub reference_events: u64,
    /// Events per wall-second, fast engine.
    pub fast_events_per_sec: f64,
    /// Events per wall-second, reference engine.
    pub reference_events_per_sec: f64,
}

/// Scheduler events per delivered packet on the measured DCTCP point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSection {
    /// Packets inserted into the pool over the point.
    pub packets: u64,
    /// Scheduler events processed, fast engine.
    pub fast_events: u64,
    /// Events per packet, fast engine (batched transmitter).
    pub fast_events_per_packet: f64,
    /// Scheduler events processed, reference engine. Equal to
    /// `fast_events`: both engines run the same event loop and drop the same
    /// superseded host timers.
    pub reference_events: u64,
    /// Events per packet, reference engine.
    pub reference_events_per_packet: f64,
}

/// The standard-point-set wall-clock section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSection {
    /// Points in the set.
    pub points: u64,
    /// Serial sweep on the reference engine (seed allocation model and
    /// full-scan bookkeeping).
    pub reference_seconds: f64,
    /// Serial sweep on the fast engine.
    pub fast_seconds: f64,
    /// Parallel sweep on the fast engine, one worker per core.
    pub parallel_seconds: f64,
    /// reference / fast: the end-to-end single-thread speedup of the
    /// arena + batching overhaul.
    pub engine_speedup: f64,
    /// fast / parallel: orchestrator scaling on the same point set.
    pub parallel_speedup: f64,
    /// End-to-end events per wall-second, fast engine serial.
    pub fast_events_per_sec: f64,
    /// End-to-end events per wall-second, reference engine serial.
    pub reference_events_per_sec: f64,
    /// Serial == parallel AND fast == reference metrics.
    pub outputs_identical: bool,
    /// Simulation events processed, reference engine.
    pub reference_events: u64,
    /// Simulation events processed, fast engine.
    pub fast_events: u64,
    /// Peak pending events, reference engine.
    pub reference_peak_pending: u64,
    /// Peak pending events, fast engine.
    pub fast_peak_pending: u64,
}

/// The whole report — the `BENCH_7.json` schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// What this report measures.
    pub description: String,
    /// Kernel microbenchmarks.
    pub kernel: KernelSection,
    /// Congestion-controller `on_ack` microbenchmarks.
    pub cc: CcSection,
    /// Hot-host end-to-end engine comparison.
    pub end_to_end: EndToEndSection,
    /// Packet-arena allocation accounting.
    pub pool: PoolSection,
    /// Events per delivered packet.
    pub link: LinkSection,
    /// Standard-point-set wall clock.
    pub sweep_fig2_shallow: SweepSection,
}

/// Per-metric regression tolerances, as fractions (0.10 = 10%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Allowed increase on lower-is-better metrics and loss on
    /// higher-is-better ones (events/sec, ratios).
    pub wall_clock_frac: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            wall_clock_frac: 0.25,
        }
    }
}

/// Allowed loss on the kernel `vs_bare_heap` ratios (10%).
const KERNEL_RATIO_FRAC: f64 = 0.10;

/// One gated metric outside its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Dotted metric path, e.g. `kernel.churn.vs_bare_heap`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Measured value.
    pub current: f64,
    /// The bound the measured value crossed.
    pub limit: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4} vs baseline {:.4} (limit {:.4})",
            self.metric, self.current, self.baseline, self.limit
        )
    }
}

/// Compare a measured report against the baseline. Returns every gated
/// metric outside its tolerance; empty means the gate passes.
pub fn compare(current: &BenchReport, baseline: &BenchReport, tol: &Tolerance) -> Vec<Violation> {
    let mut v = Vec::new();

    // Higher is better: must not fall more than `frac` below the baseline.
    // Every line but the kernel ratios takes the loose wall-clock slack; the
    // reason is given per line below.
    let mut higher = |metric: String, cur: f64, base: f64, frac: f64| {
        let limit = base * (1.0 - frac);
        // Non-finite on either side means a corrupt report — fail, don't pass.
        if !cur.is_finite() || !limit.is_finite() || cur < limit {
            v.push(Violation {
                metric,
                baseline: base,
                current: cur,
                limit,
            });
        }
    };
    // Kernel microbenchmarks gate the EventQueue rate over its interleaved
    // bare-heap twin: load and clock speed cancel in the ratio, so it takes
    // the tight slack (a different CPU can still move it; DESIGN.md §11).
    higher(
        "kernel.churn.vs_bare_heap".to_string(),
        current.kernel.churn.vs_bare_heap,
        baseline.kernel.churn.vs_bare_heap,
        KERNEL_RATIO_FRAC,
    );
    higher(
        "kernel.cancel_heavy.vs_bare_heap".to_string(),
        current.kernel.cancel_heavy.vs_bare_heap,
        baseline.kernel.cancel_heavy.vs_bare_heap,
        KERNEL_RATIO_FRAC,
    );
    // Controller on_ack cost, gated as the interleaved vs-Reno ratio so load
    // noise cancels — still with the loose slack: a 1M-op arithmetic loop is
    // short enough that the measured ratio swings several percent run to
    // run (observed ~8% on CUBIC's cbrt-heavy path), and the regressions
    // this line exists to catch — an allocation or a scan growing onto the
    // per-ACK path — cost integer factors, not percents. A controller
    // missing from the current report fails its baseline line outright (NaN
    // never passes).
    for base_cc in &baseline.cc.controllers {
        let cur = current
            .cc
            .controllers
            .iter()
            .find(|c| c.controller == base_cc.controller)
            .map_or(f64::NAN, |c| c.vs_reno);
        higher(
            format!("cc.{}.vs_reno", base_cc.controller),
            cur,
            base_cc.vs_reno,
            tol.wall_clock_frac,
        );
    }
    // The end-to-end speedup divides two *sequential* wall-clock runs, so
    // load noise does not cancel.
    higher(
        "end_to_end.engine_speedup".to_string(),
        current.end_to_end.engine_speedup,
        baseline.end_to_end.engine_speedup,
        tol.wall_clock_frac,
    );

    // Lower is better: must not rise more than wall_clock_frac above the
    // baseline.
    let mut lower = |metric: &str, cur: f64, base: f64| {
        let limit = base * (1.0 + tol.wall_clock_frac);
        if !cur.is_finite() || !limit.is_finite() || cur > limit {
            v.push(Violation {
                metric: metric.to_string(),
                baseline: base,
                current: cur,
                limit,
            });
        }
    };
    lower(
        "sweep_fig2_shallow.fast_seconds",
        current.sweep_fig2_shallow.fast_seconds,
        baseline.sweep_fig2_shallow.fast_seconds,
    );
    lower(
        "pool.pooled_allocs_per_packet",
        current.pool.pooled_allocs_per_packet,
        baseline.pool.pooled_allocs_per_packet,
    );
    lower(
        "link.fast_events_per_packet",
        current.link.fast_events_per_packet,
        baseline.link.fast_events_per_packet,
    );

    // Hard invariant, no tolerance: serial/parallel and pooled/reference
    // outputs agree.
    if !current.sweep_fig2_shallow.outputs_identical {
        v.push(Violation {
            metric: "sweep_fig2_shallow.outputs_identical".to_string(),
            baseline: 1.0,
            current: 0.0,
            limit: 1.0,
        });
    }
    v
}

// ----- measurement -----------------------------------------------------------

/// Deterministic 64-bit LCG (MMIX constants) for microbench jitter.
struct Lcg(u64);

impl Lcg {
    fn next_below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// RNG seeds of the two kernel workloads; each seeds both the `EventQueue`
/// arm and its bare-heap twin.
const CHURN_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const CANCEL_HEAVY_SEED: u64 = 0x2545_F491_4F6C_DD1D;

/// `churn` on [`EventQueue`]: pop the minimum and reschedule it. Returns a
/// closure that runs `n` more pops.
fn churn(pending: usize) -> impl FnMut(u64) {
    let mut q = EventQueue::new();
    let mut rng = Lcg(CHURN_SEED);
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i as u64);
    }
    move |n| {
        for _ in 0..n {
            let (at, v) = q.pop().expect("queue held non-empty");
            q.schedule(
                at + SimDuration::from_nanos(rng.next_below(1_000_000) + 1),
                v,
            );
        }
    }
}

/// `cancel_heavy` on [`EventQueue`]: like [`churn`], plus a cancellable
/// timer armed and cancelled per pop (the RTO pattern).
fn cancel_heavy(pending: usize) -> impl FnMut(u64) {
    let mut q = EventQueue::new();
    let mut rng = Lcg(CANCEL_HEAVY_SEED);
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i as u64);
    }
    move |n| {
        for _ in 0..n {
            let (at, v) = q.pop().expect("queue held non-empty");
            let h = q
                .schedule_cancellable(at + SimDuration::from_nanos(rng.next_below(500_000) + 1), v);
            q.cancel(h);
            q.schedule(
                at + SimDuration::from_nanos(rng.next_below(1_000_000) + 1),
                v,
            );
        }
    }
}

/// The same-process reference for both kernel workloads: a bare
/// `BinaryHeap` that pops the minimum and reschedules it, drawing the same
/// RNG stream as its `EventQueue` twin. `cancel_draw` spends the extra draw
/// `cancel_heavy` makes for the timer it cancels.
fn bare_heap(seed: u64, pending: usize, cancel_draw: bool) -> impl FnMut(u64) {
    let mut q = BinaryHeap::new();
    let mut rng = Lcg(seed);
    for i in 0..pending {
        q.push(Reverse((
            SimTime::from_nanos(rng.next_below(1_000_000)),
            i as u64,
        )));
    }
    move |n| {
        for _ in 0..n {
            let Reverse((at, v)) = q.pop().expect("queue held non-empty");
            if cancel_draw {
                rng.next_below(500_000);
            }
            q.push(Reverse((
                at + SimDuration::from_nanos(rng.next_below(1_000_000) + 1),
                v,
            )));
        }
    }
}

/// Run two kernel arms for `events` pops each, alternating in blocks of
/// [`GATE_KERNEL_BLOCK`] pops so a load spike hits both alike. Returns each
/// arm's events/sec over its own timed blocks.
fn interleaved(events: u64, mut a: impl FnMut(u64), mut b: impl FnMut(u64)) -> (f64, f64) {
    let (mut ta, mut tb) = (Duration::ZERO, Duration::ZERO);
    let mut done = 0;
    while done < events {
        let n = GATE_KERNEL_BLOCK.min(events - done);
        let t = Instant::now();
        a(n);
        ta += t.elapsed();
        let t = Instant::now();
        b(n);
        tb += t.elapsed();
        done += n;
    }
    let rate = |t: Duration| events as f64 / t.as_secs_f64();
    (rate(ta), rate(tb))
}

const GATE_KERNEL_SAMPLES: usize = 3;

/// Interleaved (reference, fast) serial sweep samples; the gate reads the
/// medians.
const GATE_SWEEP_SAMPLES: usize = 5;

/// Events each kernel workload holds in flight, and pops per sample.
const GATE_KERNEL_PENDING: usize = 65_536;
const GATE_KERNEL_EVENTS: u64 = 300_000;
/// Pops per timed block of [`interleaved`].
const GATE_KERNEL_BLOCK: u64 = 10_000;

/// ACK hook sequences per controller per sample in the cc microbench.
const GATE_CC_OPS: u64 = 1_000_000;

/// Drive one controller through the sender's per-ACK hook sequence
/// `GATE_CC_OPS` times: `on_ack` + `on_ce_feedback` on every ACK (the hooks
/// the sender calls unconditionally), an RTT sample and a guarded ECN
/// reduction once per ~window. Deterministic — no RNG, fixed CE cadence.
fn cc_on_ack(alg: CcAlg) -> f64 {
    let p = CcParams {
        mss: 1448.0,
        init_cwnd: 10.0 * 1448.0,
        init_ssthresh: (1u64 << 20) as f64,
        dctcp_g: 1.0 / 16.0,
    };
    let mut cc = Cc::new(alg, &p);
    let mut now = 0u64;
    let mut ack = 0u64;
    let start = Instant::now();
    for i in 0..GATE_CC_OPS {
        now += 12_000;
        ack += 1448;
        cc.on_ack(&p, 1448, now);
        cc.on_ce_feedback(&p, 1448, i % 97 == 0, ack, ack + 64 * 1448);
        if i % 64 == 63 {
            cc.on_rtt_sample(&p, 200_000 + (i % 7) * 10_000, now, false);
            cc.on_ece(&p);
        }
    }
    std::hint::black_box(cc.cwnd());
    GATE_CC_OPS as f64 / start.elapsed().as_secs_f64()
}

/// Measure every controller's ACK-path throughput, sampling the controllers
/// round-robin so machine-load noise hits all of them alike, and reduce to
/// per-controller medians plus vs-Reno ratios.
fn cc_section() -> CcSection {
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); CcAlg::ALL.len()];
    for _ in 0..GATE_KERNEL_SAMPLES {
        for (i, &alg) in CcAlg::ALL.iter().enumerate() {
            runs[i].push(cc_on_ack(alg));
        }
    }
    let medians: Vec<f64> = runs.into_iter().map(median).collect();
    let reno = medians[0];
    CcSection {
        ops: GATE_CC_OPS,
        controllers: CcAlg::ALL
            .iter()
            .zip(&medians)
            .map(|(alg, &m)| CcWorkload {
                controller: alg.label().to_string(),
                ops_per_sec: m,
                vs_reno: m / reno,
            })
            .collect(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    v[v.len() / 2]
}

/// Both kernel workloads on [`EventQueue`], each interleaved block by block
/// with its bare-heap twin, reduced to per-workload medians and the median
/// per-sample ratio.
fn kernel_section() -> KernelSection {
    let (p, n) = (GATE_KERNEL_PENDING, GATE_KERNEL_EVENTS);
    let (mut churn_runs, mut cancel_runs) = (Vec::new(), Vec::new());
    for _ in 0..GATE_KERNEL_SAMPLES {
        churn_runs.push(interleaved(n, churn(p), bare_heap(CHURN_SEED, p, false)));
        cancel_runs.push(interleaved(
            n,
            cancel_heavy(p),
            bare_heap(CANCEL_HEAVY_SEED, p, true),
        ));
    }
    let workload = |runs: Vec<(f64, f64)>| KernelWorkload {
        pending: p as u64,
        popped_events: n,
        events_per_sec: median(runs.iter().map(|r| r.0).collect()),
        bare_heap_events_per_sec: median(runs.iter().map(|r| r.1).collect()),
        vs_bare_heap: median(runs.iter().map(|r| r.0 / r.1).collect()),
    };
    KernelSection {
        churn: workload(churn_runs),
        cancel_heavy: workload(cancel_runs),
    }
}

/// The gate's standard point set: the Fig. 2 shallow grid at tiny scale,
/// single seed per point so the set stays CI-cheap. 19 points (one DropTail
/// baseline plus 2 transports × 3 queues × 3 delays).
pub fn gate_grid(seed: u64) -> SweepGrid {
    let mut grid = SweepGrid::tiny();
    grid.config.seed = seed;
    grid.config.seed_count = 1;
    grid
}

fn gate_points(seed: u64) -> (ScenarioConfig, Vec<(Transport, QueueKind, u64)>) {
    let grid = gate_grid(seed);
    let mut points = vec![(Transport::Tcp, QueueKind::DropTail, 500)];
    for &transport in &grid.transports {
        for queue in [
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
        ] {
            for &delay_us in &grid.target_delays_us {
                points.push((transport, queue, delay_us));
            }
        }
    }
    (grid.config, points)
}

/// Run the standard point set through the orchestrator with `jobs` workers
/// (cache disabled — the gate measures execution, never cache hits).
/// Returns (wall seconds, metrics, total events, peak pending).
fn run_gate_sweep(seed: u64, jobs: usize, engine: Engine) -> (f64, Vec<RunMetrics>, u64, u64) {
    let (cfg, points) = gate_points(seed);
    let opts = SweepOptions {
        jobs,
        cache: CacheMode::Disabled,
    };
    let start = Instant::now();
    let (results, _) = crate::simsweep::run_points(&points, &opts, |&(transport, queue, delay)| {
        let (m, report) = run_scenario_once_with(
            &cfg,
            transport,
            queue,
            BufferDepth::Shallow,
            SimDuration::from_micros(delay),
            engine,
        );
        (m, report.events, report.peak_pending as u64)
    });
    let wall = start.elapsed().as_secs_f64();
    let mut metrics = Vec::with_capacity(results.len());
    let mut events = 0u64;
    let mut peak = 0u64;
    for (m, ev, pk) in results {
        events += ev;
        peak = peak.max(pk);
        metrics.push(m);
    }
    (wall, metrics, events, peak)
}

/// The hot-host configuration for the end-to-end/pool/link sections: a
/// 32-host cluster with four map waves, so each host juggles dozens of
/// concurrent shuffle flows. At gate-grid scale (4 hosts, a handful of
/// flows) the seed's per-event endpoint scans and Box-per-packet model are
/// in the noise; at this scale they dominate, which is exactly the regime
/// the overhaul targets.
pub fn hot_host_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny();
    cfg.racks = 2;
    cfg.hosts_per_rack = 16;
    cfg.input_bytes_per_node = 8_000_000;
    cfg.map_waves = 4;
    cfg.seed = seed;
    cfg
}

/// One steady-state DCTCP run (threshold marking, shallow buffers) of the
/// hot-host point on the given engine.
fn dctcp_point(
    seed: u64,
    engine: Engine,
) -> (f64, RunMetrics, netsim::RunReport, netpacket::PoolStats) {
    let cfg = hot_host_config(seed);
    let start = Instant::now();
    let (m, report, pool) = run_scenario_once_full(
        &cfg,
        Transport::Dctcp,
        QueueKind::SimpleMarking,
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
        engine,
        simtrace::TraceHandle::null(),
    );
    (start.elapsed().as_secs_f64(), m, report, pool)
}

/// Measure the full gate report: kernel microbenchmarks, the pool/link
/// sections on the DCTCP point, and the standard point set serial reference
/// vs serial fast vs parallel fast.
pub fn measure(seed: u64) -> BenchReport {
    eprintln!("[bench_gate] kernel microbench (churn, cancel-heavy)...");
    let kernel = kernel_section();
    eprintln!(
        "  churn {:.2}M ev/s ({:.3}x bare heap), cancel-heavy {:.2}M ev/s ({:.3}x bare heap)",
        kernel.churn.events_per_sec / 1e6,
        kernel.churn.vs_bare_heap,
        kernel.cancel_heavy.events_per_sec / 1e6,
        kernel.cancel_heavy.vs_bare_heap,
    );

    eprintln!("[bench_gate] congestion-controller on_ack microbench...");
    let cc = cc_section();
    for w in &cc.controllers {
        eprintln!(
            "  {:<8} {:.2}M ops/s ({:.2}x vs reno)",
            w.controller,
            w.ops_per_sec / 1e6,
            w.vs_reno,
        );
    }

    eprintln!("[bench_gate] hot-host DCTCP point, pooled fast engine...");
    let (fast_pt_s, fast_pt_m, fast_pt_rep, fast_pool) = dctcp_point(seed, Engine::Fast);
    eprintln!(
        "  {:.3}s, {} packets, {} heap allocs, {} events",
        fast_pt_s, fast_pool.inserts, fast_pool.heap_allocs, fast_pt_rep.events
    );
    eprintln!("[bench_gate] hot-host DCTCP point, reference engine...");
    let (ref_pt_s, ref_pt_m, ref_pt_rep, ref_pool) = dctcp_point(seed, Engine::Reference);
    eprintln!(
        "  {:.3}s, {} packets, {} heap allocs, {} events",
        ref_pt_s, ref_pool.inserts, ref_pool.heap_allocs, ref_pt_rep.events
    );
    eprintln!("  end-to-end engine speedup: {:.2}x", ref_pt_s / fast_pt_s);
    let point_identical = fast_pt_m == ref_pt_m;

    // One serial sweep takes a fraction of a second, so a single sample
    // swings by more than the gate's tolerance under load: gate the median
    // of interleaved (reference, fast) samples instead.
    eprintln!(
        "[bench_gate] standard point set, serial reference and fast engines, \
         {GATE_SWEEP_SAMPLES} interleaved samples..."
    );
    let (mut ref_runs, mut serial_runs) = (Vec::new(), Vec::new());
    let (mut ref_outputs, mut serial_outputs) = (Vec::new(), Vec::new());
    for _ in 0..GATE_SWEEP_SAMPLES {
        let (s, m, e, p) = run_gate_sweep(seed, 1, Engine::Reference);
        ref_runs.push(s);
        ref_outputs.push((m, e, p));
        let (s, m, e, p) = run_gate_sweep(seed, 1, Engine::Fast);
        serial_runs.push(s);
        serial_outputs.push((m, e, p));
    }
    let sweep_identical = ref_outputs.windows(2).all(|w| w[0] == w[1])
        && serial_outputs.windows(2).all(|w| w[0] == w[1]);
    let (ref_metrics, ref_events, ref_peak) = ref_outputs.pop().expect("five samples");
    let (serial_metrics, serial_events, serial_peak) = serial_outputs.pop().expect("five samples");
    let summary = |v: Vec<f64>| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
        (median(v), format!("range {lo:.3}-{hi:.3}s"))
    };
    let (ref_s, ref_range) = summary(ref_runs);
    let (serial_s, serial_range) = summary(serial_runs);
    eprintln!("  reference median {ref_s:.3}s ({ref_range}), {ref_events} events");
    eprintln!("  fast median {serial_s:.3}s ({serial_range}), {serial_events} events");
    eprintln!("[bench_gate] standard point set, parallel fast engine (all cores)...");
    let (par_s, par_metrics, par_events, _par_peak) = run_gate_sweep(seed, 0, Engine::Fast);
    eprintln!("  {par_s:.2}s, {par_events} events");

    let identical = serial_metrics == par_metrics
        && serial_metrics == ref_metrics
        && point_identical
        && sweep_identical;
    if !identical {
        eprintln!("[bench_gate] WARNING: serial/parallel or fast/reference outputs differ!");
    }

    let packets = fast_pool.inserts;
    BenchReport {
        description: "Hot-path netbench gate: scheduler kernel microbenchmarks (churn, \
                      cancel-heavy) on the binary-heap EventQueue, gated on the ratio to an \
                      interleaved bare BinaryHeap loop; per-controller \
                      simcc on_ack hot-path microbenchmarks gated on the vs-Reno ratio; a \
                      hot-host DCTCP point run end to end on both engines with packet-arena \
                      allocation accounting and events-per-packet; and the Fig. 2 shallow \
                      standard point set run serially on the reference engine (seed allocation \
                      model + full-scan bookkeeping), serially on the fast engine, and on one worker \
                      per core. outputs_identical asserts serial == parallel AND fast == \
                      reference metrics on every point."
            .to_string(),
        kernel,
        cc,
        end_to_end: EndToEndSection {
            hosts: hot_host_config(seed).hosts() as u64,
            fast_seconds: fast_pt_s,
            reference_seconds: ref_pt_s,
            engine_speedup: ref_pt_s / fast_pt_s,
            fast_events: fast_pt_rep.events,
            reference_events: ref_pt_rep.events,
            fast_events_per_sec: fast_pt_rep.events as f64 / fast_pt_s,
            reference_events_per_sec: ref_pt_rep.events as f64 / ref_pt_s,
        },
        pool: PoolSection {
            packets,
            pooled_heap_allocs: fast_pool.heap_allocs,
            reference_heap_allocs: ref_pool.heap_allocs,
            pooled_allocs_per_packet: fast_pool.heap_allocs as f64 / packets.max(1) as f64,
            pooled_inserts_per_sec: packets as f64 / fast_pt_s,
            reference_inserts_per_sec: ref_pool.inserts as f64 / ref_pt_s,
            high_water: fast_pool.high_water as u64,
        },
        link: LinkSection {
            packets,
            fast_events: fast_pt_rep.events,
            fast_events_per_packet: fast_pt_rep.events as f64 / packets.max(1) as f64,
            reference_events: ref_pt_rep.events,
            reference_events_per_packet: ref_pt_rep.events as f64 / ref_pool.inserts.max(1) as f64,
        },
        sweep_fig2_shallow: SweepSection {
            points: serial_metrics.len() as u64,
            reference_seconds: ref_s,
            fast_seconds: serial_s,
            parallel_seconds: par_s,
            engine_speedup: ref_s / serial_s,
            parallel_speedup: serial_s / par_s,
            fast_events_per_sec: serial_events as f64 / serial_s,
            reference_events_per_sec: ref_events as f64 / ref_s,
            outputs_identical: identical,
            reference_events: ref_events,
            fast_events: serial_events,
            reference_peak_pending: ref_peak,
            fast_peak_pending: serial_peak,
        },
    }
}

// ----- BENCH_8: sharded-engine speedup gate ----------------------------------

/// Shard count of the BENCH_8 parallel arm.
pub const BENCH8_SHARDS: usize = 4;

/// Absolute wall-clock speedup floor at [`BENCH8_SHARDS`] shards. Enforced
/// only when the *measuring* machine exposed at least that many cores
/// (`Bench8Report::cores`): on fewer cores the workers time-slice one
/// another and no parallel speedup is physically expressible, so only the
/// relative-to-baseline gate and the determinism invariant apply there.
pub const BENCH8_MIN_SPEEDUP: f64 = 2.0;

/// Fat-tree order of the BENCH_8 fabric: k=16 → 1024 hosts in 16 pods.
pub const BENCH8_FAT_TREE_K: u32 = 16;

/// The sharded-engine measurement on the 1024-host fat-tree point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSection {
    /// Hosts in the fabric (`k³/4`).
    pub hosts: u64,
    /// Flows launched (bisection permutation + per-pod hotspots).
    pub flows: u64,
    /// Shard count of the parallel arm.
    pub shards: u64,
    /// Wall seconds, windowed engine on one shard (median of samples).
    pub serial_seconds: f64,
    /// Wall seconds, windowed engine on [`BENCH8_SHARDS`] shards (median).
    pub sharded_seconds: f64,
    /// serial / sharded — the gated multi-worker speedup.
    pub speedup: f64,
    /// Simulation events processed (equal across shard counts by the
    /// determinism contract).
    pub events: u64,
    /// Events per wall-second on one shard.
    pub serial_events_per_sec: f64,
    /// Every sample at every shard count produced byte-identical flow
    /// completion times, event counts, end times and mark counters.
    pub outputs_identical: bool,
}

/// The whole report — the `BENCH_8.json` schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bench8Report {
    /// What this report measures.
    pub description: String,
    /// Cores the measuring machine exposed (`available_parallelism`);
    /// decides whether [`BENCH8_MIN_SPEEDUP`] is enforceable.
    pub cores: u64,
    /// The sharded-engine measurement.
    pub shard: ShardSection,
}

/// The BENCH_8 fabric: a k=16 fat-tree (1024 hosts) under DCTCP with
/// threshold marking at the paper's 500 µs target — the hot-host regime of
/// the shuffle measurements, scaled out to where one core cannot keep up.
/// 20 µs link delays set the conservative lookahead window; at this scale
/// each shard processes thousands of events per window, so the epoch
/// barrier amortizes away.
fn bench8_fabric(seed: u64) -> (Topology, Vec<workload::FabricFlow>) {
    let host_rate_bps = 1_000_000_000;
    let topo = Topology::FatTree(FatTreeSpec {
        k: BENCH8_FAT_TREE_K,
        host_link: LinkSpec::gbps(1, 20),
        uplink: LinkSpec::gbps(10, 20),
        switch_qdisc: QdiscSpec::SimpleMarking(SimpleMarkingConfig::from_target_delay(
            SimDuration::from_micros(500),
            host_rate_bps,
            1526,
            100,
        )),
        host_buffer_packets: 4000,
        seed,
    });
    let hosts = topo.total_hosts();
    let flows = fabric_flows(&FabricConfig {
        hosts,
        hosts_per_pod: BENCH8_FAT_TREE_K * BENCH8_FAT_TREE_K / 4,
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
    (topo, flows)
}

/// One BENCH_8 run at a shard count. Returns wall seconds, the run report,
/// and the determinism digest (per-flow completion nanos, in flow order,
/// plus the fabric-wide CE-mark counter).
fn bench8_run(seed: u64, shards: usize) -> (f64, netsim::RunReport, (Vec<u64>, u64)) {
    let (topo, flows) = bench8_fabric(seed);
    let net = Network::from_topology(topo);
    let mut sim = Simulation::new(net, StaticFlows::new(flows));
    sim.time_limit = SimTime::from_secs(30);
    let start = Instant::now();
    let report = sim.run_sharded(shards);
    let wall = start.elapsed().as_secs_f64();
    let completions: Vec<u64> = sim
        .net
        .flows()
        .map(|r| r.completed.map_or(u64::MAX, |t| t.as_nanos()))
        .collect();
    let marked = sim.net.port_stats().total.marked.total();
    (wall, report, (completions, marked))
}

/// Measure the BENCH_8 report: the 1024-host fat-tree point on the windowed
/// engine at one shard and at [`BENCH8_SHARDS`] shards, arms interleaved,
/// medians reported, every sample's output digest cross-checked.
pub fn measure_bench8(seed: u64) -> Bench8Report {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let (_, flows) = bench8_fabric(seed);
    let mut serial_runs = Vec::new();
    let mut sharded_runs = Vec::new();
    let mut digests = Vec::new();
    let mut events = 0u64;
    for i in 0..GATE_KERNEL_SAMPLES {
        eprintln!("[bench_gate] BENCH_8 sample {}: 1 shard...", i + 1);
        let (s, rep, d) = bench8_run(seed, 1);
        eprintln!(
            "  {:.3}s, {} events, app_done={}",
            s, rep.events, rep.app_done
        );
        events = rep.events;
        serial_runs.push(s);
        digests.push((rep.events, rep.end_time, d));
        eprintln!(
            "[bench_gate] BENCH_8 sample {}: {BENCH8_SHARDS} shards...",
            i + 1
        );
        let (p, rep, d) = bench8_run(seed, BENCH8_SHARDS);
        eprintln!(
            "  {:.3}s, {} events, app_done={}",
            p, rep.events, rep.app_done
        );
        sharded_runs.push(p);
        digests.push((rep.events, rep.end_time, d));
    }
    let outputs_identical = digests.windows(2).all(|w| w[0] == w[1]);
    if !outputs_identical {
        eprintln!("[bench_gate] WARNING: BENCH_8 outputs differ across shard counts!");
    }
    let serial = median(serial_runs);
    let sharded = median(sharded_runs);
    let (topo, _) = bench8_fabric(seed);
    Bench8Report {
        description: format!(
            "Sharded-engine speedup gate: a k={BENCH8_FAT_TREE_K} fat-tree (1024 hosts, ECMP) \
             running DCTCP with threshold marking under a bisection permutation plus per-pod \
             hotspot fan-in, on the windowed conservative-lookahead engine at 1 shard vs \
             {BENCH8_SHARDS} shards. speedup gates the multi-worker wall-clock win (absolute \
             floor {BENCH8_MIN_SPEEDUP}x when the machine has >= {BENCH8_SHARDS} cores); \
             outputs_identical asserts every sample at every shard count produced identical \
             completion times, event counts, end times and mark counters."
        ),
        cores,
        shard: ShardSection {
            hosts: topo.total_hosts() as u64,
            flows: flows.len() as u64,
            shards: BENCH8_SHARDS as u64,
            serial_seconds: serial,
            sharded_seconds: sharded,
            speedup: serial / sharded,
            events,
            serial_events_per_sec: events as f64 / serial,
            outputs_identical,
        },
    }
}

/// Compare a measured BENCH_8 report against the baseline. Empty = pass.
pub fn compare_bench8(
    current: &Bench8Report,
    baseline: &Bench8Report,
    tol: &Tolerance,
) -> Vec<Violation> {
    let mut v = Vec::new();
    // The speedup divides two sequential wall-clock arms, so load noise
    // does not cancel — gate with the loose wall-clock tolerance, like the
    // end-to-end engine speedup.
    let cur = current.shard.speedup;
    let base = baseline.shard.speedup;
    let limit = base * (1.0 - tol.wall_clock_frac);
    if !cur.is_finite() || !limit.is_finite() || cur < limit {
        v.push(Violation {
            metric: "shard.speedup".to_string(),
            baseline: base,
            current: cur,
            limit,
        });
    }
    // Absolute floor, independent of the baseline, whenever the measuring
    // machine had the cores to express it. Non-finite never passes.
    if current.cores >= BENCH8_SHARDS as u64 && !(cur.is_finite() && cur >= BENCH8_MIN_SPEEDUP) {
        v.push(Violation {
            metric: "shard.speedup_floor".to_string(),
            baseline: BENCH8_MIN_SPEEDUP,
            current: cur,
            limit: BENCH8_MIN_SPEEDUP,
        });
    }
    // Serial wall clock must not regress past tolerance: the windowed
    // engine's one-shard arm is also the guard against the sharding layer
    // taxing the serial path.
    let cur_s = current.shard.serial_seconds;
    let base_s = baseline.shard.serial_seconds;
    let limit_s = base_s * (1.0 + tol.wall_clock_frac);
    if !cur_s.is_finite() || !limit_s.is_finite() || cur_s > limit_s {
        v.push(Violation {
            metric: "shard.serial_seconds".to_string(),
            baseline: base_s,
            current: cur_s,
            limit: limit_s,
        });
    }
    // Hard determinism invariant, no tolerance.
    if !current.shard.outputs_identical {
        v.push(Violation {
            metric: "shard.outputs_identical".to_string(),
            baseline: 1.0,
            current: 0.0,
            limit: 1.0,
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            description: "test".into(),
            kernel: KernelSection {
                churn: KernelWorkload {
                    pending: 1024,
                    popped_events: 1000,
                    events_per_sec: 3.0e6,
                    bare_heap_events_per_sec: 4.0e6,
                    vs_bare_heap: 0.75,
                },
                cancel_heavy: KernelWorkload {
                    pending: 1024,
                    popped_events: 1000,
                    events_per_sec: 2.0e6,
                    bare_heap_events_per_sec: 4.0e6,
                    vs_bare_heap: 0.5,
                },
            },
            cc: CcSection {
                ops: 1000,
                controllers: CcAlg::ALL
                    .iter()
                    .map(|alg| CcWorkload {
                        controller: alg.label().to_string(),
                        ops_per_sec: 50.0e6,
                        vs_reno: 1.0,
                    })
                    .collect(),
            },
            end_to_end: EndToEndSection {
                hosts: 32,
                fast_seconds: 0.4,
                reference_seconds: 1.2,
                engine_speedup: 3.0,
                fast_events: 1_800_000,
                reference_events: 1_800_000,
                fast_events_per_sec: 4.5e6,
                reference_events_per_sec: 1.5e6,
            },
            pool: PoolSection {
                packets: 100_000,
                pooled_heap_allocs: 32,
                reference_heap_allocs: 100_000,
                pooled_allocs_per_packet: 0.00032,
                pooled_inserts_per_sec: 2.0e6,
                reference_inserts_per_sec: 1.0e6,
                high_water: 64,
            },
            link: LinkSection {
                packets: 100_000,
                fast_events: 250_000,
                fast_events_per_packet: 2.5,
                reference_events: 420_000,
                reference_events_per_packet: 4.2,
            },
            sweep_fig2_shallow: SweepSection {
                points: 19,
                reference_seconds: 4.0,
                fast_seconds: 1.0,
                parallel_seconds: 0.5,
                engine_speedup: 4.0,
                parallel_speedup: 2.0,
                fast_events_per_sec: 1.0e6,
                reference_events_per_sec: 0.5e6,
                outputs_identical: true,
                reference_events: 1_200_000,
                fast_events: 1_000_000,
                reference_peak_pending: 100,
                fast_peak_pending: 100,
            },
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report();
        assert!(compare(&r, &r, &Tolerance::default()).is_empty());
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let base = report();
        let mut cur = report();
        cur.kernel.churn.vs_bare_heap *= 0.95; // -5% < 10%
        cur.kernel.cancel_heavy.events_per_sec *= 0.5; // reported, not gated
        cur.sweep_fig2_shallow.fast_seconds *= 1.05; // +5% < 25%
        cur.sweep_fig2_shallow.engine_speedup *= 0.95;
        cur.link.fast_events_per_packet *= 1.05;
        assert!(compare(&cur, &base, &Tolerance::default()).is_empty());
    }

    #[test]
    fn inflated_baseline_fails_the_gate() {
        // The acceptance scenario: a baseline whose metrics claim more than
        // the tolerance above what we can measure must trip the gate.
        let cur = report();
        let mut base = report();
        base.kernel.churn.vs_bare_heap *= 1.15;
        base.kernel.cancel_heavy.vs_bare_heap *= 1.15;
        base.end_to_end.engine_speedup *= 1.5;
        base.sweep_fig2_shallow.fast_seconds /= 1.4;
        let v = compare(&cur, &base, &Tolerance::default());
        let metrics: Vec<&str> = v.iter().map(|x| x.metric.as_str()).collect();
        assert!(metrics.contains(&"kernel.churn.vs_bare_heap"));
        assert!(metrics.contains(&"kernel.cancel_heavy.vs_bare_heap"));
        assert!(metrics.contains(&"end_to_end.engine_speedup"));
        assert!(metrics.contains(&"sweep_fig2_shallow.fast_seconds"));
    }

    #[test]
    fn wall_clock_regression_fails() {
        let base = report();
        let mut cur = report();
        cur.sweep_fig2_shallow.fast_seconds = base.sweep_fig2_shallow.fast_seconds * 1.4;
        let v = compare(&cur, &base, &Tolerance::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "sweep_fig2_shallow.fast_seconds");
        assert!(v[0].to_string().contains("fast_seconds"));
    }

    #[test]
    fn per_packet_alloc_regression_fails() {
        // The arena's whole point: a pooled run that starts heap-allocating
        // per packet (or scheduling extra events per packet) trips the gate.
        let base = report();
        let mut cur = report();
        cur.pool.pooled_allocs_per_packet = 0.5;
        cur.link.fast_events_per_packet = base.link.fast_events_per_packet * 1.3;
        let v = compare(&cur, &base, &Tolerance::default());
        let metrics: Vec<&str> = v.iter().map(|x| x.metric.as_str()).collect();
        assert!(metrics.contains(&"pool.pooled_allocs_per_packet"));
        assert!(metrics.contains(&"link.fast_events_per_packet"));
    }

    #[test]
    fn controller_ack_path_regression_fails() {
        let base = report();
        let mut cur = report();
        // Prague's on_ack grows 30% slower relative to Reno: outside the
        // 25% cc ratio tolerance.
        cur.cc.controllers.last_mut().unwrap().vs_reno = 0.7;
        let v = compare(&cur, &base, &Tolerance::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "cc.prague.vs_reno");
    }

    #[test]
    fn missing_controller_fails_its_baseline_line() {
        let base = report();
        let mut cur = report();
        cur.cc.controllers.retain(|c| c.controller != "bbr");
        let v = compare(&cur, &base, &Tolerance::default());
        assert!(v.iter().any(|x| x.metric == "cc.bbr.vs_reno"), "{v:?}");
    }

    #[test]
    fn divergent_outputs_fail_unconditionally() {
        let base = report();
        let mut cur = report();
        cur.sweep_fig2_shallow.outputs_identical = false;
        let v = compare(&cur, &base, &Tolerance::default());
        assert!(v
            .iter()
            .any(|x| x.metric == "sweep_fig2_shallow.outputs_identical"));
    }

    #[test]
    fn report_json_roundtrip() {
        let r = report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Schema check: the BENCH_7.json top-level keys.
        assert!(json.contains("\"kernel\""));
        assert!(json.contains("\"cc\""));
        assert!(json.contains("\"vs_reno\""));
        assert!(json.contains("\"pool\""));
        assert!(json.contains("\"link\""));
        assert!(json.contains("\"sweep_fig2_shallow\""));
        assert!(json.contains("\"cancel_heavy\""));
        assert!(json.contains("\"engine_speedup\""));
    }

    #[test]
    fn gate_grid_is_single_seed() {
        let g = gate_grid(7);
        assert_eq!(g.config.seed, 7);
        assert_eq!(g.config.seed_count, 1);
        let (_, points) = gate_points(7);
        assert_eq!(points.len(), 1 + 2 * 3 * 3, "baseline + 2x3x3 grid");
    }

    fn bench8_report() -> Bench8Report {
        Bench8Report {
            description: "test".into(),
            cores: 8,
            shard: ShardSection {
                hosts: 1024,
                flows: 1152,
                shards: 4,
                serial_seconds: 4.0,
                sharded_seconds: 1.6,
                speedup: 2.5,
                events: 10_000_000,
                serial_events_per_sec: 2.5e6,
                outputs_identical: true,
            },
        }
    }

    #[test]
    fn bench8_identical_reports_pass() {
        let r = bench8_report();
        assert!(compare_bench8(&r, &r, &Tolerance::default()).is_empty());
    }

    #[test]
    fn bench8_inflated_baseline_fails() {
        let cur = bench8_report();
        let mut base = bench8_report();
        base.shard.speedup = 4.0; // cur 2.5 < 4.0 * 0.75
        let v = compare_bench8(&cur, &base, &Tolerance::default());
        assert!(v.iter().any(|x| x.metric == "shard.speedup"), "{v:?}");
    }

    #[test]
    fn bench8_floor_enforced_on_multicore() {
        let base = bench8_report();
        let mut cur = bench8_report();
        // Speedup collapses but so does the baseline's bar? No — the floor
        // is absolute: 1.5x at 4 shards on an 8-core machine fails even
        // against a matching baseline.
        cur.shard.speedup = 1.5;
        let mut matching_base = bench8_report();
        matching_base.shard.speedup = 1.5;
        let v = compare_bench8(&cur, &matching_base, &Tolerance::default());
        assert!(v.iter().any(|x| x.metric == "shard.speedup_floor"), "{v:?}");
        // And against the real baseline both lines trip.
        let v = compare_bench8(&cur, &base, &Tolerance::default());
        assert!(v.iter().any(|x| x.metric == "shard.speedup"));
        assert!(v.iter().any(|x| x.metric == "shard.speedup_floor"));
    }

    #[test]
    fn bench8_floor_waived_without_cores() {
        // A 1-core machine cannot express parallel speedup; the absolute
        // floor is waived there (the relative gate and determinism stay).
        let mut cur = bench8_report();
        cur.cores = 1;
        cur.shard.speedup = 0.9;
        let mut base = bench8_report();
        base.cores = 1;
        base.shard.speedup = 0.9;
        assert!(compare_bench8(&cur, &base, &Tolerance::default()).is_empty());
    }

    #[test]
    fn bench8_divergent_outputs_fail_unconditionally() {
        let base = bench8_report();
        let mut cur = bench8_report();
        cur.shard.outputs_identical = false;
        let v = compare_bench8(&cur, &base, &Tolerance::default());
        assert!(v.iter().any(|x| x.metric == "shard.outputs_identical"));
    }

    #[test]
    fn bench8_serial_wall_clock_regression_fails() {
        let base = bench8_report();
        let mut cur = bench8_report();
        cur.shard.serial_seconds = base.shard.serial_seconds * 1.4;
        cur.shard.speedup = base.shard.speedup; // isolate the serial line
        let v = compare_bench8(&cur, &base, &Tolerance::default());
        assert!(
            v.iter().any(|x| x.metric == "shard.serial_seconds"),
            "{v:?}"
        );
    }

    #[test]
    fn bench8_report_json_roundtrip() {
        let r = bench8_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: Bench8Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // Schema check: the BENCH_8.json keys the CI job greps for.
        assert!(json.contains("\"cores\""));
        assert!(json.contains("\"shard\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"outputs_identical\""));
    }

    #[test]
    fn bench8_fabric_is_the_1024_host_point() {
        let (topo, flows) = bench8_fabric(1);
        assert_eq!(topo.total_hosts(), 1024);
        // 1024 bisection elephants + 16 pods x 8 hotspot senders.
        assert_eq!(flows.len(), 1024 + 16 * 8);
    }
}
