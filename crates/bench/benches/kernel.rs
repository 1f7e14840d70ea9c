//! Simulation-kernel microbenchmarks: scheduler throughput on the
//! binary-heap `EventQueue` and one Fig. 2 scenario point per engine.
//! `bench_gate` measures the same churn workload with its own timing loop
//! for `BENCH_7.json`; this bench keeps it under criterion for regression
//! tracking.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use experiments::scenario::{
    run_scenario_once_traced, run_scenario_once_with, BufferDepth, Engine, QueueKind,
    ScenarioConfig, Transport,
};
use simevent::{EventQueue, SimDuration, SimTime};
use simtrace::{NullSink, TraceHandle};

/// Deterministic 64-bit LCG (MMIX constants) for workload jitter.
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

/// Hold-and-churn: keep `pending` events in flight, pop and reschedule with
/// up to 1 ms of jitter (see `experiments::gate` for the BENCH_7.json
/// version).
fn churn(mut q: EventQueue<u64>, pending: usize, events: u64) {
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i as u64);
    }
    for _ in 0..events {
        let (at, v) = q.pop().expect("queue held non-empty");
        q.schedule(
            at + SimDuration::from_nanos(rng.next_below(1_000_000) + 1),
            v,
        );
    }
}

fn bench_queue(c: &mut Criterion) {
    const PENDING: usize = 65_536;
    const EVENTS: u64 = 100_000;
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("heap_churn", |b| {
        b.iter(|| churn(black_box(EventQueue::new()), PENDING, EVENTS))
    });
    g.finish();
}

fn bench_engines(c: &mut Criterion) {
    let cfg = ScenarioConfig::tiny();
    let point = |engine| {
        run_scenario_once_with(
            &cfg,
            Transport::Dctcp,
            QueueKind::SimpleMarking,
            BufferDepth::Shallow,
            SimDuration::from_micros(500),
            engine,
        )
    };
    let mut g = c.benchmark_group("fig2_point_engines");
    g.sample_size(10);
    g.bench_function("reference", |b| {
        b.iter(|| black_box(point(Engine::Reference)))
    });
    g.bench_function("fast", |b| b.iter(|| black_box(point(Engine::Fast))));
    g.finish();
}

/// Trace-overhead tiers on the same Fig. 2 point. A [`NullSink`] handle now
/// collapses to the disabled tier at construction, so both arms must be
/// indistinguishable: one predictable branch per emission site, no
/// per-packet `TraceEvent` construction, no lock, no virtual call. The
/// assertion group below pins the structural half of that claim.
fn bench_trace_overhead(c: &mut Criterion) {
    let cfg = ScenarioConfig::tiny();
    let point = |trace: TraceHandle| {
        run_scenario_once_traced(
            &cfg,
            Transport::Dctcp,
            QueueKind::SimpleMarking,
            BufferDepth::Shallow,
            SimDuration::from_micros(500),
            Engine::Fast,
            trace,
        )
    };
    let mut g = c.benchmark_group("fig2_point_trace");
    g.sample_size(10);
    g.bench_function("untraced", |b| {
        b.iter(|| black_box(point(TraceHandle::null())))
    });
    g.bench_function("null_sink", |b| {
        b.iter(|| black_box(point(TraceHandle::new(Box::new(NullSink)))))
    });
    g.finish();
}

/// Assertion group for the zero-cost claim: a `NullSink` handle IS the
/// disabled tier. If this regresses (someone re-enables the recorder path
/// for discard sinks), every per-packet emission site in the batched
/// dequeue path silently starts building `TraceEvent`s again — a perf bug
/// no timing bench reliably catches, so it is pinned structurally here.
fn assert_null_sink_is_free(c: &mut Criterion) {
    let h = TraceHandle::new(Box::new(NullSink));
    assert!(
        !h.is_enabled(),
        "NullSink handle must collapse to the disabled tier"
    );
    let mut g = c.benchmark_group("trace_null_zero_cost");
    g.sample_size(10);
    g.bench_function("emission_site_guard", |b| {
        // The whole per-packet cost of the NullSink tier: one branch.
        b.iter(|| black_box(black_box(&h).is_enabled()))
    });
    g.finish();
}

criterion_group!(
    kernel,
    bench_queue,
    bench_engines,
    bench_trace_overhead,
    assert_null_sink_is_free
);
criterion_main!(kernel);
