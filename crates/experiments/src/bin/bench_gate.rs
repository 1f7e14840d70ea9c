//! Benchmark regression gate: measure the standard point set, emit
//! `BENCH_7.json`, compare against the committed baseline, exit nonzero on
//! regression.
//!
//! Usage:
//!   `bench_gate [--out PATH] [--baseline PATH] [--seed N]`
//!       measure, write `--out` (default `BENCH_7.json`), compare against
//!       `--baseline` (default `BENCH_7_baseline.json`); exit 1 on any
//!       metric outside tolerance, 2 on IO/usage errors.
//!   `bench_gate --write-baseline [--baseline PATH] [--seed N]`
//!       measure and (re)write the baseline instead of comparing — run this
//!       on the reference machine when a deliberate perf change lands.
//!   `bench_gate --compare-only CURRENT [--baseline PATH]`
//!       skip measurement; compare an existing report file (used by tests
//!       and for post-hoc analysis of CI artifacts).
//!
//! `bench_gate --bench8 [same flags]` runs the sharded-engine speedup gate
//! instead: measure the 1024-host fat-tree point at 1 vs 4 shards, emit
//! `BENCH_8.json` (default `--out`), compare against `BENCH_8_baseline.json`
//! (default `--baseline`) — gating the multi-worker speedup (absolute 2x
//! floor on machines with ≥4 cores) and shard-count output identity.
//!
//! Tolerances: the kernel `vs_bare_heap` ratios may fall ≤10% (the gate's
//! `KERNEL_RATIO_FRAC`); wall-clock, events/sec, ratio and per-packet
//! metrics may regress ≤25%; output divergence (serial vs parallel, fast vs
//! reference, sharded vs serial) fails outright. See `experiments::gate`.

use experiments::gate::{
    compare, compare_bench8, measure, measure_bench8, Bench8Report, BenchReport, Tolerance,
    BENCH8_MIN_SPEEDUP, BENCH8_SHARDS,
};
use experiments::report::write_json;
use serde::Deserialize;
use std::path::{Path, PathBuf};

fn die(msg: &str) -> ! {
    eprintln!("[bench_gate] {msg}");
    std::process::exit(2);
}

fn load_report<R: Deserialize>(path: &Path) -> R {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("cannot parse {}: {e}", path.display())))
}

struct Args {
    out: PathBuf,
    baseline_path: PathBuf,
    compare_only: Option<PathBuf>,
    write_baseline: bool,
    seed: u64,
    bench8: bool,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let bench8 = raw.iter().any(|a| a == "--bench8");
    let mut args = Args {
        out: PathBuf::from(if bench8 {
            "BENCH_8.json"
        } else {
            "BENCH_7.json"
        }),
        baseline_path: PathBuf::from(if bench8 {
            "BENCH_8_baseline.json"
        } else {
            "BENCH_7_baseline.json"
        }),
        compare_only: None,
        write_baseline: false,
        seed: 20170905u64,
        bench8,
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench8" => {}
            "--out" => match it.next() {
                Some(p) => args.out = PathBuf::from(p),
                None => die("--out needs a path"),
            },
            "--baseline" => match it.next() {
                Some(p) => args.baseline_path = PathBuf::from(p),
                None => die("--baseline needs a path"),
            },
            "--compare-only" => match it.next() {
                Some(p) => args.compare_only = Some(PathBuf::from(p)),
                None => die("--compare-only needs a report path"),
            },
            "--write-baseline" => args.write_baseline = true,
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => args.seed = s,
                _ => die("--seed needs an unsigned integer value"),
            },
            other => die(&format!(
                "unknown argument {other}; supported: --bench8 --out PATH --baseline PATH \
                 --compare-only PATH --write-baseline --seed N"
            )),
        }
    }
    args
}

fn bench8_main(args: Args) {
    let current: Bench8Report = match &args.compare_only {
        Some(path) => load_report(path),
        None => {
            let report = measure_bench8(args.seed);
            let target = if args.write_baseline {
                &args.baseline_path
            } else {
                &args.out
            };
            if let Err(e) = write_json(&report, target) {
                die(&format!("cannot write {}: {e}", target.display()));
            }
            eprintln!("[bench_gate] wrote {}", target.display());
            if args.write_baseline {
                eprintln!("[bench_gate] baseline refreshed; not comparing");
                return;
            }
            report
        }
    };

    let baseline: Bench8Report = load_report(&args.baseline_path);
    let violations = compare_bench8(&current, &baseline, &Tolerance::default());
    println!("== bench8 gate vs {} ==", args.baseline_path.display());
    println!(
        "fabric: {} hosts, {} flows, {} events",
        current.shard.hosts, current.shard.flows, current.shard.events,
    );
    println!(
        "shards: serial {:.2}s, {} shards {:.2}s — speedup {:.2}x \
         (floor {BENCH8_MIN_SPEEDUP}x on >= {BENCH8_SHARDS} cores; this report: {} cores), \
         outputs identical: {}",
        current.shard.serial_seconds,
        current.shard.shards,
        current.shard.sharded_seconds,
        current.shard.speedup,
        current.cores,
        current.shard.outputs_identical,
    );
    if violations.is_empty() {
        println!("PASS: all gated metrics within tolerance");
        return;
    }
    println!("FAIL: {} metric(s) regressed:", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    if args.bench8 {
        bench8_main(args);
        return;
    }
    let Args {
        out,
        baseline_path,
        compare_only,
        write_baseline,
        seed,
        ..
    } = args;

    let current: BenchReport = match &compare_only {
        Some(path) => load_report(path),
        None => {
            let report = measure(seed);
            let target = if write_baseline { &baseline_path } else { &out };
            if let Err(e) = write_json(&report, target) {
                die(&format!("cannot write {}: {e}", target.display()));
            }
            eprintln!("[bench_gate] wrote {}", target.display());
            if write_baseline {
                eprintln!("[bench_gate] baseline refreshed; not comparing");
                return;
            }
            report
        }
    };

    let baseline: BenchReport = load_report(&baseline_path);
    let violations = compare(&current, &baseline, &Tolerance::default());
    println!("== bench gate vs {} ==", baseline_path.display());
    println!(
        "end-to-end ({} hosts): reference {:.2}s, fast {:.2}s ({:.2}x, {:.2}M ev/s)",
        current.end_to_end.hosts,
        current.end_to_end.reference_seconds,
        current.end_to_end.fast_seconds,
        current.end_to_end.engine_speedup,
        current.end_to_end.fast_events_per_sec / 1e6,
    );
    println!(
        "sweep: {} points, reference {:.2}s, fast {:.2}s ({:.2}x), parallel {:.2}s, \
         outputs identical: {}",
        current.sweep_fig2_shallow.points,
        current.sweep_fig2_shallow.reference_seconds,
        current.sweep_fig2_shallow.fast_seconds,
        current.sweep_fig2_shallow.engine_speedup,
        current.sweep_fig2_shallow.parallel_seconds,
        current.sweep_fig2_shallow.outputs_identical,
    );
    println!(
        "kernel: churn {:.2}M ev/s (baseline {:.2}M), cancel-heavy {:.2}M ev/s (baseline {:.2}M)",
        current.kernel.churn.events_per_sec / 1e6,
        baseline.kernel.churn.events_per_sec / 1e6,
        current.kernel.cancel_heavy.events_per_sec / 1e6,
        baseline.kernel.cancel_heavy.events_per_sec / 1e6,
    );
    let cc_line: Vec<String> = current
        .cc
        .controllers
        .iter()
        .map(|w| {
            format!(
                "{} {:.1}M ops/s ({:.2}x)",
                w.controller,
                w.ops_per_sec / 1e6,
                w.vs_reno
            )
        })
        .collect();
    println!("cc on_ack: {}", cc_line.join(", "));
    println!(
        "pool: {} packets, {} pooled heap allocs (reference {}), {:.2}M inserts/s",
        current.pool.packets,
        current.pool.pooled_heap_allocs,
        current.pool.reference_heap_allocs,
        current.pool.pooled_inserts_per_sec / 1e6,
    );
    println!(
        "link: {:.2} events/packet fast vs {:.2} reference",
        current.link.fast_events_per_packet, current.link.reference_events_per_packet,
    );
    if violations.is_empty() {
        println!("PASS: all gated metrics within tolerance");
        return;
    }
    println!("FAIL: {} metric(s) regressed:", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    std::process::exit(1);
}
