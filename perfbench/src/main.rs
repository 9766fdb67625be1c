//! End-to-end and per-layer benchmark of the live elastic cache cluster.
//!
//! ```text
//! perfbench --workload <elastic_live|write_growth> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the real TCP cluster through public APIs only.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! repeats the run with benchmark-side spans around every layer call,
//! replays each layer on the workload's keys, prints the per-layer ledger
//! and writes the spans to `target/spans/` beside this package. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod coord;
mod cpu;
mod layers;
mod payload;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ecc_chash::HashRing;

use crate::cpu::CpuLedger;
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;

/// Run length, in `--seconds`, at which the coordinator workloads replay
/// their scenario's full horizon; shorter runs replay a prefix.
pub const FULL_HORIZON_SECONDS: u64 = 60;

/// End-to-end metrics, `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("hit_ratio", "ratio"),
    ("mean_nodes", "nodes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `--trace 1`: name and unit. A layer a workload does
/// not use reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("coordinator.get.count", "count"),
    ("coordinator.get.busy_s", "s"),
    ("coordinator.get.p50_us", "us"),
    ("coordinator.get.p99_us", "us"),
    ("coordinator.put.count", "count"),
    ("coordinator.put.busy_s", "s"),
    ("coordinator.put.p99_us", "us"),
    ("coordinator.step_close.count", "count"),
    ("coordinator.step_close.busy_s", "s"),
    ("coordinator.step_close.p99_ms", "ms"),
    ("coordinator.split.count", "count"),
    ("coordinator.split.busy_s", "s"),
    ("coordinator.split.p99_ms", "ms"),
    ("coordinator.merge.count", "count"),
    ("coordinator.spawn.count", "count"),
    ("coordinator.migrate.bytes_per_put_byte", "ratio"),
    ("coordinator.residual_us", "us"),
    ("window.note_ns", "ns"),
    ("window.end_slice.busy_s", "s"),
    ("window.victims.count", "count"),
    ("chash.lookup_ns", "ns"),
    ("protocol.get.roundtrip_ns", "ns"),
    ("protocol.put.roundtrip_ns", "ns"),
    ("wire.get.p50_us", "us"),
    ("wire.put.p50_us", "us"),
    ("wire.residual_us", "us"),
    ("reactor.cpu_s", "s"),
    ("reactor.cpu_us_per_op", "us"),
    ("reactor.cpu_share", "ratio"),
    ("reactor.frames_per_wake", "frames"),
    ("driver.cpu_s", "s"),
    ("process.cpu_s", "s"),
    ("threads.peak", "count"),
    ("engine.get_ns", "ns"),
    ("engine.put_ns", "ns"),
    ("engine.sweep_ns_per_record", "ns"),
    ("slab.occupancy", "ratio"),
    ("engine.bytes_per_user_byte", "ratio"),
    ("trace.overhead_us", "us"),
    ("trace.spans", "count"),
];

/// One consecutive slice of the timed run, summarised when it closes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    /// Wall time, s.
    pub secs: f64,
    /// Queries completed.
    pub n: usize,
    /// Exact nearest-rank median latency, ns.
    pub p50_ns: u64,
    /// Exact nearest-rank 90th-percentile latency, ns.
    pub p90_ns: u64,
    /// Exact nearest-rank 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Samples strictly above `p99_ns`.
    pub beyond_p99: usize,
}

impl Window {
    /// Summarise `lat_ns`, the latencies of `secs` of wall time, and empty
    /// it; its capacity is kept for the next window.
    pub fn close(lat_ns: &mut Vec<u64>, secs: f64) -> Window {
        lat_ns.sort_unstable();
        let w = Window {
            secs,
            n: lat_ns.len(),
            p50_ns: percentile(lat_ns, 0.5),
            p90_ns: percentile(lat_ns, 0.9),
            p99_ns: percentile(lat_ns, 0.99),
            beyond_p99: beyond(lat_ns, 0.99),
        };
        lat_ns.clear();
        w
    }
}

/// What a timed run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// The timed run's consecutive windows.
    pub windows: Vec<Window>,
    /// GETs issued.
    pub gets: u64,
    /// GETs that found a record.
    pub hits: u64,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that failed or returned wrong bytes.
    pub failed: u64,
    /// Live nodes averaged over time steps and key streams.
    pub mean_nodes: f64,
    /// Peak resident set once the last timed run ended, MiB.
    pub peak_rss_mb: f64,
}

impl E2e {
    /// Queries completed within the windows.
    pub fn queries(&self) -> usize {
        self.windows.iter().map(|w| w.n).sum()
    }

    /// Timed wall time, s.
    pub fn elapsed_s(&self) -> f64 {
        self.windows.iter().map(|w| w.secs).sum()
    }

    /// Fewest samples beyond p99 in any window.
    pub fn thinnest_tail(&self) -> usize {
        self.windows.iter().map(|w| w.beyond_p99).min().unwrap_or(0)
    }

    /// `(ops/s, p50 µs, p90 µs, p99 µs)`, each the median over the
    /// windows, so that a burst of interference from the host in a few
    /// windows cannot move them far.
    pub fn window_medians(&self) -> (f64, f64, f64, f64) {
        let per =
            |f: &dyn Fn(&Window) -> f64| median(&self.windows.iter().map(f).collect::<Vec<_>>());
        (
            per(&|w| w.n as f64 / w.secs),
            per(&|w| w.p50_ns as f64 / 1e3),
            per(&|w| w.p90_ns as f64 / 1e3),
            per(&|w| w.p99_ns as f64 / 1e3),
        )
    }
}

/// Per-layer metric values by name (see [`PER_LAYER`]).
pub type Layer = BTreeMap<&'static str, f64>;

/// Output checks: `(what was checked, passed)`.
pub type Checks = Vec<(String, bool)>;

/// Per-layer metrics every traced pass yields: coordinator call spans,
/// per-class CPU, the threads the pass added to the `threads_before` alive
/// when it began, and the tracing overhead (traced minus untraced p50).
pub fn pass_layers(
    tr: &Tracer,
    traced: &E2e,
    cpu: &CpuLedger,
    threads_before: usize,
    untraced: &E2e,
) -> Layer {
    let mut l = Layer::new();
    let mut calls = |name: &'static str, count: &'static str, busy: &'static str| {
        let d = tr.durations(name);
        l.insert(count, d.len() as f64);
        l.insert(busy, d.iter().sum::<u64>() as f64 * 1e-9);
        d
    };
    let get = calls(
        "coordinator.get",
        "coordinator.get.count",
        "coordinator.get.busy_s",
    );
    let put = calls(
        "coordinator.put",
        "coordinator.put.count",
        "coordinator.put.busy_s",
    );
    let close = calls(
        "coordinator.step_close",
        "coordinator.step_close.count",
        "coordinator.step_close.busy_s",
    );
    let split = calls(
        "coordinator.split",
        "coordinator.split.count",
        "coordinator.split.busy_s",
    );
    l.insert("coordinator.get.p50_us", percentile(&get, 0.5) as f64 / 1e3);
    l.insert(
        "coordinator.get.p99_us",
        percentile(&get, 0.99) as f64 / 1e3,
    );
    l.insert(
        "coordinator.put.p99_us",
        percentile(&put, 0.99) as f64 / 1e3,
    );
    l.insert(
        "coordinator.step_close.p99_ms",
        percentile(&close, 0.99) as f64 / 1e6,
    );
    l.insert(
        "coordinator.split.p99_ms",
        percentile(&split, 0.99) as f64 / 1e6,
    );
    let c = cpu.totals();
    l.insert("reactor.cpu_s", c.reactor_s);
    l.insert(
        "reactor.cpu_us_per_op",
        c.reactor_s * 1e6 / traced.queries().max(1) as f64,
    );
    l.insert(
        "reactor.cpu_share",
        if c.process_s > 0.0 {
            c.reactor_s / c.process_s
        } else {
            0.0
        },
    );
    l.insert("driver.cpu_s", c.driver_s);
    l.insert("process.cpu_s", c.process_s);
    l.insert(
        "threads.peak",
        cpu.threads_peak.saturating_sub(threads_before) as f64,
    );
    l.insert(
        "trace.overhead_us",
        traced.window_medians().1 - untraced.window_medians().1,
    );
    l
}

/// Replay the chash, protocol, wire and engine layers on `keys`.
pub fn replay_layers(
    l: &mut Layer,
    seed: u64,
    keys: &[u64],
    ring: &HashRing<usize>,
    capacity: u64,
    tr: &mut Tracer,
    root: u32,
) -> io::Result<()> {
    l.insert(
        "chash.lookup_ns",
        layers::chash_lookup_ns(ring, keys, tr, root),
    );
    let (get, put) = layers::protocol_roundtrip_ns(seed, keys, tr, root);
    l.insert("protocol.get.roundtrip_ns", get);
    l.insert("protocol.put.roundtrip_ns", put);
    let (get, put) = layers::wire_p50_us(seed, keys, capacity, tr, root)?;
    l.insert("wire.get.p50_us", get);
    l.insert("wire.put.p50_us", put);
    let e = layers::engine(seed, keys, capacity, tr, root);
    l.insert("engine.get_ns", e.get_ns);
    l.insert("engine.put_ns", e.put_ns);
    l.insert("engine.sweep_ns_per_record", e.sweep_ns_per_record);
    l.insert("slab.occupancy", e.slab_occupancy);
    Ok(())
}

/// The named residuals: the part of a layer's median no layer below it
/// accounts for. The coordinator residual exists only where the workload
/// went through the coordinator.
pub fn residuals(l: &mut Layer) {
    let v = |l: &Layer, k: &str| l.get(k).copied().unwrap_or(0.0);
    let wire = v(l, "wire.get.p50_us")
        - v(l, "engine.get_ns") / 1e3
        - v(l, "protocol.get.roundtrip_ns") / 1e3;
    l.insert("wire.residual_us", wire);
    let coord = if v(l, "coordinator.get.count") > 0.0 {
        v(l, "coordinator.get.p50_us") - v(l, "wire.get.p50_us") - v(l, "chash.lookup_ns") / 1e3
    } else {
        0.0
    };
    l.insert("coordinator.residual_us", coord);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(FULL_HORIZON_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(pairs: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_ledger(tr: &Tracer, l: &Layer, e2e: &E2e) {
    let t = trace::self_times(tr.spans());
    println!("ledger: span self time (span minus the time its children cover)");
    println!(
        "  {:<28} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "total_ms", "self_ms", "self/span"
    );
    for (name, lt) in &t {
        println!(
            "  {:<28} {:>9} {:>12.3} {:>12.3} {:>7.0}ns",
            name,
            lt.count,
            lt.total_ns as f64 / 1e6,
            lt.self_ns as f64 / 1e6,
            lt.self_ns as f64 / lt.count.max(1) as f64
        );
    }
    let v = |k: &str| l.get(k).copied().unwrap_or(0.0);
    println!(
        "residual coordinator.residual_us = coordinator.get.p50_us {:.3} - wire.get.p50_us {:.3} - chash.lookup_ns/1e3 {:.4} = {:.3} us",
        v("coordinator.get.p50_us"),
        v("wire.get.p50_us"),
        v("chash.lookup_ns") / 1e3,
        v("coordinator.residual_us")
    );
    println!(
        "residual wire.residual_us = wire.get.p50_us {:.3} - engine.get_ns/1e3 {:.4} - protocol.get.roundtrip_ns/1e3 {:.4} = {:.3} us",
        v("wire.get.p50_us"),
        v("engine.get_ns") / 1e3,
        v("protocol.get.roundtrip_ns") / 1e3,
        v("wire.residual_us")
    );
    println!(
        "cpu: reactor {:.3} s ({:.1}% of process {:.3} s), driver {:.3} s, {:.2} us reactor CPU per op, {} threads added at peak",
        v("reactor.cpu_s"),
        100.0 * v("reactor.cpu_share"),
        v("process.cpu_s"),
        v("driver.cpu_s"),
        v("reactor.cpu_us_per_op"),
        v("threads.peak")
    );
    println!(
        "tracing overhead: traced query p50 - untraced query p50 = {:.3} us over {} traced queries",
        v("trace.overhead_us"),
        e2e.queries()
    );
}

fn run(args: &Args) -> io::Result<(bool, u64, u64, String)> {
    let mut tracer = Tracer::new(Instant::now());
    let tr = args.trace.then_some(&mut tracer);
    let (e2e, checks, layer) = match args.workload.as_str() {
        "elastic_live" => coord::run(&coord::ELASTIC_LIVE, args.seed, args.seconds, tr)?,
        "write_growth" => coord::run(&coord::WRITE_GROWTH, args.seed, args.seconds, tr)?,
        w => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {w}"),
            ))
        }
    };
    let n = e2e.queries();
    let thin = e2e.thinnest_tail();
    if n == 0 || thin < 10 {
        return Err(io::Error::other(format!(
            "a window of {n} query samples has {thin} beyond p99, fewer than 10; run longer"
        )));
    }
    let mut correct = e2e.failed == 0;
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    let (ops, p50, p90, p99) = e2e.window_medians();
    let e2e_values = [
        e2e.setup_s,
        ops,
        p50,
        p90,
        e2e.hits as f64 / e2e.gets.max(1) as f64,
        e2e.mean_nodes,
        e2e.peak_rss_mb,
    ];
    let error_ratio = e2e.failed as f64 / e2e.attempted.max(1) as f64;
    let pass = if args.trace { "traced pass, " } else { "" };
    println!(
        "workload {} seed {} ({pass}{n} queries in {:.3} s, {} windows; rates and percentiles are medians over windows)",
        args.workload,
        args.seed,
        e2e.elapsed_s(),
        e2e.windows.len()
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e_values) {
        let samples = match *name {
            "query_p50_us" | "query_p90_us" => {
                format!(" (n={n}; each window has >= {thin} beyond its p99)")
            }
            _ => String::new(),
        };
        println!("  {name:<14} {v:>14.4} {unit}{samples}");
    }
    println!(
        "  {:<14} {:>14.4} us (median of the windows' p99, printed only)",
        "query_p99_us", p99
    );
    println!("  whole run: {:.4} ops/s", n as f64 / e2e.elapsed_s());
    println!(
        "  {:<14} {:>14.4} ratio ({} of {} failed)",
        "error_ratio", error_ratio, e2e.failed, e2e.attempted
    );
    let metrics: Vec<(&str, &str, f64)> = match layer {
        None => END_TO_END
            .iter()
            .zip(e2e_values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        Some(mut l) => {
            residuals(&mut l);
            l.insert("trace.spans", tracer.spans().len() as f64);
            print_ledger(&tracer, &l, &e2e);
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("target/spans")
                .join(format!("{}-seed{}.tsv", args.workload, args.seed));
            tracer.write_tsv(&path)?;
            println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            );
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, l.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
    };
    Ok((correct, e2e.attempted, e2e.failed, json_metrics(&metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <elastic_live|write_growth> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
