//! The coordinator workloads, `elastic_live` and `write_growth`.
//!
//! One driver thread plays the workflow engine: it sends each query to
//! `LiveCoordinator` and waits for the answer before the next (a closed
//! loop of one client, since the coordinator is a `&mut self` single
//! writer). A read is `get`, then `put` of the derived result on a miss; a
//! write is `put`. `end_time_step` runs at every step boundary, inside the
//! timed window.

use std::io;
use std::time::Instant;

use ecc_net::client::RemoteNode;
use ecc_net::coordinator::LiveCoordinator;
use ecc_obs::ObsEvent;
use ecc_workload::driver::Op;
use ecc_workload::scenario::Scenario;

use crate::cpu::CpuLedger;
use crate::layers;
use crate::payload;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Checks, E2e, Layer, Window};

/// Decay of the eviction window, as in the paper's experiments.
pub const ALPHA: f64 = 0.99;
/// Coordinator start-ups timed per run, each stream's first among them;
/// `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Queries per window of a timed run: 30 windows over `elastic_live`'s
/// horizon and 18 over `write_growth`'s, each with 25 samples beyond its
/// p99. Rates and percentiles are medians over the windows, so a stall of
/// the host that spans a few windows does not move them.
const WINDOW_QUERIES: usize = 2500;
/// Keys read back through the coordinator after a `write_growth` run.
const READBACK_SAMPLE: usize = 256;

/// One coordinator workload.
pub struct Spec {
    /// `ecc_workload` scenario its keys come from.
    pub scenario: &'static str,
    /// Bytes per cache node.
    pub capacity: u64,
    /// Window length `m` in time steps; `None` leaves eviction off.
    pub window: Option<usize>,
    /// Key streams replayed per run, each from its own seed on a fresh
    /// cluster. More than one where the fleet's growth path differs
    /// widely between seeds, so that a run averages over paths.
    pub streams: u64,
}

/// Paper §IV-C: eviction phases over 32 Ki uniform keys, m = 50.
pub const ELASTIC_LIVE: Spec = Spec {
    scenario: "paper_shoreline",
    capacity: 1 << 20,
    window: Some(50),
    streams: 2,
};

/// Half writes over 32 Ki uniform keys, no window: the fleet only grows.
pub const WRITE_GROWTH: Spec = Spec {
    scenario: "write_heavy",
    capacity: 1 << 20,
    window: None,
    streams: 1,
};

/// Extra bookkeeping of the traced pass.
struct Traced<'a> {
    tr: &'a mut Tracer,
    cpu: CpuLedger,
    obs_cursor: u64,
    events_lost: bool,
    migrated_bytes: u64,
    put_bytes: u64,
}

impl Traced<'_> {
    /// Drain the coordinator's flight recorder since the last look.
    fn poll(&mut self, coord: &LiveCoordinator) {
        for (seq, ev) in coord.obs().events_since(self.obs_cursor) {
            self.events_lost |= seq != self.obs_cursor;
            self.obs_cursor = seq + 1;
            if let ObsEvent::SweepMigrate { bytes, .. } = ev {
                self.migrated_bytes += bytes;
            }
        }
    }
}

/// What one pass over the key stream measured.
struct Pass {
    coord: LiveCoordinator,
    e2e: E2e,
    put_keys: Vec<bool>,
}

fn start(spec: &Spec, space: u64) -> io::Result<LiveCoordinator> {
    let mut coord = LiveCoordinator::start(space, spec.capacity)?;
    if let Some(m) = spec.window {
        coord.enable_window(m, ALPHA, ALPHA.powi(m as i32 - 1));
    }
    Ok(coord)
}

fn pass(
    spec: &Spec,
    seed: u64,
    events: &[(u64, Op, u64)],
    space: u64,
    mut traced: Option<&mut Traced>,
) -> io::Result<Pass> {
    let t = Instant::now();
    let mut coord = start(spec, space)?;
    let setup_s = t.elapsed().as_secs_f64();
    if let Some(t) = traced.as_deref_mut() {
        t.obs_cursor = coord.obs().next_seq();
        t.cpu = CpuLedger::start();
    }

    let mut e2e = E2e {
        setup_s,
        ..E2e::default()
    };
    let mut put_keys = vec![false; space as usize];
    let mut nodes_sum = 0u64;
    let mut steps = 0u64;
    let mut cur_step = events.first().map_or(0, |e| e.0);
    let mut lat_ns = Vec::with_capacity(WINDOW_QUERIES);
    let mut windows = Vec::new();
    let mut win_start = Instant::now();
    let mut close_step =
        |coord: &mut LiveCoordinator, traced: &mut Option<&mut Traced>| -> io::Result<()> {
            match traced.as_deref_mut() {
                Some(t) => {
                    t.cpu.sample();
                    t.tr.time("coordinator.step_close", steps, 0, || coord.end_time_step())?;
                    t.poll(coord);
                }
                None => coord.end_time_step()?,
            }
            steps += 1;
            nodes_sum += coord.node_count() as u64;
            Ok(())
        };
    for (i, &(step, op, key)) in events.iter().enumerate() {
        if step != cur_step {
            close_step(&mut coord, &mut traced)?;
            cur_step = step;
        }
        let value = payload::make(seed, key);
        let value_len = value.len() as u64;
        let trace_id = i as u64;
        let root = traced
            .as_deref_mut()
            .map_or(0, |t| t.tr.open("query", trace_id, 0));
        let splits_before = coord.splits;
        let (mut hit, mut ok, mut put_span) = (false, true, 0);
        e2e.attempted += 1;
        let t0 = Instant::now();
        let repair = match op {
            Op::Read => {
                let got = match traced.as_deref_mut() {
                    Some(t) => {
                        t.tr.time("coordinator.get", trace_id, root, || coord.get(key))
                    }
                    None => coord.get(key),
                };
                match got {
                    Ok(Some(v)) => {
                        hit = true;
                        ok = payload::matches(seed, key, &v);
                        None
                    }
                    // A miss stores the derived result: the repair put.
                    Ok(None) => Some(value),
                    Err(_) => {
                        ok = false;
                        None
                    }
                }
            }
            Op::Write => Some(value),
        };
        if let Some(value) = repair {
            let res = match traced.as_deref_mut() {
                Some(t) => {
                    put_span = t.tr.open("coordinator.put", trace_id, root);
                    let res = coord.put(key, value);
                    t.tr.close(put_span);
                    res
                }
                None => coord.put(key, value),
            };
            ok &= res.is_ok();
            put_keys[key as usize] |= res.is_ok();
        }
        lat_ns.push(t0.elapsed().as_nanos() as u64);
        if lat_ns.len() == WINDOW_QUERIES {
            windows.push(Window::close(
                &mut lat_ns,
                win_start.elapsed().as_secs_f64(),
            ));
            win_start = Instant::now();
        }
        if let Some(t) = traced.as_deref_mut() {
            t.tr.close(root);
            if put_span != 0 {
                t.put_bytes += value_len;
                if coord.splits > splits_before {
                    // The put that split: its whole interval is split work.
                    let s = t.tr.span(put_span);
                    t.tr.record(
                        "coordinator.split",
                        trace_id,
                        put_span,
                        s.start_ns,
                        s.end_ns,
                    );
                    t.poll(&coord);
                }
            }
        }
        e2e.gets += u64::from(op == Op::Read);
        e2e.hits += u64::from(hit);
        e2e.failed += u64::from(!ok);
    }
    close_step(&mut coord, &mut traced)?;
    // A short tail makes a window of its own only if it is long enough
    // to be one.
    if lat_ns.len() >= WINDOW_QUERIES / 2 || windows.is_empty() {
        windows.push(Window::close(
            &mut lat_ns,
            win_start.elapsed().as_secs_f64(),
        ));
    }
    e2e.windows = windows;
    e2e.peak_rss_mb = crate::cpu::peak_rss_mb();
    e2e.mean_nodes = nodes_sum as f64 / steps.max(1) as f64;
    if let Some(t) = traced {
        t.cpu.sample();
    }
    Ok(Pass {
        coord,
        e2e,
        put_keys,
    })
}

/// Seed of key stream `i` of a run with `seed`; stream 0 uses `seed`.
pub fn stream_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i << 32)
}

/// Steps of `scenario` a run of `seconds` covers: the full horizon at
/// [`crate::FULL_HORIZON_SECONDS`] and above, a proportional prefix below.
pub fn horizon(default_steps: u64, seconds: u64) -> u64 {
    (default_steps * seconds.min(crate::FULL_HORIZON_SECONDS)).div_ceil(crate::FULL_HORIZON_SECONDS)
}

/// Output checks run after the timed window; returns `(name, passed)`.
fn check(spec: &Spec, seed: u64, p: &mut Pass) -> Checks {
    let mut checks = vec![(
        "coordinator invariants".to_string(),
        p.coord.check_invariants().is_ok(),
    )];
    if spec.window.is_none() {
        let distinct = p.put_keys.iter().filter(|&&b| b).count() as u64;
        let records = p.coord.totals().map(|t| t.1).unwrap_or(u64::MAX);
        checks.push((
            format!("records {records} == distinct keys put {distinct}"),
            records == distinct,
        ));
        let put: Vec<u64> = (0..p.put_keys.len() as u64)
            .filter(|&k| p.put_keys[k as usize])
            .collect();
        let mut exact = !put.is_empty();
        for i in 0..READBACK_SAMPLE.min(put.len()) as u64 {
            let k = put[(payload::mix(seed ^ i) % put.len() as u64) as usize];
            exact &= matches!(p.coord.get(k), Ok(Some(v)) if payload::matches(seed, k, &v));
        }
        checks.push((
            format!("{READBACK_SAMPLE} sampled keys read back byte-exact"),
            exact,
        ));
    }
    checks
}

/// Run one coordinator workload: an untraced pass over each key stream.
/// `trace` keeps only the first stream and adds a traced pass over it,
/// followed by the per-layer replays.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: Option<&mut Tracer>,
) -> io::Result<(E2e, Checks, Option<Layer>)> {
    let sc =
        Scenario::by_name(spec.scenario).ok_or_else(|| io::Error::other("unknown scenario"))?;
    let space = sc.dist().space();
    let steps = horizon(sc.default_steps(), seconds);
    let mut plain = E2e::default();
    let mut setups = Vec::new();
    let mut checks = Checks::new();
    // A traced run reports per-layer metrics only; its untraced pass is
    // the first stream's, the baseline of the tracing overhead.
    let streams = if trace.is_some() { 1 } else { spec.streams };
    for i in 0..streams {
        let s = stream_seed(seed, i);
        let events: Vec<(u64, Op, u64)> = sc.events(s, steps).collect();
        let mut p = pass(spec, s, &events, space, None)?;
        checks.extend(check(spec, s, &mut p));
        let e = p.e2e;
        setups.push(e.setup_s);
        plain.windows.extend(e.windows);
        plain.gets += e.gets;
        plain.hits += e.hits;
        plain.attempted += e.attempted;
        plain.failed += e.failed;
        plain.mean_nodes += e.mean_nodes / streams as f64;
        // VmHWM only grows: this is the peak of every stream so far.
        plain.peak_rss_mb = e.peak_rss_mb;
    }
    // The other set-ups run after the timed runs, so that what they leave
    // behind cannot reach `peak_rss_mb` or the runs themselves.
    while setups.len() < SETUP_REPS {
        let t = Instant::now();
        drop(start(spec, space)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    plain.setup_s = median(&setups);
    let Some(tr) = trace else {
        return Ok((plain, checks, None));
    };
    let events: Vec<(u64, Op, u64)> = sc.events(seed, steps).collect();

    // Threads the untraced pass left behind are not the traced pass's.
    let threads_before = crate::cpu::live_threads();
    let mut t = Traced {
        tr,
        cpu: CpuLedger::start(),
        obs_cursor: 0,
        events_lost: false,
        migrated_bytes: 0,
        put_bytes: 0,
    };
    let mut p = pass(spec, seed, &events, space, Some(&mut t))?;
    checks.extend(check(spec, seed, &mut p));
    checks.push((
        "coordinator events drained without loss".to_string(),
        !t.events_lost,
    ));
    let mut l = crate::pass_layers(t.tr, &p.e2e, &t.cpu, threads_before, &plain);
    l.insert("coordinator.split.count", p.coord.splits as f64);
    l.insert("coordinator.merge.count", p.coord.merges as f64);
    l.insert("coordinator.spawn.count", p.coord.nodes_spawned as f64);
    l.insert(
        "coordinator.migrate.bytes_per_put_byte",
        t.migrated_bytes as f64 / t.put_bytes.max(1) as f64,
    );
    let frames = p
        .coord
        .cluster_obs()?
        .hist("reactor_frames_per_wake")
        .map_or(0.0, |h| h.mean());
    l.insert("reactor.frames_per_wake", frames);
    // Resident payload bytes: list every live node's keys on a side
    // connection.
    let mut resident = 0u64;
    for id in 0..p.coord.nodes_spawned {
        if let Some(addr) = p.coord.node_addr(id) {
            let keys = RemoteNode::connect(addr)?.keys(0, space - 1)?;
            resident += keys
                .iter()
                .map(|&k| payload::len(seed, k) as u64)
                .sum::<u64>();
        }
    }
    l.insert(
        "engine.bytes_per_user_byte",
        p.coord.totals()?.0 as f64 / resident.max(1) as f64,
    );
    let ring = p.coord.ring().clone();
    drop(p.coord);

    let keys: Vec<u64> = events.iter().map(|e| e.2).collect();
    let root = t.tr.open("replay", layers::REPLAY_TRACE, 0);
    if let Some(m) = spec.window {
        let w = layers::window(&events, m, ALPHA, ALPHA.powi(m as i32 - 1), t.tr, root);
        l.insert("window.note_ns", w.note_ns);
        l.insert("window.end_slice.busy_s", w.end_slice_busy_s);
        l.insert("window.victims.count", w.victims as f64);
    }
    crate::replay_layers(&mut l, seed, &keys, &ring, spec.capacity, t.tr, root)?;
    t.tr.close(root);
    let mut e2e = p.e2e;
    e2e.attempted += plain.attempted;
    e2e.failed += plain.failed;
    Ok((e2e, checks, Some(l)))
}
