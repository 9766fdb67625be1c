//! Per-layer replays for the traced run.
//!
//! Each replay drives one layer's public API in process with the
//! workload's own keys and payload sizes, so a layer's cost can be read
//! without the layers above it. Every replay loop is a span under the
//! `replay` root; wire calls get one span each, since their median is
//! taken from exact per-call samples.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;

use bytes::Bytes;
use ecc_chash::HashRing;
use ecc_core::{PutOutcome, ShardedNode, SlidingWindow, DEFAULT_STRIPES};
use ecc_net::client::RemoteNode;
use ecc_net::protocol::{Request, Response, Status};
use ecc_net::server::CacheServer;
use ecc_workload::driver::Op;

use crate::payload;
use crate::stats::percentile;
use crate::trace::Tracer;

/// B+Tree order every server in this repository is spawned with.
pub const BTREE_ORDER: usize = 64;

/// Trace id shared by every replay span.
pub const REPLAY_TRACE: u64 = u64::MAX;

/// Distinct keys of `keys`, in first-seen order.
pub fn distinct(keys: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    keys.into_iter().filter(|k| seen.insert(*k)).collect()
}

/// Up to `limit` distinct keys whose payloads add up to at most `budget`.
fn fitting(seed: u64, keys: &[u64], budget: u64, limit: usize) -> Vec<u64> {
    let mut total = 0;
    let mut out = Vec::new();
    for k in distinct(keys.iter().copied()) {
        total += payload::len(seed, k) as u64;
        if total > budget || out.len() == limit {
            break;
        }
        out.push(k);
    }
    out
}

/// Time `f` as one span; ns per call over the `calls` calls it makes.
fn per_call(tr: &mut Tracer, name: &'static str, root: u32, calls: usize, f: impl FnOnce()) -> f64 {
    let id = tr.open(name, REPLAY_TRACE, root);
    f();
    tr.close(id);
    tr.span(id).dur_ns() as f64 / calls.max(1) as f64
}

/// `SlidingWindow` replay of a coordinator key stream.
pub struct WindowCost {
    /// ns per `note_query`.
    pub note_ns: f64,
    /// Total time in `end_slice` plus victim scoring, s.
    pub end_slice_busy_s: f64,
    /// Victims the window chose.
    pub victims: u64,
}

/// Replay the reads of `events` through a fresh window, closing a slice at
/// every step boundary as the coordinator does.
pub fn window(
    events: &[(u64, Op, u64)],
    m: usize,
    alpha: f64,
    threshold: f64,
    tr: &mut Tracer,
    root: u32,
) -> WindowCost {
    let mut w = SlidingWindow::new(m, alpha, threshold);
    let (mut notes, mut note_ns, mut slice_ns, mut victims) = (0u64, 0u64, 0u64, 0u64);
    let mut i = 0;
    while i < events.len() {
        let step = events[i].0;
        let end = i + events[i..].iter().take_while(|e| e.0 == step).count();
        let t = tr.open("window.note", REPLAY_TRACE, root);
        for &(_, op, key) in &events[i..end] {
            if op == Op::Read {
                w.note_query(key);
                notes += 1;
            }
        }
        tr.close(t);
        note_ns += tr.span(t).dur_ns();
        let t = tr.open("window.end_slice", REPLAY_TRACE, root);
        if let Some(expired) = w.end_slice() {
            victims += black_box(w.victims(&expired)).len() as u64;
        }
        tr.close(t);
        slice_ns += tr.span(t).dur_ns();
        i = end;
    }
    WindowCost {
        note_ns: note_ns as f64 / notes.max(1) as f64,
        end_slice_busy_s: slice_ns as f64 * 1e-9,
        victims,
    }
}

/// ns per `node_for_key` on `ring` over `keys`.
pub fn chash_lookup_ns(ring: &HashRing<usize>, keys: &[u64], tr: &mut Tracer, root: u32) -> f64 {
    const PASSES: usize = 4;
    per_call(tr, "chash.lookup", root, keys.len() * PASSES, || {
        for _ in 0..PASSES {
            for &k in keys {
                black_box(ring.node_for_key(black_box(k)));
            }
        }
    })
}

/// ns per GET and per PUT exchange through the codec alone: request
/// encode + decode, then response encode + decode.
pub fn protocol_roundtrip_ns(seed: u64, keys: &[u64], tr: &mut Tracer, root: u32) -> (f64, f64) {
    const PASSES: usize = 3;
    let keys = &keys[..keys.len().min(20_000)];
    let values: Vec<Bytes> = keys
        .iter()
        .map(|&k| Bytes::from(payload::make(seed, k)))
        .collect();
    let mut buf = Vec::new();
    let get = per_call(tr, "protocol.get", root, keys.len() * PASSES, || {
        for _ in 0..PASSES {
            for (&key, value) in keys.iter().zip(&values) {
                buf.clear();
                Request::Get { key }.encode_into(&mut buf);
                black_box(Request::decode(&buf[..]));
                buf.clear();
                Response::ok(value.clone()).encode_into(&mut buf);
                black_box(Response::decode(Bytes::copy_from_slice(&buf)));
            }
        }
    });
    let put = per_call(tr, "protocol.put", root, keys.len() * PASSES, || {
        for _ in 0..PASSES {
            for (&key, value) in keys.iter().zip(&values) {
                buf.clear();
                let value = value.clone();
                Request::Put { key, value }.encode_into(&mut buf);
                black_box(Request::decode(&buf[..]));
                buf.clear();
                Response::status(Status::Ok).encode_into(&mut buf);
                black_box(Response::decode(Bytes::copy_from_slice(&buf)));
            }
        }
    });
    (get, put)
}

/// Median serial `RemoteNode` GET and PUT round trips against one warm
/// server of `capacity` bytes, µs.
pub fn wire_p50_us(
    seed: u64,
    keys: &[u64],
    capacity: u64,
    tr: &mut Tracer,
    root: u32,
) -> io::Result<(f64, f64)> {
    const GET_PASSES: usize = 6;
    const PUT_PASSES: usize = 3;
    let keys = fitting(seed, keys, capacity / 2, 1000);
    let server = CacheServer::spawn(capacity, BTREE_ORDER)?;
    let mut node = RemoteNode::connect(server.addr())?;
    // Warm pass: connection, reactor and index all populated.
    for &k in &keys {
        if node.put(k, payload::make(seed, k))? != Status::Ok {
            return Err(io::Error::other("wire replay: warm put refused"));
        }
    }
    let mut check = Ok(());
    for _ in 0..GET_PASSES {
        for &k in &keys {
            let got = tr.time("wire.get", REPLAY_TRACE, root, || node.get(k))?;
            if !got.is_some_and(|v| payload::matches(seed, k, &v)) {
                check = Err(io::Error::other("wire replay: GET returned wrong bytes"));
            }
        }
    }
    for _ in 0..PUT_PASSES {
        for &k in &keys {
            let value = payload::make(seed, k);
            if tr.time("wire.put", REPLAY_TRACE, root, || node.put(k, value))? != Status::Ok {
                check = Err(io::Error::other("wire replay: PUT refused"));
            }
        }
    }
    check?;
    drop(node);
    drop(server);
    let us = |name| percentile(&tr.durations(name), 0.5) as f64 / 1e3;
    Ok((us("wire.get"), us("wire.put")))
}

/// In-process `ShardedNode` costs.
pub struct EngineCost {
    /// ns per `get`.
    pub get_ns: f64,
    /// ns per `put_slice`.
    pub put_ns: f64,
    /// ns per record moved by `drain_range`.
    pub sweep_ns_per_record: f64,
    /// Live payload bytes over carved slot bytes.
    pub slab_occupancy: f64,
}

/// Fill one node of `capacity` bytes with the workload's keys in stream
/// order, then time gets, overwrites, and a full sweep of a replica.
pub fn engine(seed: u64, keys: &[u64], capacity: u64, tr: &mut Tracer, root: u32) -> EngineCost {
    const MIN_CALLS: usize = 200_000;
    let new_node = || ShardedNode::new(capacity, BTREE_ORDER, DEFAULT_STRIPES);
    let values: Vec<(u64, Vec<u8>)> = distinct(keys.iter().copied())
        .into_iter()
        .take(16_384)
        .map(|k| (k, payload::make(seed, k)))
        .collect();
    let node = new_node();
    let id = tr.open("engine.fill", REPLAY_TRACE, root);
    let stored = values
        .iter()
        .take_while(|(k, v)| node.put_slice(*k, v) == PutOutcome::Stored)
        .count();
    tr.close(id);
    let values = &values[..stored];
    let passes = MIN_CALLS.div_ceil(stored.max(1));
    let put_ns = per_call(tr, "engine.put", root, stored * passes, || {
        for _ in 0..passes {
            for (k, v) in values {
                black_box(node.put_slice(*k, v));
            }
        }
    });
    let get_ns = per_call(tr, "engine.get", root, stored * passes, || {
        for _ in 0..passes {
            for (k, _) in values {
                black_box(node.get(black_box(*k)));
            }
        }
    });
    let stats = node.slab_stats();
    let live: u64 = stats.iter().map(|s| s.live_payload_bytes).sum();
    let carved: u64 = stats
        .iter()
        .map(|s| s.total_slots * s.slot_size as u64)
        .sum();
    // Sweep replicas until enough records have moved for a stable rate.
    let mut swept = 0usize;
    let mut sweep_ns = 0u64;
    while swept < MIN_CALLS / 4 {
        let replica = new_node();
        for (k, v) in values {
            replica.put_slice(*k, v);
        }
        let id = tr.open("engine.sweep", REPLAY_TRACE, root);
        let drained = replica.drain_range(0, u64::MAX);
        tr.close(id);
        sweep_ns += tr.span(id).dur_ns();
        swept += drained.len().max(1);
    }
    EngineCost {
        get_ns,
        put_ns,
        sweep_ns_per_record: sweep_ns as f64 / swept as f64,
        slab_occupancy: if carved == 0 {
            0.0
        } else {
            live as f64 / carved as f64
        },
    }
}
