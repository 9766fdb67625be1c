//! The live coordinator: GBA over real sockets.
//!
//! Drives the same [`Planner`] as [`ecc_core::ElasticCache`], but every
//! node is a TCP cache server and every migration travels the wire.
//! Spawning a server thread stands in for booting an EC2 instance. Each
//! elastic operation is a root span over the wire ops it issued.
//!
//! Single-writer assumption: one coordinator owns the ring and is the only
//! writer, as in the paper (queries are "first sent to a coordinating
//! compute node").

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;

use bytes::Bytes;
use ecc_chash::HashRing;
use ecc_core::planner::{Elastic, Move, NodeStore, Planner, Put, DEFAULT_MERGE_FILL};
use ecc_core::SlidingWindow;
use ecc_obs::{ObsEvent, ObsRegistry, ObsSnapshot, SpanGuard, TimeSource};

use crate::client::RemoteNode;
use crate::protocol::Status;
use crate::server::{CacheServer, DEFAULT_MAX_CONNECTIONS};

/// Flush a migration/merge `PutMany` batch once it holds this many items…
const PUT_BATCH_MAX_ITEMS: usize = 512;
/// …or this many payload bytes, whichever comes first (keeps frames well
/// under [`crate::protocol::MAX_FRAME`]).
const PUT_BATCH_MAX_BYTES: usize = 1 << 20;

/// One managed node: the in-process server plus the coordinator's client
/// connection to it.
struct ManagedNode {
    server: CacheServer,
    client: RemoteNode,
}

/// A violated coordinator-internal invariant, surfaced as a typed
/// [`io::Error`] on the operation that found it (the coordinator keeps
/// serving; nothing panics).
fn internal(what: &str) -> io::Error {
    io::Error::other(format!("coordinator invariant violated: {what}"))
}

/// The live elastic-cache coordinator.
pub struct LiveCoordinator {
    planner: Planner<usize>,
    fleet: Fleet,
    /// Contraction cadence in slice expirations.
    pub contraction_epsilon: u64,
    /// Nodes spawned over the coordinator's lifetime.
    pub nodes_spawned: usize,
    /// Bucket splits performed.
    pub splits: usize,
    /// Node merges performed.
    pub merges: usize,
}

/// The cache servers: the [`NodeStore`] the planner drives.
struct Fleet {
    nodes: Vec<Option<ManagedNode>>,
    capacity_bytes: u64,
    btree_order: usize,
    /// Coordinator-side flight recorder + latency histograms.
    obs: ObsRegistry,
    /// Clock epoch shared by the coordinator and every node it spawns, so
    /// span intervals from different recorders are comparable after a
    /// `cluster_obs` merge.
    time: TimeSource,
}

impl LiveCoordinator {
    /// Start a coordinator with one cache server of the given capacity.
    pub fn start(ring_range: u64, capacity_bytes: u64) -> io::Result<LiveCoordinator> {
        let time = TimeSource::real();
        let mut fleet = Fleet {
            nodes: Vec::new(),
            capacity_bytes,
            btree_order: 64,
            obs: ObsRegistry::new(time.clone()),
            time,
        };
        let first = fleet.spawn_node()?;
        Ok(LiveCoordinator {
            planner: Planner::new(ring_range, first, capacity_bytes, DEFAULT_MERGE_FILL, 1),
            fleet,
            contraction_epsilon: 1,
            nodes_spawned: 1,
            splits: 0,
            merges: 0,
        })
    }

    /// Enable sliding-window eviction (`m`, `α`, `T_λ`).
    pub fn enable_window(&mut self, m: usize, alpha: f64, threshold: f64) {
        self.planner
            .set_window(Some(SlidingWindow::new(m, alpha, threshold)));
    }

    /// Number of live cache servers.
    pub fn node_count(&self) -> usize {
        self.fleet.active_ids().len()
    }

    /// Read-only view of the hash ring (load generators route with it).
    pub fn ring(&self) -> &HashRing<usize> {
        self.planner.ring()
    }

    /// The coordinator's own observability registry (structural events,
    /// fan-out and migration latency histograms).
    pub fn obs(&self) -> &ObsRegistry {
        &self.fleet.obs
    }

    /// Cluster-wide observability snapshot: fan out `ObsDump` to every
    /// node, then merge the per-node snapshots with the coordinator's own
    /// (histograms add bucket-wise, events interleave by timestamp).
    pub fn cluster_obs(&mut self) -> io::Result<ObsSnapshot> {
        let mut merged = self.fleet.obs.snapshot();
        for (_, snap) in self.fleet.fan_out(|_, client| client.obs_dump())? {
            merged.merge(&snap);
        }
        Ok(merged)
    }

    /// Address of node `id`'s cache server, if it is active.
    pub fn node_addr(&self, id: usize) -> Option<SocketAddr> {
        self.fleet
            .nodes
            .get(id)
            .and_then(Option::as_ref)
            .map(|n| n.server.addr())
    }

    /// Total `(bytes, records)` across nodes, collected with one
    /// concurrent stats fan-out instead of sequential round-trips.
    pub fn totals(&mut self) -> io::Result<(u64, u64)> {
        let stats = self.fleet.fan_out(|_, client| client.stats())?;
        Ok(stats
            .into_iter()
            .fold((0, 0), |(b, r), (_, (used, n, _))| (b + used, r + n)))
    }

    /// Mirror the planner's and the fleet's counters into the public ones.
    fn settle<T>(&mut self, res: io::Result<T>) -> io::Result<T> {
        self.splits = self.planner.splits() as usize;
        self.merges = self.planner.merges() as usize;
        self.nodes_spawned = self.fleet.nodes.len();
        res
    }

    /// Look up `key` on the owning node.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        self.planner.note_query(key);
        let nid = self.planner.owner(key)?;
        self.fleet.client(nid)?.get(key)
    }

    /// Store `value` under `key`, splitting buckets / spawning servers as
    /// needed (GBA).
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> io::Result<()> {
        let invalid = |what| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        if key >= self.planner.ring().range() {
            return invalid("key outside hash line");
        }
        if value.len() as u64 > self.fleet.capacity_bytes {
            return invalid("record exceeds node capacity");
        }
        let placed = self.planner.insert(&mut self.fleet, key, &value);
        self.settle(placed.map(drop))
    }

    /// Close a time slice: evict expired keys, contract every `ε`
    /// expirations.
    pub fn end_time_step(&mut self) -> io::Result<()> {
        let Some(expired) = self.planner.window_mut().and_then(SlidingWindow::end_slice) else {
            return Ok(());
        };
        let res = self
            .planner
            .expire(&mut self.fleet, &[expired], self.contraction_epsilon);
        self.settle(res)
    }

    /// Merge the two least-loaded nodes when their data fits the threshold.
    pub fn try_contract(&mut self) -> io::Result<()> {
        let res = self.planner.contract(&mut self.fleet);
        self.settle(res)
    }

    /// Audit coordinator-wide invariants: the ring partitions the hash
    /// line, every bucket maps to a live server, every live server owns at
    /// least one bucket, and no server reports more resident bytes than its
    /// capacity. Returns a typed [`io::Error`] on the first violation (the
    /// simulation harness promotes this to a hard failure after every
    /// event).
    pub fn check_invariants(&mut self) -> io::Result<()> {
        self.planner
            .audit(&self.fleet.active_ids())
            .map_err(|e| internal(&e.to_string()))?;
        for (id, (used, _, cap)) in self.fleet.fan_out(|_, client| client.stats())? {
            if used > cap {
                return Err(internal(&format!(
                    "node {id} holds {used} B over its {cap} B capacity"
                )));
            }
        }
        Ok(())
    }

    /// Stop every cache server; each one's listener is closed and its
    /// threads joined by the time this returns.
    pub fn shutdown(&mut self) -> io::Result<()> {
        for node in 0..self.fleet.nodes.len() {
            self.fleet.release(node)?;
        }
        Ok(())
    }
}

impl Drop for LiveCoordinator {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl Fleet {
    /// Run `f` against every active node's client concurrently (one scoped
    /// thread per node) and collect `(node_id, result)` pairs in node
    /// order. The first node error wins; all threads are joined either way.
    ///
    /// When the calling thread has a live span (an elastic operation in
    /// progress), the whole fan-out gets a `coord_fanout` child span and
    /// every worker's wire ops attach under it — the worker threads cannot
    /// see the coordinator's thread-local stack, so the scope is handed to
    /// each client explicitly. With no live span the fan-out is untraced
    /// (`cluster_obs` in particular must stay untraced: a traced `ObsDump`
    /// would dump its own server span mid-flight, start without end).
    fn fan_out<T, F>(&mut self, f: F) -> io::Result<Vec<(usize, T)>>
    where
        T: Send,
        F: Fn(usize, &mut RemoteNode) -> io::Result<T> + Sync,
    {
        let fanout = self.obs.span_follow("coord_fanout");
        let scope = fanout.as_ref().map(|s| (s.trace_id(), s.id()));
        let f = &f;
        let mut out = Vec::new();
        let t0 = self.obs.now_us();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nodes
                .iter_mut()
                .enumerate()
                .filter_map(|(id, slot)| slot.as_mut().map(|n| (id, &mut n.client)))
                .map(|(id, client)| {
                    s.spawn(move || {
                        client.set_trace(scope);
                        let res = f(id, client);
                        client.set_trace(None);
                        (id, res)
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((id, Ok(v))) => out.push((id, v)),
                    Ok((_, Err(e))) => return Err(e),
                    Err(_) => return Err(internal("fan-out worker panicked")),
                }
            }
            Ok(())
        })?;
        // Fan-out joins are quiescent points: no worker may leak a node
        // lock guard past its join. Debug-build check, no-op in release.
        ecc_core::lockorder::assert_quiescent();
        self.obs.record("coord_fanout_us", self.obs.now_us() - t0);
        Ok(out)
    }

    fn active_ids(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| i))
            .collect()
    }

    fn client(&mut self, id: usize) -> io::Result<&mut RemoteNode> {
        self.nodes
            .get_mut(id)
            .and_then(Option::as_mut)
            .map(|n| &mut n.client)
            .ok_or_else(|| internal("ring references an inactive node"))
    }

    fn spawn_node(&mut self) -> io::Result<usize> {
        let id = self.nodes.len();
        // Span-id origins: the coordinator allocates from origin 0, node
        // `id` from origin `id + 1` — distinct per recorder, so merged
        // span ids never collide.
        let server = CacheServer::spawn_clocked(
            ("127.0.0.1", 0),
            self.capacity_bytes,
            self.btree_order,
            DEFAULT_MAX_CONNECTIONS,
            None,
            self.time.clone(),
            id as u32 + 1,
        )?;
        let client = RemoteNode::connect(server.addr())?.with_obs(self.obs.clone());
        self.nodes.push(Some(ManagedNode { server, client }));
        self.obs.emit(ObsEvent::NodeAlloc {
            at_us: self.obs.now_us(),
            node: id as u32,
        });
        Ok(id)
    }

    /// Push `records` onto node `dest` as chunked `PutMany` frames. Any
    /// per-item refusal is an error: migrations move records the
    /// destination was sized to hold, so a refusal is a bug.
    fn put_all(&mut self, dest: usize, records: Vec<(u64, Vec<u8>)>) -> io::Result<()> {
        let client = self.client(dest)?;
        let (mut batch, mut batch_bytes) = (Vec::new(), 0);
        let mut records = records.into_iter().peekable();
        while let Some((k, v)) = records.next() {
            batch_bytes += v.len();
            batch.push((k, Bytes::from(v)));
            let full = batch.len() >= PUT_BATCH_MAX_ITEMS || batch_bytes >= PUT_BATCH_MAX_BYTES;
            if full || records.peek().is_none() {
                let statuses = client.put_many(std::mem::take(&mut batch))?;
                if let Some(s) = statuses.into_iter().find(|&s| s != Status::Ok) {
                    return Err(io::Error::other(format!("migration put failed: {s:?}")));
                }
                batch_bytes = 0;
            }
        }
        Ok(())
    }
}

impl NodeStore<usize> for Fleet {
    type Value = Vec<u8>;
    type Error = io::Error;

    fn obs(&self) -> &ObsRegistry {
        &self.obs
    }

    /// Every elastic operation is a first-class root span: the wire ops it
    /// issues attach under it via the thread-local scope.
    fn scope(&self, op: Elastic) -> Option<SpanGuard> {
        Some(self.obs.span_root(match op {
            Elastic::Split => "elastic_split",
            Elastic::Merge => "elastic_merge",
            Elastic::SliceExpire => "elastic_slice_expire",
        }))
    }

    /// One concurrent stats fan-out.
    fn loads(&mut self) -> io::Result<Vec<(usize, u64)>> {
        let stats = self.fan_out(|_, client| client.stats())?;
        Ok(stats
            .into_iter()
            .map(|(id, (used, _, _))| (id, used))
            .collect())
    }

    fn range_bytes(&mut self, node: usize, lo: u64, hi: u64) -> io::Result<u64> {
        Ok(self.client(node)?.range_stats(lo, hi)?.0)
    }

    fn keys(&mut self, node: usize, lo: u64, hi: u64) -> io::Result<Vec<u64>> {
        self.client(node)?.keys(lo, hi)
    }

    fn put(&mut self, node: usize, key: u64, value: &Vec<u8>) -> io::Result<Put> {
        match self.client(node)?.put(key, value.clone())? {
            Status::Ok => Ok(Put::Stored),
            Status::Overflow => Ok(Put::Overflow),
            s => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected put status {s:?}"),
            )),
        }
    }

    /// Each span is one migration chunk: the source sweep travels back as
    /// record batches and lands on `dest` as chunked `PutMany` frames
    /// instead of one round-trip per record.
    fn migrate(
        &mut self,
        src: usize,
        dest: usize,
        spans: &[(u64, u64)],
        _why: Move,
    ) -> io::Result<(u64, u64)> {
        let t0 = self.obs.now_us();
        let (mut records, mut bytes) = (0, 0);
        for &(lo, hi) in spans {
            let _chunk = self.obs.span_follow("migrate_chunk");
            let swept = self.client(src)?.sweep(lo, hi)?;
            records += swept.len() as u64;
            bytes += swept.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
            self.put_all(dest, swept)?;
        }
        self.obs.record("coord_migrate_us", self.obs.now_us() - t0);
        Ok((records, bytes))
    }

    /// One batched `EvictMany` frame per owning node, fanned out
    /// concurrently; a key counts as removed when its status is `Ok`.
    fn evict_many(
        &mut self,
        batches: &BTreeMap<usize, Vec<u64>>,
    ) -> io::Result<Vec<(usize, Vec<u64>)>> {
        self.fan_out(|id, client| {
            let Some(keys) = batches.get(&id) else {
                return Ok(Vec::new());
            };
            let statuses = client.evict_many(keys)?;
            Ok(keys
                .iter()
                .zip(statuses)
                .filter(|(_, s)| *s == Status::Ok)
                .map(|(&k, _)| k)
                .collect())
        })
    }

    fn alloc(&mut self) -> io::Result<usize> {
        self.spawn_node()
    }

    /// Stop the node's server: its listener closes and its threads and
    /// data are gone before this returns.
    fn release(&mut self, node: usize) -> io::Result<()> {
        if let Some(mut dead) = self.nodes.get_mut(node).and_then(Option::take) {
            dead.server.stop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut c = LiveCoordinator::start(1 << 16, 100_000).unwrap();
        c.put(1, b"one".to_vec()).unwrap();
        c.put(2, b"two".to_vec()).unwrap();
        assert_eq!(c.get(1).unwrap(), Some(b"one".to_vec()));
        assert_eq!(c.get(2).unwrap(), Some(b"two".to_vec()));
        assert_eq!(c.get(3).unwrap(), None);
        c.shutdown().unwrap();
    }

    #[test]
    fn grows_across_real_servers_under_load() {
        // Room for ~10 x 100 B records per node; insert 64 keys.
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        for k in 0..64u64 {
            c.put(k * 1000 + 5, vec![k as u8; 100]).unwrap();
        }
        assert!(c.node_count() >= 6, "only {} nodes", c.node_count());
        assert!(c.splits >= 5);
        // Every record is still reachable through the ring.
        for k in 0..64u64 {
            assert_eq!(
                c.get(k * 1000 + 5).unwrap(),
                Some(vec![k as u8; 100]),
                "key {k} lost"
            );
        }
        let (bytes, records) = c.totals().unwrap();
        assert_eq!(records, 64);
        // Each 100-byte payload occupies a 136-byte slab slot.
        assert_eq!(bytes, 64 * 136);
        c.shutdown().unwrap();
    }

    #[test]
    fn eviction_and_contraction_over_the_wire() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        let grown = c.node_count();
        assert!(grown >= 3);
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        let (_, records) = c.totals().unwrap();
        assert_eq!(records, 0, "eviction should have emptied the cache");
        assert!(c.node_count() < grown, "no contraction");
        assert!(c.merges >= 1);
        c.shutdown().unwrap();
    }

    #[test]
    fn cluster_obs_merges_nodes_and_coordinator() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        let snap = c.cluster_obs().unwrap();
        let counts = snap.event_counts();
        // The grow phase split buckets and spawned nodes; the shrink phase
        // evicted and merged. Every structural family must be on record.
        assert!(counts.get("bucket_split").copied().unwrap_or(0) >= 1);
        assert!(counts.get("node_alloc").copied().unwrap_or(0) >= 2);
        assert!(counts.get("node_merge").copied().unwrap_or(0) >= 1);
        assert!(counts.get("evict_batch").copied().unwrap_or(0) >= 1);
        // Every merge pairs with a dealloc of the drained node.
        assert_eq!(
            counts.get("node_merge"),
            counts.get("node_dealloc"),
            "merge/dealloc pairing broken: {counts:?}"
        );
        // Per-node server histograms merged in. The data path is batched
        // (put_many), and only survivors of the contraction still hold
        // their registries, so assert on ops the survivor served.
        let names: Vec<&String> = snap.hists.keys().collect();
        assert!(
            snap.hist("server_op_us:put_many").is_some(),
            "hists: {names:?}"
        );
        assert!(snap.hist("coord_fanout_us").is_some());
        // The exposition renders and carries quantiles + events.
        let text = snap.render_prometheus();
        assert!(text.contains("ecc_server_op_us{op=\"put_many\",quantile=\"0.99\"}"));
        assert!(text.contains("ecc_events_total{type=\"node_merge\"}"));
        // Events interleave in timestamp order after the merge.
        let times: Vec<u64> = snap.events.iter().map(|e| e.at_us()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        c.shutdown().unwrap();
    }

    #[test]
    fn elastic_operations_trace_as_complete_root_span_trees() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        let (splits, merges) = (c.splits, c.merges);
        assert!(splits >= 1 && merges >= 1, "run exercised no elasticity");
        let snap = c.cluster_obs().unwrap();
        let stats = ecc_obs::verify_spans(&snap.events).expect("cluster span stream well-formed");
        assert!(
            stats.roots >= splits + merges,
            "{} roots for {splits} splits + {merges} merges",
            stats.roots
        );
        // Each root span's id doubles as its trace id: one trace per root.
        assert_eq!(stats.roots, stats.traces);
        let spans = ecc_obs::build_spans(&snap.events).unwrap();
        let count = |k: &str| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(count("elastic_split"), splits);
        assert_eq!(count("elastic_merge"), merges);
        assert!(count("elastic_slice_expire") >= 1);
        assert!(count("coord_fanout") >= 1);
        assert!(count("migrate_chunk") >= splits + merges);
        assert!(count("wire:sweep") >= 1);
        // Surviving nodes dumped the server halves of the traced wire ops.
        assert!(count("srv") >= 1, "no node-side spans in the cluster dump");
        // Fan-out wire ops hang under the coord_fanout span, not the root.
        let fanouts: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == "coord_fanout")
            .map(|s| s.span)
            .collect();
        assert!(spans
            .iter()
            .any(|s| s.kind.starts_with("wire:") && fanouts.contains(&s.parent)));
        c.shutdown().unwrap();
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut c = LiveCoordinator::start(1024, 500).unwrap();
        assert!(c.put(5000, vec![1]).is_err());
        assert!(c.put(1, vec![0; 501]).is_err());
        c.shutdown().unwrap();
    }

    #[test]
    fn released_nodes_stop_listening() {
        let mut c = LiveCoordinator::start(1 << 16, 1000).unwrap();
        c.enable_window(2, 0.99, 0.99f64.powi(1));
        for k in 0..32u64 {
            if c.get(k * 999).unwrap().is_none() {
                c.put(k * 999, vec![1; 100]).unwrap();
            }
        }
        let addrs: Vec<_> = (0..c.nodes_spawned)
            .filter_map(|id| c.node_addr(id))
            .collect();
        for _ in 0..8 {
            c.end_time_step().unwrap();
        }
        assert!(c.merges >= 1, "no contraction to release a node");
        let released: Vec<_> = addrs
            .iter()
            .filter(|a| !(0..c.nodes_spawned).any(|id| c.node_addr(id) == Some(**a)))
            .collect();
        assert_eq!(released.len(), c.merges);
        for addr in released {
            assert!(
                std::net::TcpStream::connect(addr).is_err(),
                "merged node {addr} still accepts connections"
            );
        }
        c.shutdown().unwrap();
        for addr in &addrs {
            assert!(
                std::net::TcpStream::connect(addr).is_err(),
                "node {addr} still accepts connections after shutdown"
            );
        }
    }
}
