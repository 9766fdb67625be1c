//! The elastic planner: the paper's §III decisions, written once.
//!
//! [`Planner`] owns the consistent-hash ring, the sliding window and the
//! split/merge/expiration counters. It decides GBA-Insert's split-and-retry
//! (Algorithm 1), the Sweep-and-Migrate destination (Algorithm 2),
//! λ-window eviction and contraction with bucket coalescing (§III-B), and
//! emits the structural obs events. It never touches a record: it drives a
//! [`NodeStore`], which the simulated cache implements over its
//! `CacheNode` table and the live coordinator over TCP cache servers. A
//! split needs range statistics and keys in the middle of its decision, so
//! the planner calls the store directly (one algorithm over swappable
//! storage) instead of emitting actions for a caller to replay.

use std::collections::BTreeMap;

use ecc_chash::{HashRing, RingAuditError};
use ecc_obs::{ObsEvent, ObsRegistry, SpanGuard};

use crate::error::CacheError;
use crate::window::SlidingWindow;

/// Sanity bound on GBA's split-and-retry loop.
pub(crate) const MAX_SPLIT_RETRIES: u32 = 64;

/// The paper's churn-avoidance merge threshold (§IV-C): contract only when
/// the merged data fills at most 65 % of one node.
pub const DEFAULT_MERGE_FILL: f64 = 0.65;

/// A node handle the planner can store in the ring and name in events.
pub trait NodeKey: Copy + Ord + std::fmt::Debug + std::fmt::Display {
    /// The node's number in observability events.
    fn index(self) -> u32;
}

impl NodeKey for usize {
    fn index(self) -> u32 {
        self as u32
    }
}

/// A store's verdict on one put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Put {
    /// The record is resident on the node.
    Stored,
    /// The record's bytes do not fit; nothing changed.
    Overflow,
}

/// Why records move between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// A split's Sweep-and-Migrate.
    Split {
        /// Whether the destination node was allocated for this move.
        allocated: bool,
    },
    /// A contraction draining one node into another.
    Merge,
}

/// An elastic operation a store may wrap in a scope of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Elastic {
    /// One bucket split, from sizing the buckets to the ring update.
    Split,
    /// One merge, once the contraction probe chose to merge.
    Merge,
    /// One slice close: scoring, eviction and the contraction probe.
    SliceExpire,
}

/// The node fleet the planner decides over. Every method acts on one node
/// (or all of them) and reports what happened; none makes a decision.
pub trait NodeStore<N: NodeKey> {
    /// The record type [`NodeStore::put`] stores.
    type Value;
    /// The store's error; planner-side faults convert into it.
    type Error: From<CacheError>;

    /// The registry the planner emits structural events into.
    fn obs(&self) -> &ObsRegistry;
    /// A guard held for the duration of `op`; `None` opens no scope.
    fn scope(&self, _op: Elastic) -> Option<SpanGuard> {
        None
    }
    /// `(node, used bytes)` for every active node, in node order.
    fn loads(&mut self) -> Result<Vec<(N, u64)>, Self::Error>;
    /// Charged bytes `node` holds in the key range `[lo, hi]`.
    fn range_bytes(&mut self, node: N, lo: u64, hi: u64) -> Result<u64, Self::Error>;
    /// Keys `node` holds in `[lo, hi]`, in key order.
    fn keys(&mut self, node: N, lo: u64, hi: u64) -> Result<Vec<u64>, Self::Error>;
    /// Store `value` under `key` on `node` if its byte growth fits.
    fn put(&mut self, node: N, key: u64, value: &Self::Value) -> Result<Put, Self::Error>;
    /// Move every record of `src` in `spans` to `dest`, span by span;
    /// returns the records and raw payload bytes moved.
    fn migrate(
        &mut self,
        src: N,
        dest: N,
        spans: &[(u64, u64)],
        why: Move,
    ) -> Result<(u64, u64), Self::Error>;
    /// Remove each batch's keys from its node; returns, per node, the keys
    /// that were resident and are now gone, in batch order.
    fn evict_many(
        &mut self,
        batches: &BTreeMap<N, Vec<u64>>,
    ) -> Result<Vec<(N, Vec<u64>)>, Self::Error>;
    /// Bring up a new, empty node.
    fn alloc(&mut self) -> Result<N, Self::Error>;
    /// Take `node` out of service and free it.
    fn release(&mut self, node: N) -> Result<(), Self::Error>;
}

/// A ring-versus-fleet inconsistency found by [`Planner::audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetAuditError<N> {
    /// The ring's own structural audit failed.
    Ring(RingAuditError),
    /// A bucket references a node that is not active.
    DeadNodeReferenced(N),
    /// An active node owns no bucket, so no key reaches it.
    NodeWithoutBucket(N),
    /// The sliding window's structure is corrupt.
    Window(&'static str),
}

impl<N: std::fmt::Display> std::fmt::Display for FleetAuditError<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ring(e) => write!(f, "ring audit failed: {e}"),
            Self::DeadNodeReferenced(n) => write!(f, "ring references inactive node {n}"),
            Self::NodeWithoutBucket(n) => write!(f, "active node {n} owns no bucket"),
            Self::Window(what) => write!(f, "sliding window corrupt: {what}"),
        }
    }
}

fn internal(what: &'static str) -> CacheError {
    CacheError::Internal { what }
}

/// The elastic control plane shared by the simulated and the live cache.
#[derive(Debug, Clone)]
pub struct Planner<N> {
    ring: HashRing<N>,
    window: Option<SlidingWindow>,
    capacity: u64,
    merge_fill: f64,
    min_nodes: usize,
    expirations: u64,
    splits: u64,
    merges: u64,
}

impl<N: NodeKey> Planner<N> {
    /// A planner whose ring `[0, range)` has one bucket, at the top of the
    /// line, owned by `first`, over nodes of `capacity` bytes. Contraction
    /// merges only when the merged data fits `merge_fill` of one node, and
    /// never below `min_nodes` (at least one). No window until one is set.
    pub fn new(range: u64, first: N, capacity: u64, merge_fill: f64, min_nodes: usize) -> Self {
        let mut ring = HashRing::new(range);
        let seeded = ring.insert_bucket(range - 1, first);
        debug_assert!(seeded.is_ok(), "a fresh ring has no bucket to collide with");
        Self {
            ring,
            window: None,
            capacity,
            merge_fill,
            min_nodes: min_nodes.max(1),
            expirations: 0,
            splits: 0,
            merges: 0,
        }
    }

    /// Install (or remove) the eviction window.
    pub fn set_window(&mut self, window: Option<SlidingWindow>) {
        self.window = window;
    }

    /// The consistent-hash ring.
    pub fn ring(&self) -> &HashRing<N> {
        &self.ring
    }

    /// The eviction window, if one is installed.
    pub fn window(&self) -> Option<&SlidingWindow> {
        self.window.as_ref()
    }

    /// Mutable access to the window (slice closing, adaptive resizing).
    pub fn window_mut(&mut self) -> Option<&mut SlidingWindow> {
        self.window.as_mut()
    }

    /// Slice expirations handled so far.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Bucket splits performed (relocations included).
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Node merges performed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Count one query of `key` in the window's open slice.
    pub fn note_query(&mut self, key: u64) {
        if let Some(w) = &mut self.window {
            w.note_query(key);
        }
    }

    /// The node owning `key`.
    pub fn owner(&self, key: u64) -> Result<N, CacheError> {
        self.ring
            .node_for_key(key)
            .copied()
            .ok_or(internal("ring has no buckets"))
    }

    /// Algorithm 1, GBA-Insert: put `value` on the key's owner, splitting
    /// the owner on overflow and retrying. Returns the node that took it.
    pub fn insert<S>(&mut self, store: &mut S, key: u64, value: &S::Value) -> Result<N, S::Error>
    where
        S: NodeStore<N>,
    {
        for _ in 0..MAX_SPLIT_RETRIES {
            let nid = self.owner(key)?;
            match store.put(nid, key, value)? {
                Put::Stored => return Ok(nid),
                Put::Overflow => self.split(store, nid)?,
            }
        }
        Err(CacheError::SplitLoopExceeded.into())
    }

    /// Algorithm 1 lines 8–15: find the fullest bucket `b_max` of `nid`,
    /// sweep `[min(b_max), k^µ]` to another node and thread a new bucket
    /// at `k^µ`. A bucket holding fewer than two keys cannot be
    /// median-split; it is relocated whole instead (possible after merges
    /// fragment the line into small buckets), unless it is the node's
    /// only bucket.
    pub fn split<S: NodeStore<N>>(&mut self, store: &mut S, nid: N) -> Result<(), S::Error> {
        let _scope = store.scope(Elastic::Split);
        let buckets = self.ring.buckets_of_node(&nid);
        let Some(&first) = buckets.first() else {
            return Err(internal("active node owns no bucket").into());
        };
        let (mut b_max, mut best) = (first, 0);
        for &b in &buckets {
            let mut bytes = 0;
            for (lo, hi) in self.spans_of_bucket(b)? {
                bytes += store.range_bytes(nid, lo, hi)?;
            }
            if bytes >= best {
                (b_max, best) = (b, bytes);
            }
        }
        // Keys of b_max's arc in circular order, from min(b_max).
        let spans = self.spans_of_bucket(b_max)?;
        let mut keys = Vec::new();
        for &(lo, hi) in &spans {
            keys.extend(store.keys(nid, lo, hi)?);
        }
        let (bucket, move_spans) = if keys.len() < 2 {
            if buckets.len() < 2 {
                // A lone bucket with <= 1 key that still overflows: a
                // single record nearly fills the node.
                return Err(CacheError::CannotSplit { bucket: b_max }.into());
            }
            (b_max, spans)
        } else {
            // k^µ: the median key, backing off if its position collides
            // with an existing bucket (the arc's own endpoint).
            let mut mu = keys.len() / 2;
            while mu > 0 && self.ring.node_of_bucket(keys[mu]).is_some() {
                mu -= 1;
            }
            let k_mu = keys[mu];
            if self.ring.node_of_bucket(k_mu).is_some() {
                return Err(CacheError::CannotSplit { bucket: b_max }.into());
            }
            let truncated = truncate_spans_at(&spans, k_mu)
                .ok_or(internal("median key not inside its own bucket's spans"))?;
            (k_mu, truncated)
        };
        let dest = self.sweep_migrate(store, nid, &move_spans)?;
        let placed = if bucket == b_max {
            self.ring.remap_bucket(bucket, dest).map(drop)
        } else {
            self.ring.insert_bucket(bucket, dest)
        };
        placed.map_err(|_| internal("split bucket vanished or collided"))?;
        self.splits += 1;
        let obs = store.obs();
        obs.emit(ObsEvent::BucketSplit {
            at_us: obs.now_us(),
            node: nid.index(),
            new_node: dest.index(),
            bucket,
        });
        Ok(())
    }

    /// Algorithm 2's destination: the least-loaded other node if the swept
    /// bytes fit there, else a newly allocated one (greedy: allocation is
    /// the expensive step). Moves the spans and returns the destination.
    fn sweep_migrate<S: NodeStore<N>>(
        &mut self,
        store: &mut S,
        src: N,
        spans: &[(u64, u64)],
    ) -> Result<N, S::Error> {
        let mut total = 0;
        for &(lo, hi) in spans {
            total += store.range_bytes(src, lo, hi)?;
        }
        let reuse = store
            .loads()?
            .into_iter()
            .filter(|&(id, _)| id != src)
            .min_by_key(|&(_, used)| used)
            .filter(|&(_, used)| used + total <= self.capacity);
        let (dest, allocated) = match reuse {
            Some((id, _)) => (id, false),
            None => (store.alloc()?, true),
        };
        let at_us = store.obs().now_us();
        let (records, bytes) = store.migrate(src, dest, spans, Move::Split { allocated })?;
        let obs = store.obs();
        obs.emit(ObsEvent::SweepMigrate {
            at_us,
            src: src.index(),
            dest: dest.index(),
            records,
            bytes,
            duration_us: obs.now_us() - at_us,
            allocated,
        });
        Ok(dest)
    }

    /// Handle closed window slices that expired: evict the keys scoring
    /// `λ(k) < T_λ` against the window that remains, grouped per owner,
    /// and every `epsilon` expirations probe for contraction.
    pub fn expire<S: NodeStore<N>>(
        &mut self,
        store: &mut S,
        expired: &[BTreeMap<u64, u32>],
        epsilon: u64,
    ) -> Result<(), S::Error> {
        self.expirations += 1;
        let _scope = store.scope(Elastic::SliceExpire);
        let victims: Vec<u64> = match &self.window {
            Some(w) => expired.iter().flat_map(|e| w.victims(e)).collect(),
            None => Vec::new(),
        };
        let obs = store.obs();
        obs.emit(ObsEvent::SliceExpire {
            at_us: obs.now_us(),
            expiration: self.expirations,
            victims: victims.len() as u64,
        });
        let mut batches: BTreeMap<N, Vec<u64>> = BTreeMap::new();
        for key in victims {
            if let Some(&nid) = self.ring.node_for_key(key) {
                batches.entry(nid).or_default().push(key);
            }
        }
        if !batches.is_empty() {
            let removed = store.evict_many(&batches)?;
            let obs = store.obs();
            let at_us = obs.now_us();
            for (node, keys) in removed.into_iter().filter(|(_, k)| !k.is_empty()) {
                obs.emit(ObsEvent::EvictBatch {
                    at_us,
                    node: node.index(),
                    keys,
                });
            }
        }
        if self.expirations.is_multiple_of(epsilon) {
            self.contract(store)?;
        }
        Ok(())
    }

    /// Contraction: drain the least-loaded node into the next least-loaded
    /// one if their combined data fits the merge threshold, coalesce the
    /// survivor's buckets and release the drained node.
    pub fn contract<S: NodeStore<N>>(&mut self, store: &mut S) -> Result<(), S::Error> {
        let mut loads = store.loads()?;
        if loads.len() <= self.min_nodes {
            return Ok(());
        }
        loads.sort_by_key(|&(_, used)| used);
        let ((a, a_used), (b, b_used)) = (loads[0], loads[1]);
        if a_used + b_used > (self.merge_fill * self.capacity as f64) as u64 {
            return Ok(());
        }
        let _scope = store.scope(Elastic::Merge);
        let at_us = store.obs().now_us();
        let (records, _) = store.migrate(a, b, &[(0, self.ring.range() - 1)], Move::Merge)?;
        self.reassign(a, b)?;
        store.obs().emit(ObsEvent::NodeMerge {
            at_us,
            src: a.index(),
            dest: b.index(),
            records,
        });
        store.release(a)?;
        let obs = store.obs();
        obs.emit(ObsEvent::NodeDealloc {
            at_us: obs.now_us(),
            node: a.index(),
        });
        self.merges += 1;
        Ok(())
    }

    /// Point every bucket of `from` at `to`, then coalesce: a bucket of
    /// `to` whose successor also maps to `to` is redundant, and removing it
    /// hands its arc over with no data movement. This keeps the line from
    /// fragmenting into unsplittable singleton buckets across grow/shrink
    /// cycles.
    pub fn reassign(&mut self, from: N, to: N) -> Result<(), CacheError> {
        let vanished = |_| internal("bucket vanished while reassigning");
        for b in self.ring.buckets_of_node(&from) {
            self.ring.remap_bucket(b, to).map_err(vanished)?;
        }
        for b in self.ring.buckets_of_node(&to) {
            if self.ring.len() <= 1 {
                break;
            }
            let succ = self.ring.successor(b).map_err(vanished)?;
            if succ != b && self.ring.node_of_bucket(succ) == Some(&to) {
                self.ring.remove_bucket(b).map_err(vanished)?;
            }
        }
        Ok(())
    }

    /// Circular spans of the arc owned by bucket `b`, in sweep order
    /// (starting at `min(b)`).
    pub fn spans_of_bucket(&self, b: u64) -> Result<Vec<(u64, u64)>, CacheError> {
        let pred = self
            .ring
            .predecessor(b)
            .map_err(|_| internal("bucket vanished while computing its arc"))?;
        Ok(circular_spans(pred, b, self.ring.range()))
    }

    /// Check the ring against the fleet: the ring is sound, references only
    /// `active` nodes, and every active node owns a bucket; and the window
    /// is structurally consistent.
    pub fn audit(&self, active: &[N]) -> Result<(), FleetAuditError<N>> {
        self.ring
            .check_invariants()
            .map_err(FleetAuditError::Ring)?;
        if let Some((_, &n)) = self.ring.buckets().find(|(_, n)| !active.contains(n)) {
            return Err(FleetAuditError::DeadNodeReferenced(n));
        }
        if let Some(&n) = active
            .iter()
            .find(|n| self.ring.buckets_of_node(n).is_empty())
        {
            return Err(FleetAuditError::NodeWithoutBucket(n));
        }
        let window = self.window.as_ref().map(SlidingWindow::check_invariants);
        window.unwrap_or(Ok(())).map_err(FleetAuditError::Window)
    }
}

/// The positions `(pred, pos]` on a circular line of range `r`, as inclusive
/// spans in *circular order* starting just after `pred`. `pred == pos`
/// denotes a single-bucket ring owning the full line.
fn circular_spans(pred: u64, pos: u64, r: u64) -> Vec<(u64, u64)> {
    if pred == pos {
        if pos == r - 1 {
            vec![(0, r - 1)]
        } else {
            vec![(pos + 1, r - 1), (0, pos)]
        }
    } else if pred < pos {
        vec![(pred + 1, pos)]
    } else if pred == r - 1 {
        vec![(0, pos)]
    } else {
        vec![(pred + 1, r - 1), (0, pos)]
    }
}

/// Truncate circular spans at `k_mu` (inclusive): the migration range
/// `[min(b_max), k^µ]` of Algorithm 1. `None` when `k_mu` lies outside the
/// spans.
fn truncate_spans_at(spans: &[(u64, u64)], k_mu: u64) -> Option<Vec<(u64, u64)>> {
    let mut out = Vec::with_capacity(spans.len());
    for &(lo, hi) in spans {
        if (lo..=hi).contains(&k_mu) {
            out.push((lo, k_mu));
            return Some(out);
        }
        out.push((lo, hi));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_spans_cases() {
        // Contiguous.
        assert_eq!(circular_spans(10, 20, 100), vec![(11, 20)]);
        // Wrapping.
        assert_eq!(circular_spans(90, 5, 100), vec![(91, 99), (0, 5)]);
        // Wrap with empty upper part.
        assert_eq!(circular_spans(99, 5, 100), vec![(0, 5)]);
        // Single bucket at r-1.
        assert_eq!(circular_spans(99, 99, 100), vec![(0, 99)]);
        // Single bucket mid-line.
        assert_eq!(circular_spans(40, 40, 100), vec![(41, 99), (0, 40)]);
    }

    #[test]
    fn truncate_spans_at_median() {
        assert_eq!(truncate_spans_at(&[(11, 20)], 15), Some(vec![(11, 15)]));
        assert_eq!(
            truncate_spans_at(&[(91, 99), (0, 5)], 3),
            Some(vec![(91, 99), (0, 3)])
        );
        assert_eq!(
            truncate_spans_at(&[(91, 99), (0, 5)], 95),
            Some(vec![(91, 95)])
        );
    }

    #[test]
    fn truncate_requires_containment() {
        assert_eq!(truncate_spans_at(&[(0, 5)], 10), None);
    }
}
