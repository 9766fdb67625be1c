//! The live TCP deployment and the simulated cache implement the same
//! protocol: driven with the same operations, they must agree on cache
//! contents, placement behaviour and growth.

use elastic_cloud_cache::net::coordinator::LiveCoordinator;
use elastic_cloud_cache::prelude::*;

/// Deterministic pseudo-random key sequence.
fn key_seq(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % (1 << 16)
        })
        .collect()
}

#[test]
fn live_and_simulated_caches_agree_on_contents() {
    let capacity = 16 * 1024u64; // 16 records of 1 KiB
    let mut live = LiveCoordinator::start(1 << 16, capacity).unwrap();

    let mut cfg = CacheConfig::small_test();
    cfg.ring_range = 1 << 16;
    cfg.node_capacity_bytes = capacity;
    cfg.btree_order = 64;
    let mut sim = ElasticCache::new(cfg);

    let keys = key_seq(120, 99);
    for &key in &keys {
        let value = vec![(key % 251) as u8; 1024];
        // Only insert once per distinct key (like a miss-driven fill).
        if live.get(key).unwrap().is_none() {
            live.put(key, value.clone()).unwrap();
        }
        if sim.lookup(key).is_none() {
            sim.insert(key, Record::from_vec(value)).unwrap();
        }
    }

    // Identical resident sets with identical payloads.
    let (live_bytes, live_records) = live.totals().unwrap();
    assert_eq!(live_records as usize, sim.total_records());
    assert_eq!(live_bytes, sim.total_bytes());
    for &key in &keys {
        let l = live.get(key).unwrap();
        let s = sim.lookup(key).map(|r| r.as_slice().to_vec());
        assert_eq!(l, s, "disagreement on key {key}");
    }

    // Both grew beyond one node (same capacity pressure).
    assert!(live.node_count() >= 3);
    assert!(sim.node_count() >= 3);
    sim.validate();
    live.shutdown().unwrap();
}

#[test]
fn live_cluster_survives_a_grow_evict_contract_cycle() {
    let mut live = LiveCoordinator::start(1 << 16, 8 * 1024).unwrap();
    live.enable_window(2, 0.99, 0.99);

    // Grow.
    let keys = key_seq(64, 3);
    for &key in &keys {
        if live.get(key).unwrap().is_none() {
            live.put(key, vec![7u8; 1024]).unwrap();
        }
    }
    let peak = live.node_count();
    assert!(peak >= 4, "expected growth, got {peak}");

    // Keep half the keys warm across slice boundaries.
    let (warm, cold): (Vec<u64>, Vec<u64>) = keys.iter().partition(|&&k| k % 2 == 0);
    for _ in 0..4 {
        for &k in &warm {
            assert!(live.get(k).unwrap().is_some(), "warm key {k} lost");
        }
        live.end_time_step().unwrap();
    }
    // Cold keys expired; warm keys survive.
    for &k in &cold {
        assert!(live.get(k).unwrap().is_none(), "cold key {k} survived");
    }
    for &k in &warm {
        assert!(live.get(k).unwrap().is_some(), "warm key {k} evicted");
    }
    let (_, records) = live.totals().unwrap();
    assert_eq!(records as usize, warm.len());
    live.shutdown().unwrap();
}

/// Driven with the same operations, the live coordinator and the simulated
/// cache run one planner over two stores, so every elastic decision agrees:
/// through growth, eviction and contraction they split and merge the same
/// number of times, keep the same fleet, and lay the same buckets on the
/// ring, owned by the same node numbers.
#[test]
fn live_and_simulated_caches_make_the_same_elastic_decisions() {
    let capacity = 8 * 1024u64;
    let (m, alpha) = (2, 0.99);
    let mut live = LiveCoordinator::start(1 << 16, capacity).unwrap();
    live.enable_window(m, alpha, alpha);

    let mut cfg = CacheConfig::small_test();
    cfg.ring_range = 1 << 16;
    cfg.node_capacity_bytes = capacity;
    cfg.btree_order = 64;
    cfg.window = Some(WindowConfig {
        slices: m,
        alpha,
        threshold: Some(alpha),
    });
    let mut sim = ElasticCache::new(cfg);

    let agree = |live: &LiveCoordinator, sim: &ElasticCache, phase: &str| {
        assert_eq!(live.splits as u64, sim.metrics().splits, "{phase}: splits");
        assert_eq!(live.merges as u64, sim.metrics().merges, "{phase}: merges");
        assert_eq!(live.node_count(), sim.node_count(), "{phase}: node count");
        let live_ring: Vec<(u64, usize)> = live.ring().buckets().map(|(b, &n)| (b, n)).collect();
        let sim_ring: Vec<(u64, usize)> = sim
            .ring()
            .buckets()
            .map(|(b, n)| (b, n.0 as usize))
            .collect();
        assert_eq!(live_ring, sim_ring, "{phase}: ring buckets");
    };

    // Grow: a miss-driven fill splits both fleets.
    let keys = key_seq(64, 3);
    for &key in &keys {
        let value = vec![(key % 251) as u8; 1024];
        if live.get(key).unwrap().is_none() {
            live.put(key, value.clone()).unwrap();
        }
        if sim.lookup(key).is_none() {
            sim.insert(key, Record::from_vec(value)).unwrap();
        }
    }
    agree(&live, &sim, "grow");
    assert!(live.node_count() >= 4, "expected growth");

    // Evict: half the keys stay warm for a few slices, then the load stops
    // and everything expires; contraction merges the emptied nodes.
    let warm: Vec<u64> = keys.iter().copied().filter(|k| k % 2 == 0).collect();
    for step in 0..10 {
        if step < 4 {
            for &k in &warm {
                assert_eq!(
                    live.get(k).unwrap(),
                    sim.lookup(k).map(|r| r.as_slice().to_vec()),
                    "step {step}: key {k}"
                );
            }
        }
        live.end_time_step().unwrap();
        sim.end_time_step();
        agree(&live, &sim, &format!("step {step}"));
        let (live_bytes, live_records) = live.totals().unwrap();
        assert_eq!(live_records as usize, sim.total_records(), "step {step}");
        assert_eq!(live_bytes, sim.total_bytes(), "step {step}");
    }
    assert!(sim.metrics().evictions > 0, "nothing was evicted");
    assert!(sim.metrics().merges > 0, "nothing was merged");
    live.check_invariants().unwrap();
    sim.validate();
    live.shutdown().unwrap();
}
