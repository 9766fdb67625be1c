//! Seeded per-key payloads standing in for derived service results.
//!
//! Every value the benchmark stores is a pure function of `(seed, key)`,
//! so any GET hit can be checked byte for byte without keeping a copy.
//! Lengths are uniform over 640–1000 B, the range of `ShorelineService`
//! outputs; the service's extraction compute itself is not timed.

/// Shortest payload, bytes.
pub const MIN_LEN: usize = 640;
/// Longest payload, bytes.
pub const MAX_LEN: usize = 1000;

/// SplitMix64 finalizer: a cheap, well-mixed hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn base(seed: u64, key: u64) -> u64 {
    mix(seed ^ mix(key))
}

/// Length of the payload stored under `key`.
pub fn len(seed: u64, key: u64) -> usize {
    MIN_LEN + (base(seed, key) % (MAX_LEN - MIN_LEN + 1) as u64) as usize
}

fn word(b: u64, i: usize) -> [u8; 8] {
    mix(b.wrapping_add(i as u64)).to_le_bytes()
}

/// The payload stored under `key`.
pub fn make(seed: u64, key: u64) -> Vec<u8> {
    let b = base(seed, key);
    let n = len(seed, key);
    let mut out = Vec::with_capacity(n + 8);
    for i in 0..n.div_ceil(8) {
        out.extend_from_slice(&word(b, i));
    }
    out.truncate(n);
    out
}

/// Whether `bytes` is exactly the payload of `key`, without allocating.
pub fn matches(seed: u64, key: u64, bytes: &[u8]) -> bool {
    if bytes.len() != len(seed, key) {
        return false;
    }
    let b = base(seed, key);
    bytes
        .chunks(8)
        .enumerate()
        .all(|(i, chunk)| chunk == &word(b, i)[..chunk.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_seeded_sized_and_self_checking() {
        for key in 0..500 {
            let p = make(7, key);
            assert!((MIN_LEN..=MAX_LEN).contains(&p.len()));
            assert_eq!(p, make(7, key));
            assert!(matches(7, key, &p));
            assert!(!matches(8, key, &p));
            let mut bad = p.clone();
            *bad.last_mut().unwrap() ^= 1;
            assert!(!matches(7, key, &bad));
        }
    }
}
