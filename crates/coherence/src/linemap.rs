//! Hash maps and sets keyed by line address.
//!
//! The oracle and the validation pass look up about two lines per homed
//! line per check, and node controllers key their buffered interventions
//! by line. `std`'s default SipHash is built to resist hash flooding, which
//! a simulator's own line addresses cannot mount, and costs several times
//! more per lookup than a multiply. [`LineHasher`] is a deterministic
//! multiply-rotate hash instead.
//!
//! Iteration order follows the hash, so it differs from a SipHash map's.
//! Use these maps only where nothing depends on iteration order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by line address (or a small tuple led by one), hashed
/// with [`LineHasher`].
pub type LineMap<K, V> = HashMap<K, V, BuildHasherDefault<LineHasher>>;

/// A `HashSet` of line addresses (or small tuples led by one), hashed with
/// [`LineHasher`].
pub type LineSet<K> = HashSet<K, BuildHasherDefault<LineHasher>>;

/// A deterministic multiply-rotate hasher for integer keys: each word is
/// added and multiplied by an odd constant, and `finish` rotates the high
/// bits (which the multiply mixes best) down to where the table takes its
/// bucket index.
///
/// # Examples
///
/// ```
/// use flash_coherence::{LineAddr, LineMap, Version};
///
/// let mut m: LineMap<LineAddr, Version> = LineMap::default();
/// m.insert(LineAddr(7), Version(2));
/// assert_eq!(m.get(&LineAddr(7)), Some(&Version(2)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher {
    hash: u64,
}

/// An odd constant with well-spread bits (2^64 divided by the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = self.hash.wrapping_add(i).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineAddr, Version};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<LineHasher>::default().hash_one(x)
    }

    #[test]
    fn is_deterministic_and_separates_neighbours() {
        assert_eq!(hash_of(&LineAddr(42)), hash_of(&LineAddr(42)));
        let hashes: LineSet<u64> = (0..4096u64).map(|l| hash_of(&LineAddr(l))).collect();
        assert_eq!(hashes.len(), 4096);
        // Tuples hash both halves.
        assert_ne!(
            hash_of(&(LineAddr(1), Version(2))),
            hash_of(&(LineAddr(1), Version(3)))
        );
    }

    #[test]
    fn strided_lines_spread_over_buckets() {
        // Line addresses a page or a node apart differ only in high bits;
        // the low bits of their hashes must still differ.
        for stride in [32u64, 8192] {
            let low: LineSet<u64> = (0..256u64)
                .map(|k| hash_of(&LineAddr(k * stride)) & 0xff)
                .collect();
            assert!(low.len() > 128, "stride {stride}: {} buckets", low.len());
        }
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: LineMap<LineAddr, Version> = LineMap::default();
        let mut s: LineSet<(LineAddr, Version)> = LineSet::default();
        for l in 0..1000u64 {
            m.insert(LineAddr(l * 3), Version(l));
            s.insert((LineAddr(l), Version(l % 7)));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&LineAddr(300)), Some(&Version(100)));
        assert!(!m.contains_key(&LineAddr(301)));
        assert!(s.contains(&(LineAddr(10), Version(3))));
        assert!(!s.contains(&(LineAddr(10), Version(4))));
    }
}
