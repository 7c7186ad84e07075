//! A fixed, keyless hasher for the simulator's own maps.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a random per-process key,
//! a defence against keys chosen by an adversary. No map of the simulator
//! holds such a key: the ones an invocation hashes are keyed by item
//! addresses, object keys, warm-pool deployments and log information keys
//! the simulator builds itself, and so are the solver's plan keys.
//! [`FixedHasher`] folds each word in with one
//! rotate and one multiply and avalanches the result once, with
//! [`crate::rng::mix64`], when the map asks for the hash. Being keyless it
//! also makes a map's iteration order a function of its insertions alone.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::mix64;

/// Odd multiplier folding one word into the state (FxHash's).
const FOLD: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate per word, [`mix64`] as the finisher.
///
/// # Examples
///
/// ```
/// use caribou_model::hash::FixedMap;
///
/// let mut m: FixedMap<(u32, u64), &str> = FixedMap::default();
/// m.insert((1, 7), "item");
/// assert_eq!(m.get(&(1, 7)), Some(&"item"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher {
    state: u64,
}

impl FixedHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state.rotate_left(5) ^ w).wrapping_mul(FOLD);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
        // The length tells a zero-padded tail from trailing zero bytes.
        self.word(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// The [`std::hash::BuildHasher`] of [`FixedHasher`].
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// A `HashMap` under [`FixedHasher`]; build one with `FixedMap::default()`.
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        FixedState::default().hash_one(v)
    }

    #[test]
    fn the_hash_is_fixed_and_parts_are_not_confused() {
        // Keyless: two builders agree, so iteration order is reproducible.
        assert_eq!(
            FixedState::default().hash_one((3u32, 9u64)),
            FixedState::default().hash_one((3u32, 9u64))
        );
        assert_ne!(hash(&(3u32, 9u64)), hash(&(9u32, 3u64)));
        // A zero-padded tail is not its string with zeros appended.
        assert_ne!(hash(&"ab"), hash(&"ab\0"));
        assert_ne!(hash(&"abcdefg\x07"), hash(&"abcdefg"));
        assert_ne!(hash(&("a", "bc")), hash(&("ab", "c")));
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // hashbrown picks a bucket with the low bits: 4,096 consecutive
        // keys must fill most of 4,096 buckets, not a handful.
        let mut seen = vec![false; 4096];
        for k in 0..4096u64 {
            seen[(hash(&(7u32, k)) & 4095) as usize] = true;
        }
        let filled = seen.iter().filter(|&&s| s).count();
        assert!(filled > 2400, "{filled} of 4096 buckets");
    }
}
