//! A small sorted map with inline storage.
//!
//! [`UsageMeter`](crate::meter::UsageMeter) is created fresh for every
//! invocation, and a `BTreeMap` allocates a tree node on its first
//! insert — eight maps made the meter the largest per-invocation
//! allocation source after buffer pooling. A [`TinyMap`] keeps its first
//! `N` entries in a sorted inline array (no heap traffic at all for the
//! handful of regions one invocation touches) and spills to a boxed
//! `BTreeMap` only beyond that.
//!
//! Iteration is always in ascending key order — inline and spilled alike
//! — so everything downstream that relied on `BTreeMap`'s deterministic
//! iteration (cost folds) is bit-identical.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A map over `Copy` keys and values: first `N` entries inline and
/// sorted, unbounded via a boxed `BTreeMap` spill.
#[derive(Clone)]
pub struct TinyMap<K, V, const N: usize> {
    len: usize,
    inline: [(K, V); N],
    // Boxed to keep the spill pointer-sized: the map is moved by value on
    // the hot path and spilling is the rare case.
    #[allow(clippy::box_collection)]
    spill: Option<Box<BTreeMap<K, V>>>,
}

impl<K: Copy + Ord + Default, V: Copy + Default, const N: usize> Default for TinyMap<K, V, N> {
    fn default() -> Self {
        TinyMap {
            len: 0,
            inline: [(K::default(), V::default()); N],
            spill: None,
        }
    }
}

impl<K: Copy + Ord + Default, V: Copy + Default, const N: usize> TinyMap<K, V, N> {
    /// Creates an empty map. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(m) => m.len(),
            None => self.len,
        }
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        match &self.spill {
            Some(m) => m.get(key),
            None => self.inline[..self.len]
                .binary_search_by(|e| e.0.cmp(key))
                .ok()
                .map(|i| &self.inline[i].1),
        }
    }

    /// Mutable access to the value under `key`, inserting `default`
    /// first when absent (the `entry(k).or_insert(d)` idiom).
    pub fn entry_or(&mut self, key: K, default: V) -> &mut V {
        if self.spill.is_none() {
            match self.inline[..self.len].binary_search_by(|e| e.0.cmp(&key)) {
                Ok(i) => return &mut self.inline[i].1,
                Err(i) => {
                    if self.len < N {
                        self.inline.copy_within(i..self.len, i + 1);
                        self.inline[i] = (key, default);
                        self.len += 1;
                        return &mut self.inline[i].1;
                    }
                    // Inline storage exhausted: spill everything.
                    let mut m = Box::new(BTreeMap::new());
                    for e in &self.inline[..self.len] {
                        m.insert(e.0, e.1);
                    }
                    self.spill = Some(m);
                }
            }
        }
        // Reached only with a spill installed; `get_or_insert_with` just
        // keeps the borrow checker happy without an `expect`.
        self.spill
            .get_or_insert_with(Box::default)
            .entry(key)
            .or_insert(default)
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        let (inline, spill) = match &self.spill {
            Some(m) => (&self.inline[..0], Some(m.iter())),
            None => (&self.inline[..self.len], None),
        };
        inline
            .iter()
            .map(|e| (&e.0, &e.1))
            .chain(spill.into_iter().flatten())
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Copy + Ord + Default, V: Copy + Default, const N: usize> Index<&K> for TinyMap<K, V, N> {
    type Output = V;
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K, V, const N: usize> PartialEq for TinyMap<K, V, N>
where
    K: Copy + Ord + Default,
    V: Copy + Default + PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<K, V, const N: usize> fmt::Debug for TinyMap<K, V, N>
where
    K: Copy + Ord + Default + fmt::Debug,
    V: Copy + Default + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_inserts_stay_sorted() {
        let mut m: TinyMap<u32, u64, 4> = TinyMap::new();
        for k in [3u32, 1, 2] {
            *m.entry_or(k, 0) += u64::from(k) * 10;
        }
        assert_eq!(m.len(), 3);
        assert!(m.spill.is_none());
        let got: Vec<(u32, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(m[&2], 20);
        assert_eq!(m.get(&9), None);
    }

    #[test]
    fn spills_beyond_inline_capacity() {
        let mut m: TinyMap<u32, u64, 2> = TinyMap::new();
        for k in 0..10u32 {
            *m.entry_or(k, 0) += 1;
        }
        assert!(m.spill.is_some());
        assert_eq!(m.len(), 10);
        // Updates after the spill land in the tree.
        *m.entry_or(0, 0) += 1;
        assert_eq!(m[&0], 2);
        let keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equality_ignores_storage_shape() {
        let mut small: TinyMap<u32, u64, 8> = TinyMap::new();
        let mut spilled: TinyMap<u32, u64, 1> = TinyMap::new();
        // Different N means different types; compare same-N maps in
        // different fill orders instead.
        for k in [4u32, 2, 9] {
            *small.entry_or(k, 0) += 1;
        }
        let mut other: TinyMap<u32, u64, 8> = TinyMap::new();
        for k in [9u32, 4, 2] {
            *other.entry_or(k, 0) += 1;
        }
        assert_eq!(small, other);
        for k in [4u32, 2, 9] {
            *spilled.entry_or(k, 0) += 1;
        }
        assert_eq!(spilled.len(), 3);
    }
}
