//! Plan keys stored once, in flat buffers.
//!
//! Every assignment of one species (and of one walk) has the same width,
//! the DAG's node count, so a [`KeyArena`] stores its keys back to back in
//! one buffer, a key per *slot*, and finds them through an open-addressed
//! index of slot numbers (linear probing, at most half full). Nothing is
//! allocated per key: the buffers grow by doubling, or not at all when
//! sized up front, and a reset empties them in place for the next walk.
//! [`ByKey`] orders slots by their keys as a max-heap, so the cache finds
//! its largest key without a second copy of every key.

use std::hash::{Hash, Hasher};

use caribou_model::hash::FixedHasher;
use caribou_model::region::RegionId;

/// Fixed-width keys in one buffer, found through an open-addressed index.
#[derive(Debug, Default)]
pub(crate) struct KeyArena {
    /// Regions per key, fixed by the first key stored.
    width: usize,
    /// Slot `s` holds `keys[s * width..(s + 1) * width]`.
    keys: Vec<RegionId>,
    /// Slots ever used, freed ones included.
    slots: u32,
    /// `0` for an empty position, else the slot stored there plus one. A
    /// power of two long, at most half full.
    index: Vec<u32>,
    /// Slots whose keys were removed: the next inserts reuse them.
    free: Vec<u32>,
    /// Keys stored.
    len: usize,
}

fn hash(key: &[RegionId]) -> usize {
    let mut hasher = FixedHasher::default();
    key.hash(&mut hasher);
    hasher.finish() as usize
}

impl KeyArena {
    /// Empties the arena and makes room for `capacity` keys of `width`
    /// regions in the buffers it already has: until it holds more,
    /// inserting allocates nothing, and a reset to no more than an earlier
    /// one allocates nothing either.
    pub(crate) fn reset(&mut self, width: usize, capacity: usize) {
        self.width = width;
        self.keys.clear();
        self.keys.reserve(width * capacity);
        self.slots = 0;
        self.index.clear();
        self.index
            .resize((2 * capacity).next_power_of_two().max(8), 0);
        self.free.clear();
        self.len = 0;
    }

    /// Keys stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The key in `slot`.
    pub(crate) fn key(&self, slot: u32) -> &[RegionId] {
        let at = slot as usize * self.width;
        &self.keys[at..at + self.width]
    }

    /// Where `key` sits in the index, or the empty position it would take.
    fn position(&self, key: &[RegionId]) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = hash(key) & mask;
        loop {
            match self.index[at] {
                0 => return Err(at),
                stored if self.key(stored - 1) == key => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The slot holding `key`.
    pub(crate) fn find(&self, key: &[RegionId]) -> Option<u32> {
        if self.len == 0 || key.len() != self.width {
            return None;
        }
        let at = self.position(key).ok()?;
        Some(self.index[at] - 1)
    }

    /// The slot holding `key`, stored first if it was not: `(slot, true)`
    /// when it is new.
    pub(crate) fn insert(&mut self, key: &[RegionId]) -> (u32, bool) {
        if self.slots == 0 {
            self.width = key.len();
        }
        assert_eq!(key.len(), self.width, "one key width per arena");
        if 2 * (self.len + 1) > self.index.len() {
            self.grow();
        }
        let at = match self.position(key) {
            Ok(at) => return (self.index[at] - 1, false),
            Err(at) => at,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let start = slot as usize * self.width;
                self.keys[start..start + self.width].copy_from_slice(key);
                slot
            }
            None => {
                self.keys.extend_from_slice(key);
                self.slots += 1;
                self.slots - 1
            }
        };
        self.index[at] = slot + 1;
        self.len += 1;
        (slot, true)
    }

    /// Removes the key in `slot`, whose number the next insert may reuse.
    pub(crate) fn remove(&mut self, slot: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.position(self.key(slot)).expect("a stored key");
        // Backward-shift deletion: pull each later entry of the probe run
        // into the hole unless that would put it before its home position.
        let mut at = (hole + 1) & mask;
        while self.index[at] != 0 {
            let home = hash(self.key(self.index[at] - 1)) & mask;
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[at];
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.index[hole] = 0;
        self.free.push(slot);
        self.len -= 1;
    }

    /// Doubles the index and places every stored key again.
    fn grow(&mut self) {
        let doubled = vec![0; (2 * self.index.len()).max(8)];
        let old = std::mem::replace(&mut self.index, doubled);
        let mask = self.index.len() - 1;
        for stored in old.into_iter().filter(|&stored| stored != 0) {
            let mut at = hash(self.key(stored - 1)) & mask;
            while self.index[at] != 0 {
                at = (at + 1) & mask;
            }
            self.index[at] = stored;
        }
    }
}

/// Slots of a [`KeyArena`] as a max-heap by key: the largest key on top.
#[derive(Debug, Default)]
pub(crate) struct ByKey(Vec<u32>);

impl ByKey {
    /// The slot with the largest key.
    pub(crate) fn last(&self) -> Option<u32> {
        self.0.first().copied()
    }

    pub(crate) fn push(&mut self, slot: u32, keys: &KeyArena) {
        let heap = &mut self.0;
        heap.push(slot);
        let mut at = heap.len() - 1;
        while at > 0 {
            let parent = (at - 1) / 2;
            if keys.key(heap[parent]) >= keys.key(heap[at]) {
                break;
            }
            heap.swap(parent, at);
            at = parent;
        }
    }

    /// Removes the slot with the largest key.
    pub(crate) fn pop_last(&mut self, keys: &KeyArena) {
        let heap = &mut self.0;
        let Some(last) = heap.pop() else { return };
        if heap.is_empty() {
            return;
        }
        heap[0] = last;
        let mut at = 0;
        loop {
            let mut larger = at;
            for child in [2 * at + 1, 2 * at + 2] {
                if child < heap.len() && keys.key(heap[child]) > keys.key(heap[larger]) {
                    larger = child;
                }
            }
            if larger == at {
                break;
            }
            heap.swap(at, larger);
            at = larger;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::rng::Pcg32;
    use std::collections::BTreeSet;

    /// Seeded inserts and removals of 3-wide keys over 4 regions against a
    /// tree: every key is found exactly when the tree holds it, and the
    /// heap's top is always the tree's largest key.
    #[test]
    fn arena_and_heap_agree_with_a_tree() {
        for seed in 0..50 {
            let mut rng = Pcg32::seed(seed);
            let (mut arena, mut order, mut tree) =
                (KeyArena::default(), ByKey::default(), BTreeSet::new());
            for _ in 0..400 {
                let key: Vec<RegionId> =
                    (0..3).map(|_| RegionId(rng.next_index(4) as u16)).collect();
                if rng.chance(0.3) {
                    if let Some(slot) = order.last() {
                        let largest: Vec<RegionId> = arena.key(slot).to_vec();
                        assert_eq!(tree.pop_last(), Some(largest));
                        order.pop_last(&arena);
                        arena.remove(slot);
                    }
                } else {
                    let (slot, new) = arena.insert(&key);
                    assert_eq!(new, tree.insert(key.clone()));
                    if new {
                        order.push(slot, &arena);
                    }
                }
                assert_eq!(arena.len(), tree.len());
                assert_eq!(
                    order.last().map(|s| arena.key(s).to_vec()),
                    tree.last().cloned()
                );
                let probe: Vec<RegionId> =
                    (0..3).map(|_| RegionId(rng.next_index(4) as u16)).collect();
                let found = arena.find(&probe).map(|s| arena.key(s).to_vec());
                assert_eq!(found.is_some(), tree.contains(&probe));
                assert!(found.is_none_or(|k| k == probe));
            }
        }
    }

    #[test]
    fn a_sized_arena_allocates_nothing_until_full() {
        let mut arena = KeyArena::default();
        arena.reset(2, 10);
        let (keys, index) = (arena.keys.capacity(), arena.index.len());
        for r in 0..10u16 {
            assert!(arena.insert(&[RegionId(r), RegionId(r + 1)]).1);
        }
        assert_eq!((arena.keys.capacity(), arena.index.len()), (keys, index));
        assert_eq!(arena.find(&[RegionId(3), RegionId(4)]), Some(3));
        assert_eq!(arena.find(&[RegionId(3)]), None, "another width is absent");
        // A reset empties the arena in its own buffers: the next keys,
        // of another width, take slots from 0 again.
        let buffers = (arena.keys.as_ptr(), arena.index.as_ptr());
        arena.reset(3, 6);
        assert_eq!(
            (arena.len(), arena.find(&[RegionId(3), RegionId(4)])),
            (0, None)
        );
        assert_eq!(arena.insert(&[RegionId(1); 3]), (0, true));
        assert_eq!(arena.insert(&[RegionId(2); 3]), (1, true));
        assert_eq!((arena.keys.as_ptr(), arena.index.as_ptr()), buffers);
        assert_eq!(arena.index.len(), 16);
    }
}
