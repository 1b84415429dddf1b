//! A tiny sorted-vec map: the cache-flat replacement for the kernel-side
//! `BTreeMap`s, which `clippy::disallowed_types` bans in the kernel crates.
//!
//! Entries live in one contiguous `Vec<(K, V)>` kept sorted by key, so
//! iteration walks the same fixed total order a `BTreeMap` would (the
//! determinism guarantee) without per-node pointer chasing or per-insert
//! allocation. Lookups are binary searches; inserts shift the
//! tail. The maps this replaces hold at most a few thousand small entries on
//! hot paths, where the memmove beats tree rebalancing comfortably.

/// A map over a sorted `Vec<(K, V)>`. Iteration order is ascending key
/// order, like `BTreeMap`.
#[derive(Debug, Clone, Default)]
pub(crate) struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value at `key`, inserting `default` first if absent — the
    /// `entry(key).or_insert(default)` idiom.
    pub fn get_or_insert(&mut self, key: K, default: V) -> &mut V {
        self.get_or_insert_with(key, || default)
    }

    /// The value at `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Consumes the map in ascending key order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_sorted_regardless_of_insertion_order() {
        let mut m = VecMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            m.insert(k, k * 10);
        }
        assert_eq!(m.get(&3), Some(&30));
        assert_eq!(m.insert(3, 31), Some(30));
        assert_eq!(m.get(&4), None);
        let keys: Vec<u32> = m.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn get_or_insert_accumulates() {
        let mut m: VecMap<u64, Vec<u32>> = VecMap::new();
        m.get_or_insert_with(4, Vec::new).push(40);
        m.get_or_insert_with(2, Vec::new).push(20);
        m.get_or_insert_with(4, Vec::new).push(41);
        let entries: Vec<(u64, Vec<u32>)> = m.into_iter().collect();
        assert_eq!(entries, vec![(2, vec![20]), (4, vec![40, 41])]);

        let mut counts: VecMap<u32, u64> = VecMap::new();
        *counts.get_or_insert(3, 0) += 5;
        *counts.get_or_insert(3, 0) += 5;
        assert_eq!(counts.get(&3), Some(&10));
        assert_eq!(counts.values().sum::<u64>(), 10);
    }
}
