//! Arena-backed treap: the mutable, cache-friendly sibling of
//! [`crate::ptreap::PTreap`].
//!
//! Phase-1 envelope builds and the sequential/viewshed profile sweeps use
//! an ordered map as a *single-version* working set — they splice pieces
//! in and out but never hold an old version. Routing them through the
//! persistent treap pays for `Arc` allocation, atomic reference counting,
//! and path-copy cloning on every touched node, none of which buys
//! anything without persistence. [`ArenaTreap`] stores nodes in one
//! contiguous `Vec` addressed by `u32` indices, mutates in place, and
//! recycles removed slots through a free list, so it never copies a node
//! and never leaks a slot.
//!
//! Both treap flavours derive node priorities from the same deterministic
//! hash, so a given key set always produces the same canonical shape.
//! Slot writes charge [`Category::TreapArena`] where the persistent treap
//! charges `Category::TreapOps`, letting the cost model attribute work to
//! the representation that did it.

use crate::ptreap::det_prio;
use hsr_pram::cost::{add_work, Category};
use std::cmp::Ordering;
use std::hash::Hash;

/// Sentinel index for "no node".
const NIL: u32 = u32::MAX;

struct ANode<K, V> {
    key: K,
    value: V,
    prio: u64,
    left: u32,
    right: u32,
}

/// A mutable ordered map backed by an index-linked treap in a contiguous
/// arena.
///
/// Same canonical shape per key set as [`crate::ptreap::PTreap`] (shared
/// deterministic priorities), but nodes are plain `Vec` slots mutated in
/// place — no `Arc`, no path copying.
///
/// ```
/// use hsr_pstruct::ArenaTreap;
///
/// let mut t: ArenaTreap<u32, &str> = ArenaTreap::new();
/// t.insert(2, "b");
/// t.insert(1, "a");
/// t.insert(3, "c");
/// t.remove(&1);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [2, 3]);
/// assert_eq!(t.floor(&9), Some((&3, &"c")));
/// ```
pub struct ArenaTreap<K, V> {
    nodes: Vec<ANode<K, V>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl<K, V> Default for ArenaTreap<K, V> {
    fn default() -> Self {
        ArenaTreap { nodes: Vec::new(), free: Vec::new(), root: NIL, len: 0 }
    }
}

impl<K: Ord + Hash + Clone, V: Clone> ArenaTreap<K, V> {
    /// An empty treap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty treap with room for `cap` nodes before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        ArenaTreap { nodes: Vec::with_capacity(cap), ..Self::default() }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no live entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of arena slots currently allocated (live + free-listed); a
    /// cache-footprint diagnostic.
    #[inline]
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Drops every entry and slot, keeping the allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
    }

    #[inline]
    fn node(&self, t: u32) -> &ANode<K, V> {
        &self.nodes[t as usize]
    }

    /// Allocates a slot (reusing the free list) and charges the arena
    /// counter — the analogue of the persistent treap's per-`Arc` charge.
    fn alloc(&mut self, n: ANode<K, V>) -> u32 {
        add_work(Category::TreapArena, 1);
        match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = n;
                id
            }
            None => {
                let id = self.nodes.len() as u32;
                debug_assert!(id < NIL, "arena treap slot count overflow");
                self.nodes.push(n);
                id
            }
        }
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let prio = det_prio(&key);
        let (root, old) = self.insert_at(self.root, key, value, prio);
        self.root = root;
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(&mut self, t: u32, key: K, value: V, prio: u64) -> (u32, Option<V>) {
        if t == NIL {
            let id = self.alloc(ANode { key, value, prio, left: NIL, right: NIL });
            return (id, None);
        }
        match key.cmp(&self.node(t).key) {
            Ordering::Equal => {
                let old = std::mem::replace(&mut self.nodes[t as usize].value, value);
                (t, Some(old))
            }
            Ordering::Less => {
                let (l, old) = self.insert_at(self.node(t).left, key, value, prio);
                self.nodes[t as usize].left = l;
                if self.node(l).prio > self.node(t).prio {
                    (self.rotate_right(t), old)
                } else {
                    (t, old)
                }
            }
            Ordering::Greater => {
                let (r, old) = self.insert_at(self.node(t).right, key, value, prio);
                self.nodes[t as usize].right = r;
                if self.node(r).prio > self.node(t).prio {
                    (self.rotate_left(t), old)
                } else {
                    (t, old)
                }
            }
        }
    }

    /// Right rotation about `t` (its left child becomes the root of the
    /// subtree).
    fn rotate_right(&mut self, t: u32) -> u32 {
        let l = self.node(t).left;
        self.nodes[t as usize].left = self.nodes[l as usize].right;
        self.nodes[l as usize].right = t;
        l
    }

    /// Left rotation about `t`.
    fn rotate_left(&mut self, t: u32) -> u32 {
        let r = self.node(t).right;
        self.nodes[t as usize].right = self.nodes[r as usize].left;
        self.nodes[r as usize].left = t;
        r
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (root, old) = self.remove_at(self.root, key);
        self.root = root;
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn remove_at(&mut self, t: u32, key: &K) -> (u32, Option<V>) {
        if t == NIL {
            return (NIL, None);
        }
        match key.cmp(&self.node(t).key) {
            Ordering::Equal => {
                let value = self.node(t).value.clone();
                let (left, right) = (self.node(t).left, self.node(t).right);
                self.free.push(t);
                (self.join(left, right), Some(value))
            }
            Ordering::Less => {
                let (l, old) = self.remove_at(self.node(t).left, key);
                if old.is_some() {
                    self.nodes[t as usize].left = l;
                    (t, old)
                } else {
                    (t, None)
                }
            }
            Ordering::Greater => {
                let (r, old) = self.remove_at(self.node(t).right, key);
                if old.is_some() {
                    self.nodes[t as usize].right = r;
                    (t, old)
                } else {
                    (t, None)
                }
            }
        }
    }

    /// Joins two subtrees where every key of `a` precedes every key of
    /// `b`, by priority.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.node(a).prio >= self.node(b).prio {
            let joined = self.join(self.node(a).right, b);
            self.nodes[a as usize].right = joined;
            a
        } else {
            let joined = self.join(a, self.node(b).left);
            self.nodes[b as usize].left = joined;
            b
        }
    }

    /// Removes every entry with `lo <= key < hi` (requires `lo <= hi`) in
    /// one split/detach/join instead of a descent per key; returns the
    /// number of entries removed. Split and join preserve the canonical
    /// (key, priority)-determined shape, so the result is
    /// indistinguishable from per-key removal.
    pub fn remove_range(&mut self, lo: &K, hi: &K) -> usize {
        debug_assert!(lo <= hi, "remove_range needs lo <= hi");
        let (below, rest) = self.split(self.root, lo);
        let (mid, above) = self.split(rest, hi);
        let removed = self.release_subtree(mid);
        self.root = self.join(below, above);
        self.len -= removed;
        removed
    }

    /// Splits subtree `t` by key: `(keys < key, keys >= key)`.
    fn split(&mut self, t: u32, key: &K) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.node(t).key < *key {
            let (l, r) = self.split(self.node(t).right, key);
            self.nodes[t as usize].right = l;
            (t, r)
        } else {
            let (l, r) = self.split(self.node(t).left, key);
            self.nodes[t as usize].left = r;
            (l, t)
        }
    }

    /// Recycles an entire detached subtree; returns its node count.
    fn release_subtree(&mut self, t: u32) -> usize {
        if t == NIL {
            return 0;
        }
        let (l, r) = (self.node(t).left, self.node(t).right);
        self.free.push(t);
        1 + self.release_subtree(l) + self.release_subtree(r)
    }

    /// Value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut t = self.root;
        while t != NIL {
            let n = self.node(t);
            match key.cmp(&n.key) {
                Ordering::Equal => return Some(&n.value),
                Ordering::Less => t = n.left,
                Ordering::Greater => t = n.right,
            }
        }
        None
    }

    /// Greatest entry with key `<= key` (the `BTreeMap`
    /// `range(..=key).next_back()` idiom without the iterator).
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        self.floor_by(|k| k <= key)
    }

    /// Greatest entry with key `< key`.
    pub fn floor_strict(&self, key: &K) -> Option<(&K, &V)> {
        self.floor_by(|k| k < key)
    }

    /// Greatest entry whose key satisfies the downward-closed predicate.
    fn floor_by(&self, ok: impl Fn(&K) -> bool) -> Option<(&K, &V)> {
        let mut t = self.root;
        let mut best = NIL;
        while t != NIL {
            let n = self.node(t);
            if ok(&n.key) {
                best = t;
                t = n.right;
            } else {
                t = n.left;
            }
        }
        (best != NIL).then(|| {
            let n = self.node(best);
            (&n.key, &n.value)
        })
    }

    /// Calls `f` on every entry with `lo <= key < hi`, in key order.
    pub fn for_range(&self, lo: &K, hi: &K, f: &mut impl FnMut(&K, &V)) {
        self.range_rec(self.root, lo, hi, f);
    }

    fn range_rec(&self, t: u32, lo: &K, hi: &K, f: &mut impl FnMut(&K, &V)) {
        if t == NIL {
            return;
        }
        let n = self.node(t);
        if *lo < n.key {
            self.range_rec(n.left, lo, hi, f);
        }
        if *lo <= n.key && n.key < *hi {
            f(&n.key, &n.value);
        }
        if n.key < *hi {
            self.range_rec(n.right, lo, hi, f);
        }
    }

    /// In-order iterator over the entries.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(self, self.root)
    }

    /// The values in key order (consumes the treap).
    pub fn into_values(self) -> Vec<V> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = Vec::new();
        let mut t = self.root;
        while t != NIL || !stack.is_empty() {
            while t != NIL {
                stack.push(t);
                t = self.node(t).left;
            }
            let top = stack.pop().expect("stack non-empty by loop condition");
            let n = self.node(top);
            out.push(n.value.clone());
            t = n.right;
        }
        out
    }
}

/// In-order entry iterator for [`ArenaTreap`].
pub struct Iter<'a, K, V> {
    treap: &'a ArenaTreap<K, V>,
    stack: Vec<u32>,
}

impl<'a, K: Ord + Hash + Clone, V: Clone> Iter<'a, K, V> {
    fn new(treap: &'a ArenaTreap<K, V>, root: u32) -> Self {
        let mut it = Iter { treap, stack: Vec::new() };
        it.push_left(root);
        it
    }

    fn push_left(&mut self, mut t: u32) {
        while t != NIL {
            self.stack.push(t);
            t = self.treap.node(t).left;
        }
    }
}

impl<'a, K: Ord + Hash + Clone, V: Clone> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.stack.pop()?;
        let n = &self.treap.nodes[t as usize];
        self.push_left(n.right);
        Some((&n.key, &n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn keys(t: &ArenaTreap<u64, u64>) -> Vec<u64> {
        t.iter().map(|(k, _)| *k).collect()
    }

    /// Model test: a scripted mix of inserts/removes/floors must agree
    /// with `BTreeMap` at every step.
    #[test]
    fn agrees_with_btreemap_model() {
        let mut t: ArenaTreap<u64, u64> = ArenaTreap::new();
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0x0dd_ba11_u64;
        for step in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) % 128;
            match state % 3 {
                0 | 1 => {
                    assert_eq!(t.insert(k, step), m.insert(k, step), "insert {k}");
                }
                _ => {
                    assert_eq!(t.remove(&k), m.remove(&k), "remove {k}");
                }
            }
            assert_eq!(t.len(), m.len());
            let probe = (state >> 17) % 130;
            assert_eq!(t.floor(&probe), m.range(..=probe).next_back(), "floor {probe}");
            assert_eq!(
                t.floor_strict(&probe),
                m.range(..probe).next_back(),
                "floor_strict {probe}"
            );
        }
        assert_eq!(keys(&t), m.keys().copied().collect::<Vec<_>>());
        assert_eq!(
            t.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            m.values().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_matches_btreemap_model() {
        let mut t: ArenaTreap<u64, u64> = ArenaTreap::new();
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        for k in [5u64, 1, 9, 3, 7, 2, 8, 0, 6, 4] {
            t.insert(k, k * 10);
            m.insert(k, k * 10);
        }
        for lo in 0..11u64 {
            for hi in lo..11u64 {
                let mut got = Vec::new();
                t.for_range(&lo, &hi, &mut |k, v| got.push((*k, *v)));
                let want: Vec<_> = m.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "range [{lo}, {hi})");
            }
        }
    }

    /// The free list keeps the arena from growing across churn.
    #[test]
    fn slots_stay_bounded_without_snapshots() {
        let mut t: ArenaTreap<u64, u64> = ArenaTreap::new();
        for round in 0..50u64 {
            for k in 0..64u64 {
                t.insert(k, round);
            }
            for k in 0..64u64 {
                if k % 2 == 0 {
                    t.remove(&k);
                }
            }
            for k in 0..64u64 {
                if k % 2 == 0 {
                    t.insert(k, round + 1);
                }
            }
        }
        assert_eq!(t.len(), 64);
        assert!(t.slots() <= 3 * 64, "arena grew unbounded: {} slots for 64 keys", t.slots());
    }

    /// Same key set → same shape as the persistent treap (shared
    /// deterministic priorities): in-order traversals agree, and the
    /// canonical shape means equal floors on every probe.
    #[test]
    fn canonical_shape_matches_ptreap_order() {
        use crate::ptreap::PTreap;
        let keys = [17u64, 3, 99, 42, 8, 23, 64, 1, 55];
        let mut a: ArenaTreap<u64, u64> = ArenaTreap::new();
        let mut p: PTreap<u64, u64> = PTreap::new();
        for &k in &keys {
            a.insert(k, k * 2);
            p = p.insert(k, k * 2);
        }
        let av: Vec<_> = a.iter().map(|(k, v)| (*k, *v)).collect();
        let pv: Vec<_> = p.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(av, pv);
        for probe in 0..100u64 {
            assert_eq!(a.floor(&probe), p.floor(&probe), "floor {probe}");
        }
    }

    /// `remove_range` must agree with per-key removal (and the model) on
    /// every window, including empty ones.
    #[test]
    fn remove_range_matches_btreemap_model() {
        for (lo, hi) in [
            (0u64, 0u64),
            (3, 3),
            (0, 5),
            (2, 9),
            (5, 20),
            (0, 20),
            (11, 12),
        ] {
            let mut t: ArenaTreap<u64, u64> = ArenaTreap::new();
            let mut m: BTreeMap<u64, u64> = BTreeMap::new();
            for k in [5u64, 1, 9, 3, 7, 2, 8, 0, 6, 4, 11, 13] {
                t.insert(k, k * 10);
                m.insert(k, k * 10);
            }
            let expect = m.range(lo..hi).count();
            let before = m.len();
            m.retain(|k, _| !(lo..hi).contains(k));
            assert_eq!(t.remove_range(&lo, &hi), expect, "count [{lo}, {hi})");
            assert_eq!(t.len(), before - expect);
            assert_eq!(keys(&t), m.keys().copied().collect::<Vec<_>>(), "[{lo}, {hi})");
            for probe in 0..22u64 {
                assert_eq!(t.floor(&probe), m.range(..=probe).next_back());
            }
            // Churn after the range removal keeps working (slot recycling).
            t.insert(lo, 1);
            m.insert(lo, 1);
            assert_eq!(keys(&t), m.keys().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn into_values_is_key_ordered() {
        let mut t: ArenaTreap<u64, &str> = ArenaTreap::new();
        t.insert(2, "b");
        t.insert(0, "a");
        t.insert(7, "c");
        assert_eq!(t.into_values(), ["a", "b", "c"]);
    }
}
