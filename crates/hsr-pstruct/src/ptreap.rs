//! A persistent treap with deterministic priorities and subtree aggregates.
//!
//! Every operation is non-destructive: it returns a new version that shares
//! all untouched subtrees with the old one (path copying). Priorities are
//! derived from a deterministic hash of the key, so a given key *set* always
//! produces the same canonical tree shape regardless of insertion order —
//! which makes structure-sharing statistics and golden tests reproducible
//! across runs.
//!
//! Subtree aggregates (the [`Aggregate`] trait) are recomputed only along
//! copied paths; they are what allows `hsr-core`'s envelope merge to prune
//! entire shared subtrees in `O(1)` (e.g. "every piece in this subtree lies
//! above the new segment").

use hsr_pram::cost::{add_work, Category};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A user-defined subtree summary maintained at every treap node.
pub trait Aggregate<K, V>: Clone + Send + Sync {
    /// Summary of a single `(key, value)` item.
    fn of_item(key: &K, value: &V) -> Self;
    /// Combine the item's own summary with the children's summaries
    /// (in-order: `left`, item, `right`).
    fn combine(item: Self, left: Option<&Self>, right: Option<&Self>) -> Self;
}

/// The trivial aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoAgg;

impl<K, V> Aggregate<K, V> for NoAgg {
    #[inline]
    fn of_item(_: &K, _: &V) -> Self {
        NoAgg
    }
    #[inline]
    fn combine(_: Self, _: Option<&Self>, _: Option<&Self>) -> Self {
        NoAgg
    }
}

/// Subtree element count (node sizes are also tracked natively; this exists
/// for tests of the aggregate plumbing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountAgg(pub usize);

impl<K, V> Aggregate<K, V> for CountAgg {
    #[inline]
    fn of_item(_: &K, _: &V) -> Self {
        CountAgg(1)
    }
    #[inline]
    fn combine(item: Self, left: Option<&Self>, right: Option<&Self>) -> Self {
        CountAgg(item.0 + left.map_or(0, |a| a.0) + right.map_or(0, |a| a.0))
    }
}

struct Node<K, V, A> {
    key: K,
    value: V,
    prio: u64,
    size: usize,
    agg: A,
    left: Link<K, V, A>,
    right: Link<K, V, A>,
}

type Link<K, V, A> = Option<Arc<Node<K, V, A>>>;

/// A right-spine entry of [`PTreap::from_sorted`]: key, value, priority
/// and finished left subtree, still waiting for its right child.
type SpineEntry<K, V, A> = (K, V, u64, Link<K, V, A>);

/// Deterministic FNV-1a based priority with a splitmix64 finaliser.
///
/// Shared with the arena representation ([`crate::arena::ArenaTreap`]) so
/// both treaps give the *same key set the same canonical shape*. Public so
/// callers can check that shape (the heap order over a key set) from
/// outside the crate.
pub fn det_prio<K: Hash>(key: &K) -> u64 {
    struct Fnv1a(u64);
    impl Hasher for Fnv1a {
        #[inline]
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
        #[inline]
        fn finish(&self) -> u64 {
            self.0
        }
    }
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    // splitmix64 finaliser: decorrelates nearby keys.
    let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A persistent ordered map backed by a treap.
///
/// Cloning a `PTreap` is `O(1)` (an `Arc` clone); all mutating operations
/// return new versions.
///
/// ```
/// use hsr_pstruct::{PTreap, CountAgg};
///
/// let v1: PTreap<u32, &str, CountAgg> = PTreap::new().insert(2, "b").insert(1, "a");
/// let v2 = v1.insert(3, "c");
/// // v1 is untouched — persistence.
/// assert_eq!(v1.len(), 2);
/// assert_eq!(v2.len(), 3);
/// assert_eq!(v2.floor(&9), Some((&3, &"c")));
/// // Subtree aggregates ride along.
/// assert_eq!(v2.agg().unwrap().0, 3);
/// ```
pub struct PTreap<K, V, A = NoAgg> {
    root: Link<K, V, A>,
}

impl<K, V, A> Clone for PTreap<K, V, A> {
    #[inline]
    fn clone(&self) -> Self {
        PTreap { root: self.root.clone() }
    }
}

impl<K, V, A> Default for PTreap<K, V, A> {
    #[inline]
    fn default() -> Self {
        PTreap { root: None }
    }
}

/// An owned handle onto a treap node, exposing the structure for custom
/// recursions (used by the envelope merge in `hsr-core`).
pub struct NodeHandle<K, V, A>(Arc<Node<K, V, A>>);

impl<K, V, A> Clone for NodeHandle<K, V, A> {
    #[inline]
    fn clone(&self) -> Self {
        NodeHandle(Arc::clone(&self.0))
    }
}

impl<K, V, A> NodeHandle<K, V, A> {
    /// The node's key.
    #[inline]
    pub fn key(&self) -> &K {
        &self.0.key
    }
    /// The node's value.
    #[inline]
    pub fn value(&self) -> &V {
        &self.0.value
    }
    /// The node's subtree aggregate.
    #[inline]
    pub fn agg(&self) -> &A {
        &self.0.agg
    }
    /// Size of the subtree rooted here.
    #[inline]
    pub fn size(&self) -> usize {
        self.0.size
    }
    /// Left subtree as a treap (O(1)).
    #[inline]
    pub fn left(&self) -> PTreap<K, V, A> {
        PTreap { root: self.0.left.clone() }
    }
    /// Right subtree as a treap (O(1)).
    #[inline]
    pub fn right(&self) -> PTreap<K, V, A> {
        PTreap { root: self.0.right.clone() }
    }
    /// Stable address of the backing allocation; equal addresses imply the
    /// identical shared subtree. Used by sharing statistics.
    #[inline]
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

impl<K, V, A> PTreap<K, V, A>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    /// The empty map.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-entry map.
    pub fn singleton(key: K, value: V) -> Self {
        PTreap { root: Some(mk_node(key, value, None, None)) }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.size)
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The root node handle, if any.
    #[inline]
    pub fn root(&self) -> Option<NodeHandle<K, V, A>> {
        self.root.as_ref().map(|n| NodeHandle(Arc::clone(n)))
    }

    /// The whole-tree aggregate, if non-empty.
    #[inline]
    pub fn agg(&self) -> Option<&A> {
        self.root.as_ref().map(|n| &n.agg)
    }

    /// Builds a treap from strictly increasing `(key, value)` pairs in
    /// `O(n)` using the right-spine construction.
    ///
    /// The stack holds the right spine of the tree built so far, each
    /// entry still waiting for its right child. An item pops every
    /// lower-priority entry; the popped chain, finished bottom-up, is its
    /// left subtree. Every node is built exactly once, in one pass, with
    /// no slot table and no recursion.
    pub fn from_sorted(items: Vec<(K, V)>) -> Self {
        let mut spine: Vec<SpineEntry<K, V, A>> = Vec::new();
        for (key, value) in items {
            debug_assert!(
                spine.last().is_none_or(|top| top.0 < key),
                "keys must be strictly increasing"
            );
            let prio = det_prio(&key);
            let mut left = None;
            while let Some((k, v, p, l)) = spine.pop_if(|top| top.2 < prio) {
                left = Some(mk_node_prio(k, v, p, l, left));
            }
            spine.push((key, value, prio, left));
        }
        let mut root = None;
        while let Some((k, v, p, l)) = spine.pop() {
            root = Some(mk_node_prio(k, v, p, l, root));
        }
        PTreap { root }
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = &self.root;
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Less => cur = &n.left,
                Ordering::Greater => cur = &n.right,
                Ordering::Equal => return Some(&n.value),
            }
        }
        None
    }

    /// Largest entry with key `<= key`.
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let mut cur = &self.root;
        let mut best = None;
        while let Some(n) = cur {
            if n.key <= *key {
                best = Some(n);
                cur = &n.right;
            } else {
                cur = &n.left;
            }
        }
        best.map(|n| (&n.key, &n.value))
    }

    /// Smallest entry with key `>= key`.
    pub fn ceiling(&self, key: &K) -> Option<(&K, &V)> {
        let mut cur = &self.root;
        let mut best = None;
        while let Some(n) = cur {
            if n.key >= *key {
                best = Some(n);
                cur = &n.left;
            } else {
                cur = &n.right;
            }
        }
        best.map(|n| (&n.key, &n.value))
    }

    /// First (smallest-key) entry.
    pub fn first(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_ref()?;
        while let Some(l) = cur.left.as_ref() {
            cur = l;
        }
        Some((&cur.key, &cur.value))
    }

    /// Last (largest-key) entry.
    pub fn last(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_ref()?;
        while let Some(r) = cur.right.as_ref() {
            cur = r;
        }
        Some((&cur.key, &cur.value))
    }

    /// Returns a version with `key` mapped to `value` (replacing any
    /// previous mapping).
    ///
    /// Single descent with path copying: the new node takes the first
    /// position where its priority dominates, splitting only the subtree
    /// below that point — far fewer node copies than the classic
    /// split/split/join/join formulation, same canonical shape.
    pub fn insert(&self, key: K, value: V) -> Self {
        let prio = det_prio(&key);
        PTreap { root: ins(&self.root, key, value, prio) }
    }

    /// Returns a version without `key` (single descent, path copying).
    pub fn remove(&self, key: &K) -> Self {
        PTreap { root: rem(&self.root, key) }
    }

    /// Splits into `(keys <= key, keys > key)` when `inclusive`, else
    /// `(keys < key, keys >= key)`.
    pub fn split_at(&self, key: &K, inclusive: bool) -> (Self, Self) {
        let (l, r) = split(&self.root, key, inclusive);
        (PTreap { root: l }, PTreap { root: r })
    }

    /// Joins two treaps; every key of `self` must be smaller than every key
    /// of `other` (checked in debug builds).
    pub fn join_with(&self, other: &Self) -> Self {
        debug_assert!(match (self.last(), other.first()) {
            (Some((a, _)), Some((b, _))) => a < b,
            _ => true,
        });
        PTreap { root: join(&self.root, &other.root) }
    }

    /// Joins `left`, the entry `(key, value)` and `right`, whose keys must
    /// be ordered `left < key < right`. When the entry's priority
    /// dominates both roots this is one new node; otherwise the
    /// higher-priority side's inner spine is path-copied down to where
    /// the entry fits, keeping the canonical shape.
    pub fn join3(left: &Self, key: K, value: V, right: &Self) -> Self {
        let prio = det_prio(&key);
        PTreap { root: Some(join3(&left.root, key, value, prio, &right.root)) }
    }

    /// In-order iterator over entries.
    pub fn iter(&self) -> Iter<'_, K, V, A> {
        let mut stack = Vec::new();
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            stack.push(n);
            cur = n.left.as_deref();
        }
        Iter { stack }
    }

    /// Collects entries into a vector (mostly for tests).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

/// In-order borrowed iterator.
pub struct Iter<'a, K, V, A> {
    stack: Vec<&'a Node<K, V, A>>,
}

impl<'a, K, V, A> Iterator for Iter<'a, K, V, A> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        let mut cur = n.right.as_deref();
        while let Some(c) = cur {
            self.stack.push(c);
            cur = c.left.as_deref();
        }
        Some((&n.key, &n.value))
    }
}

fn mk_node<K, V, A>(
    key: K,
    value: V,
    left: Link<K, V, A>,
    right: Link<K, V, A>,
) -> Arc<Node<K, V, A>>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    let prio = det_prio(&key);
    mk_node_prio(key, value, prio, left, right)
}

fn mk_node_prio<K, V, A>(
    key: K,
    value: V,
    prio: u64,
    left: Link<K, V, A>,
    right: Link<K, V, A>,
) -> Arc<Node<K, V, A>>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    let size = 1 + left.as_ref().map_or(0, |n| n.size) + right.as_ref().map_or(0, |n| n.size);
    let agg = A::combine(
        A::of_item(&key, &value),
        left.as_ref().map(|n| &n.agg),
        right.as_ref().map(|n| &n.agg),
    );
    // Every allocation here is a path-copied node — the persistence cost
    // the paper charges to `TreapOps`. No-op unless a collector is active.
    add_work(Category::TreapOps, 1);
    Arc::new(Node { key, value, prio, size, agg, left, right })
}

fn ins<K, V, A>(link: &Link<K, V, A>, key: K, value: V, prio: u64) -> Link<K, V, A>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    let Some(n) = link else {
        return Some(mk_node_prio(key, value, prio, None, None));
    };
    if prio > n.prio {
        // The new node takes this position. The key cannot already exist
        // in this subtree: it would carry this same priority, and the
        // heap property caps every descendant at `n.prio < prio`.
        let (l, r) = split(link, &key, false);
        return Some(mk_node_prio(key, value, prio, l, r));
    }
    match key.cmp(&n.key) {
        Ordering::Equal => Some(mk_node_prio(key, value, prio, n.left.clone(), n.right.clone())),
        Ordering::Less => Some(mk_node_prio(
            n.key.clone(),
            n.value.clone(),
            n.prio,
            ins(&n.left, key, value, prio),
            n.right.clone(),
        )),
        Ordering::Greater => Some(mk_node_prio(
            n.key.clone(),
            n.value.clone(),
            n.prio,
            n.left.clone(),
            ins(&n.right, key, value, prio),
        )),
    }
}

fn rem<K, V, A>(link: &Link<K, V, A>, key: &K) -> Link<K, V, A>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    let n = link.as_ref()?;
    match key.cmp(&n.key) {
        Ordering::Equal => join(&n.left, &n.right),
        Ordering::Less => Some(mk_node_prio(
            n.key.clone(),
            n.value.clone(),
            n.prio,
            rem(&n.left, key),
            n.right.clone(),
        )),
        Ordering::Greater => Some(mk_node_prio(
            n.key.clone(),
            n.value.clone(),
            n.prio,
            n.left.clone(),
            rem(&n.right, key),
        )),
    }
}

fn split<K, V, A>(link: &Link<K, V, A>, key: &K, inclusive: bool) -> (Link<K, V, A>, Link<K, V, A>)
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    let Some(n) = link else {
        return (None, None);
    };
    let go_left = match n.key.cmp(key) {
        Ordering::Less => false,
        Ordering::Greater => true,
        Ordering::Equal => !inclusive,
    };
    if go_left {
        // n and its right subtree belong to the right part.
        let (ll, lr) = split(&n.left, key, inclusive);
        let right = mk_node_prio(n.key.clone(), n.value.clone(), n.prio, lr, n.right.clone());
        (ll, Some(right))
    } else {
        let (rl, rr) = split(&n.right, key, inclusive);
        let left = mk_node_prio(n.key.clone(), n.value.clone(), n.prio, n.left.clone(), rl);
        (Some(left), rr)
    }
}

fn join<K, V, A>(l: &Link<K, V, A>, r: &Link<K, V, A>) -> Link<K, V, A>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    match (l, r) {
        (None, _) => r.clone(),
        (_, None) => l.clone(),
        (Some(ln), Some(rn)) => {
            if ln.prio >= rn.prio {
                let new_right = join(&ln.right, r);
                Some(mk_node_prio(
                    ln.key.clone(),
                    ln.value.clone(),
                    ln.prio,
                    ln.left.clone(),
                    new_right,
                ))
            } else {
                let new_left = join(l, &rn.left);
                Some(mk_node_prio(
                    rn.key.clone(),
                    rn.value.clone(),
                    rn.prio,
                    new_left,
                    rn.right.clone(),
                ))
            }
        }
    }
}

fn join3<K, V, A>(
    l: &Link<K, V, A>,
    key: K,
    value: V,
    prio: u64,
    r: &Link<K, V, A>,
) -> Arc<Node<K, V, A>>
where
    K: Clone + Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    A: Aggregate<K, V>,
{
    let (lp, rp) = (l.as_ref().map_or(0, |n| n.prio), r.as_ref().map_or(0, |n| n.prio));
    match (l, r) {
        (Some(ln), _) if lp > prio && lp >= rp => mk_node_prio(
            ln.key.clone(),
            ln.value.clone(),
            ln.prio,
            ln.left.clone(),
            Some(join3(&ln.right, key, value, prio, r)),
        ),
        (_, Some(rn)) if rp > prio => mk_node_prio(
            rn.key.clone(),
            rn.value.clone(),
            rn.prio,
            Some(join3(l, key, value, prio, &rn.left)),
            rn.right.clone(),
        ),
        _ => mk_node_prio(key, value, prio, l.clone(), r.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = PTreap<u64, u64, CountAgg>;

    #[test]
    fn node_copies_charge_treap_ops() {
        let (_, report) = hsr_pram::cost::CostCollector::measure(|| {
            let t: T = T::from_sorted((0..100).map(|i| (i, i)).collect());
            let _t2 = t.insert(1_000, 1); // path copy: O(log n) more nodes
        });
        let copies = report.work_of(Category::TreapOps);
        assert!(copies >= 101, "expected >= 101 node copies, counted {copies}");
        // Outside any collector, the same operations count nothing (the
        // uninstrumented fast path) — and must not panic.
        let t: T = T::from_sorted((0..10).map(|i| (i, i)).collect());
        let _ = t.insert(99, 0);
    }

    #[test]
    fn insert_get_remove() {
        let t = T::new();
        let t1 = t.insert(5, 50).insert(3, 30).insert(8, 80);
        assert_eq!(t1.len(), 3);
        assert_eq!(t1.get(&3), Some(&30));
        assert_eq!(t1.get(&9), None);
        let t2 = t1.remove(&3);
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.get(&3), None);
        // persistence: t1 unchanged
        assert_eq!(t1.get(&3), Some(&30));
    }

    #[test]
    fn canonical_shape_independent_of_order() {
        let a = T::new().insert(1, 1).insert(2, 2).insert(3, 3);
        let b = T::new().insert(3, 3).insert(1, 1).insert(2, 2);
        // same key set => same root key (shape canonical)
        assert_eq!(a.root().map(|n| *n.key()), b.root().map(|n| *n.key()));
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn from_sorted_matches_inserts() {
        let items: Vec<(u64, u64)> = (0..100).map(|i| (i * 3, i)).collect();
        let a = T::from_sorted(items.clone());
        let mut b = T::new();
        for (k, v) in &items {
            b = b.insert(*k, *v);
        }
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a.root().map(|n| *n.key()), b.root().map(|n| *n.key()));
        assert_eq!(a.agg().unwrap().0, 100);
    }

    #[test]
    fn floor_ceiling() {
        let t = T::from_sorted(vec![(10, 0), (20, 1), (30, 2)]);
        assert_eq!(t.floor(&25).map(|(k, _)| *k), Some(20));
        assert_eq!(t.floor(&20).map(|(k, _)| *k), Some(20));
        assert_eq!(t.floor(&5), None);
        assert_eq!(t.ceiling(&25).map(|(k, _)| *k), Some(30));
        assert_eq!(t.ceiling(&35), None);
        assert_eq!(t.first().map(|(k, _)| *k), Some(10));
        assert_eq!(t.last().map(|(k, _)| *k), Some(30));
    }

    #[test]
    fn split_join_roundtrip() {
        let t = T::from_sorted((0..50).map(|i| (i, i)).collect());
        let (l, r) = t.split_at(&25, true);
        assert_eq!(l.len(), 26);
        assert_eq!(r.len(), 24);
        let j = l.join_with(&r);
        assert_eq!(j.to_vec(), t.to_vec());
    }

    #[test]
    fn join3_matches_canonical_shape() {
        fn preorder(t: &T, out: &mut Vec<u64>) {
            if let Some(n) = t.root() {
                out.push(*n.key());
                preorder(&n.left(), out);
                preorder(&n.right(), out);
            }
        }
        let t = T::from_sorted((0..300).map(|i| (i * 2, i)).collect());
        let mut want = Vec::new();
        preorder(&t, &mut want);
        for k in [0u64, 2, 37 * 2, 150 * 2, 299 * 2] {
            let (l, r) = t.split_at(&k, false);
            let r = r.remove(&k);
            let j = T::join3(&l, k, k / 2, &r);
            let mut got = Vec::new();
            preorder(&j, &mut got);
            assert_eq!(got, want, "joining around key {k}");
            assert_eq!(j.agg().unwrap().0, 300);
        }
    }

    #[test]
    fn structural_sharing_after_insert() {
        let t1 = T::from_sorted((0..1000).map(|i| (i, i)).collect());
        let t2 = t1.insert(5000, 1);
        // The new version must share almost all nodes with the old one.
        let stats = crate::stats::SharingStats::of(&[&t1, &t2]);
        assert!(stats.unique_nodes < t1.len() + 50, "unique={}", stats.unique_nodes);
        assert_eq!(stats.total_logical, t1.len() + t2.len());
    }

    #[test]
    fn heap_property_holds() {
        let t = T::from_sorted((0..200).map(|i| (i, i)).collect());
        fn check(n: &NodeHandle<u64, u64, CountAgg>) {
            for c in [n.left().root(), n.right().root()].into_iter().flatten() {
                assert!(det_prio(n.key()) >= det_prio(c.key()));
                check(&c);
            }
        }
        check(&t.root().unwrap());
    }
}
