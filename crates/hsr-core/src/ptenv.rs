//! Persistent prefix profiles — the realization of the paper's shared
//! ACG + persistence machinery (DESIGN.md §4.3, realization 1).
//!
//! A prefix profile is stored as a persistent treap of envelope
//! [`Piece`]s keyed by their left abscissa, with `O(1)` subtree aggregates
//! ([`EnvAgg`]: abscissa extent, ordinate range, gap-freeness). Because the
//! treap is persistent:
//!
//! * the *left* child of a PCT node inherits its parent's profile in `O(1)`
//!   (an `Arc` clone), sharing every node — the sharing Figure 1 of the
//!   paper depicts;
//! * the *right* child's profile comes from [`PEnvelope::merge`], one
//!   recursive descent that overlays the whole sorted intermediate run `σ`
//!   onto the prefix treap. Each subtree sees only the run pieces inside
//!   its key window, found by binary search on the one run. A subtree the
//!   run misses, a gap-free subtree that dominates the run over its
//!   extent, and a prefix piece the run stays under all come back as the
//!   same `Arc`, uncut; a subtree the run buries is replaced by the run.
//!   Both prune tests cost `O(1)` per node from range-min/max tables built
//!   once per merge. A node is copied only when its piece or a child
//!   changed, so the copies are the paths down to where `σ` surfaces —
//!   each surfaced piece or crossing is a visible piece or image vertex,
//!   chargeable to the output size `k` — plus the joins that splice the
//!   surfaced pieces in.
//!
//! [`PEnvelope::classify_one`], the leaf case, runs the same descent with
//! node assembly switched off.

use crate::envelope::{relate, CrossEvent, Envelope, EnvelopeBuilder, Piece, Relation};
use hsr_geometry::TotalF64;
use hsr_pram::cost::{add_work, Category};
use hsr_pstruct::{Aggregate, PTreap};

/// Subtree aggregate of a piece treap: extent, ordinate range, and whether
/// the subtree's pieces tile their extent without interior gaps.
#[derive(Clone, Copy, Debug)]
pub struct EnvAgg {
    /// Leftmost abscissa of the subtree.
    pub x_min: f64,
    /// Rightmost abscissa of the subtree.
    pub x_max: f64,
    /// Minimum ordinate over all pieces.
    pub z_min: f64,
    /// Maximum ordinate over all pieces.
    pub z_max: f64,
    /// True when the pieces cover `[x_min, x_max]` with no interior gap.
    pub covered: bool,
}

impl Aggregate<TotalF64, Piece> for EnvAgg {
    fn of_item(_k: &TotalF64, p: &Piece) -> Self {
        EnvAgg { x_min: p.x0, x_max: p.x1, z_min: p.z_min(), z_max: p.z_max(), covered: true }
    }

    fn combine(item: Self, left: Option<&Self>, right: Option<&Self>) -> Self {
        let mut a = item;
        if let Some(l) = left {
            a.covered = a.covered && l.covered && l.x_max == a.x_min;
            a.x_min = l.x_min;
            a.z_min = a.z_min.min(l.z_min);
            a.z_max = a.z_max.max(l.z_max);
        }
        if let Some(r) = right {
            a.covered = a.covered && r.covered && a.x_max == r.x_min;
            a.x_max = r.x_max;
            a.z_min = a.z_min.min(r.z_min);
            a.z_max = a.z_max.max(r.z_max);
        }
        a
    }
}

type Tree = PTreap<TotalF64, Piece, EnvAgg>;

/// Counters describing what one merge did (used by the sharing and
/// ablation experiments).
#[derive(Clone, Copy, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MergeStats {
    /// Subtrees kept fully shared because the prefix profile dominated.
    pub subtrees_shared: u64,
    /// Subtrees dropped whole because the merged run buried them.
    pub subtrees_dropped: u64,
    /// Prefix-profile pieces buried (removed from the profile).
    pub pieces_buried: u64,
    /// Piece-vs-piece comparisons performed.
    pub pairs: u64,
    /// Treap nodes visited during the merge.
    pub visits: u64,
}

impl MergeStats {
    /// Accumulates another merge's counters into this one.
    pub fn absorb(&mut self, o: &MergeStats) {
        self.subtrees_shared += o.subtrees_shared;
        self.subtrees_dropped += o.subtrees_dropped;
        self.pieces_buried += o.pieces_buried;
        self.pairs += o.pairs;
        self.visits += o.visits;
    }
}

/// Result of merging an intermediate profile into a prefix profile.
pub struct MergeOutcome {
    /// The new prefix profile version.
    pub env: PEnvelope,
    /// Interior crossings discovered (vertices of the visible image).
    pub crossings: Vec<CrossEvent>,
    /// The portions of the merged segments that surfaced (visible pieces).
    pub inserted: Vec<Piece>,
    /// Merge counters.
    pub stats: MergeStats,
}

/// Result of a read-only classification of one piece against a profile —
/// everything [`PEnvelope::merge`] reports for that one-piece run except
/// the merged profile version itself.
pub struct ClassifyOutcome {
    /// Interior crossings discovered (vertices of the visible image).
    pub crossings: Vec<CrossEvent>,
    /// The portions of the piece that surfaced (visible pieces).
    pub inserted: Vec<Piece>,
    /// Merge counters.
    pub stats: MergeStats,
}

/// A persistent upper envelope (prefix profile). Cloning is `O(1)` and the
/// clone shares all structure.
#[derive(Clone, Default)]
pub struct PEnvelope {
    t: Tree,
}

impl PEnvelope {
    /// The empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a static envelope in `O(m)`.
    pub fn from_envelope(e: &Envelope) -> Self {
        let items: Vec<(TotalF64, Piece)> = e.iter().map(|p| (TotalF64(p.x0), p)).collect();
        PEnvelope { t: Tree::from_sorted(items) }
    }

    /// Number of pieces.
    pub fn size(&self) -> usize {
        self.t.len()
    }

    /// True when the profile has no pieces.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Profile value at `x`, `None` over gaps.
    pub fn eval(&self, x: f64) -> Option<f64> {
        let (_, p) = self.t.floor(&TotalF64(x))?;
        (x <= p.x1).then(|| p.eval(x))
    }

    /// Materialises the profile as a static envelope (O(m)).
    pub fn to_envelope(&self) -> Envelope {
        let mut b = EnvelopeBuilder::with_capacity(self.t.len());
        for (_, p) in self.t.iter() {
            b.push(*p);
        }
        Envelope::from_sorted_pieces(b.finish())
    }

    /// The underlying treap (for sharing statistics).
    pub fn treap(&self) -> &PTreap<TotalF64, Piece, EnvAgg> {
        &self.t
    }

    /// Merges an intermediate profile (a sorted, disjoint piece run —
    /// the form PCT phase 1 stores) into this prefix profile, returning
    /// the new version plus the crossings and surfaced pieces. `self` is
    /// untouched (persistence); where the two tie, the prefix stays.
    pub fn merge(&self, sigma: &[Piece]) -> MergeOutcome {
        let mut o = Overlay::new(sigma, true);
        let t = o.descend(&self.t, f64::NEG_INFINITY, f64::INFINITY, 0, sigma.len());
        let (crossings, inserted, stats) = o.finish();
        MergeOutcome {
            env: PEnvelope { t: t.unwrap_or_else(|| self.t.clone()) },
            crossings,
            inserted,
            stats,
        }
    }

    /// Classifies a single piece against the profile *without producing a
    /// new profile version* — the leaf case of phase 2, where the merged
    /// treap would be discarded and only the surfaced pieces and crossings
    /// are consumed. It runs [`PEnvelope::merge`]'s descent with node
    /// assembly switched off, so it reports exactly what `merge(&[s])`
    /// reports and allocates no treap node.
    pub fn classify_one(&self, s: Piece) -> ClassifyOutcome {
        let mut o = Overlay::new(std::slice::from_ref(&s), false);
        o.descend(&self.t, f64::NEG_INFINITY, f64::INFINITY, 0, 1);
        let (crossings, inserted, stats) = o.finish();
        ClassifyOutcome { crossings, inserted, stats }
    }
}

/// One overlay of a run `σ` onto a prefix treap: the run with its range
/// tables, and what the descent has found so far. With `build` off the
/// descent takes the same decisions and reports the same, but assembles
/// no nodes.
struct Overlay<'a> {
    sigma: &'a [Piece],
    /// `spans[l][i]`: the lowest `z_min` and highest `z_max` over
    /// `sigma[i..i + 2^(l+1)]` (a sparse table; single pieces are read
    /// directly).
    spans: Vec<Vec<(f64, f64)>>,
    /// `gaps[i]`: how many neighbour pairs within `sigma[..=i]` leave a
    /// gap (empty for a one-piece run, which has none).
    gaps: Vec<u32>,
    build: bool,
    cross: Vec<CrossEvent>,
    ins: Vec<Piece>,
    stats: MergeStats,
}

impl<'a> Overlay<'a> {
    fn new(sigma: &'a [Piece], build: bool) -> Self {
        let mut spans: Vec<Vec<(f64, f64)>> = Vec::new();
        let mut half = 1;
        while 2 * half <= sigma.len() {
            let at = |i: usize| match spans.last() {
                Some(prev) => prev[i],
                None => (sigma[i].z_min(), sigma[i].z_max()),
            };
            let level = (0..=sigma.len() - 2 * half)
                .map(|i| {
                    let (a, b) = (at(i), at(i + half));
                    (a.0.min(b.0), a.1.max(b.1))
                })
                .collect();
            spans.push(level);
            half *= 2;
        }
        let gaps = match sigma.len() {
            0 | 1 => Vec::new(),
            _ => std::iter::once(0)
                .chain(sigma.windows(2).scan(0, |n, w| {
                    *n += u32::from(w[0].x1 < w[1].x0);
                    Some(*n)
                }))
                .collect(),
        };
        let (cross, ins, stats) = (Vec::new(), Vec::new(), MergeStats::default());
        Overlay { sigma, spans, gaps, build, cross, ins, stats }
    }

    /// Charges the merge's work and hands over what it found, surfaced
    /// fragments of one edge coalesced.
    fn finish(self) -> (Vec<CrossEvent>, Vec<Piece>, MergeStats) {
        add_work(Category::EnvelopeMerge, self.stats.visits + self.sigma.len() as u64);
        add_work(Category::Crossings, self.cross.len() as u64);
        let mut b = EnvelopeBuilder::with_capacity(self.ins.len());
        for p in self.ins {
            b.push(p);
        }
        (self.cross, b.finish(), self.stats)
    }

    /// The pieces of `sigma[i..j]` that overlap the open interval `(u, v)`.
    fn within(&self, i: usize, j: usize, u: f64, v: f64) -> (usize, usize) {
        let run = &self.sigma[i..j];
        let a = run.partition_point(|p| p.x1 <= u);
        (i + a, i + a + run[a..].partition_point(|p| p.x0 < v))
    }

    /// Lowest and highest ordinate of the run over `[u, v]`, whose
    /// overlapping pieces are `sigma[a..b]` (`a < b`): the end pieces are
    /// evaluated at the interval's edges, inner ones come from the tables.
    fn range_over(&self, a: usize, b: usize, u: f64, v: f64) -> (f64, f64) {
        let ends = |p: &Piece| {
            let (z0, z1) = (p.eval(u), p.eval(v));
            (z0.min(z1), z0.max(z1))
        };
        let (mut lo, mut hi) = ends(&self.sigma[a]);
        let mut fold = |(l, h): (f64, f64)| {
            lo = lo.min(l);
            hi = hi.max(h);
        };
        if b - a > 1 {
            fold(ends(&self.sigma[b - 1]));
        }
        if b - a > 2 {
            fold(self.span(a + 1, b - 1));
        }
        (lo, hi)
    }

    /// Lowest `z_min` and highest `z_max` over `sigma[a..b]` (`a < b`).
    fn span(&self, a: usize, b: usize) -> (f64, f64) {
        match (b - a).ilog2() as usize {
            0 => (self.sigma[a].z_min(), self.sigma[a].z_max()),
            l => {
                let (x, y) = (self.spans[l - 1][a], self.spans[l - 1][b - (1 << l)]);
                (x.0.min(y.0), x.1.max(y.1))
            }
        }
    }

    /// True when `sigma[a..b]` covers `[u, v]` without a gap.
    fn covers(&self, a: usize, b: usize, u: f64, v: f64) -> bool {
        self.sigma[a].x0 <= u
            && self.sigma[b - 1].x1 >= v
            && (b - a == 1 || self.gaps[b - 1] == self.gaps[a])
    }

    /// Overlays `sigma[i..j]` — the run pieces overlapping the key window
    /// `(lo, hi)` — onto `t`, whose pieces all lie in that window. Returns
    /// the new subtree, or `None` when `t` comes out unchanged (always,
    /// with `build` off).
    fn descend(&mut self, t: &Tree, lo: f64, hi: f64, i: usize, j: usize) -> Option<Tree> {
        if i == j {
            return None;
        }
        let Some(n) = t.root() else {
            return self.surface(lo, hi, i, j);
        };
        self.stats.visits += 1;
        let agg = *n.agg();
        let (a, b) = self.within(i, j, agg.x_min, agg.x_max);
        let (run_lo, run_hi) = if a < b {
            self.range_over(a, b, agg.x_min, agg.x_max)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };

        // Prune 1: the run stays under a gap-free subtree over its whole
        // extent (or misses the extent) — keep the subtree shared and
        // surface the run only in the flanking gaps.
        if a == b || (agg.covered && agg.z_min >= run_hi) {
            self.stats.subtrees_shared += u64::from(a < b);
            let (_, lj) = self.within(i, j, lo, agg.x_min);
            let l = self.surface(lo, agg.x_min, i, lj);
            let (ri, _) = self.within(i, j, agg.x_max, hi);
            let r = self.surface(agg.x_max, hi, ri, j);
            if l.is_none() && r.is_none() {
                return None;
            }
            let mut out = t.clone();
            if let Some(l) = l {
                out = l.join_with(&out);
            }
            if let Some(r) = r {
                out = out.join_with(&r);
            }
            return Some(out);
        }

        // Prune 2: the run buries the whole subtree — replace it by the run.
        if self.covers(a, b, agg.x_min, agg.x_max) && run_lo > agg.z_max {
            self.stats.subtrees_dropped += 1;
            self.stats.pieces_buried += n.size() as u64;
            return self.surface(lo, hi, i, j);
        }

        // Descend around the root piece.
        let r = *n.value();
        let (li, lj) = self.within(i, j, lo, r.x0);
        let left = self.descend(&n.left(), lo, r.x0, li, lj);
        let (mi, mj) = self.within(i, j, r.x0, r.x1);
        let mid = self.pair(r, mi, mj);
        let (ri, rj) = self.within(i, j, r.x1, hi);
        let right = self.descend(&n.right(), r.x1, hi, ri, rj);
        if left.is_none() && mid.is_none() && right.is_none() {
            return None;
        }
        let l = left.unwrap_or_else(|| n.left());
        let rt = right.unwrap_or_else(|| n.right());
        // The first replacement piece starts at `r.x0` and takes `r`'s
        // place; the rest join in front of the right subtree.
        Some(match mid.as_deref().and_then(<[Piece]>::split_first) {
            None => Tree::join3(&l, *n.key(), r, &rt),
            Some((first, rest)) => {
                let rt = rest
                    .iter()
                    .rev()
                    .fold(rt, |rt, p| Tree::join3(&Tree::new(), TotalF64(p.x0), *p, &rt));
                Tree::join3(&l, TotalF64(first.x0), *first, &rt)
            }
        })
    }

    /// Resolves prefix piece `r` against the run pieces `sigma[a..b]` that
    /// overlap it (two linear pieces cross at most once). Returns the
    /// pieces replacing `r`, or `None` when `r` stays on top throughout —
    /// it is then kept whole, however many run pieces it hides.
    fn pair(&mut self, r: Piece, a: usize, b: usize) -> Option<Vec<Piece>> {
        let (mut out, mut from) = (Vec::new(), r.x0);
        let (mut surfaced, mut kept) = (false, false);
        for s in &self.sigma[a..b] {
            let (u, v) = (r.x0.max(s.x0), r.x1.min(s.x1));
            self.stats.pairs += 1;
            let (su, sv) = match relate(&r, s, u, v) {
                Relation::AAbove => continue,
                Relation::BAbove => (u, v),
                Relation::CrossAtoB { x, z } => {
                    self.cross
                        .push(CrossEvent { x, z, upper_left: r.edge, upper_right: s.edge });
                    (x, v)
                }
                Relation::CrossBtoA { x, z } => {
                    self.cross
                        .push(CrossEvent { x, z, upper_left: s.edge, upper_right: r.edge });
                    (u, x)
                }
            };
            let Some(up) = s.clip(su, sv) else {
                continue;
            };
            let before = r.clip(from, su);
            surfaced = true;
            kept |= before.is_some();
            self.ins.push(up);
            if self.build {
                out.extend(before);
                out.push(up);
            }
            from = sv;
        }
        if !surfaced {
            return None;
        }
        let tail = r.clip(from, r.x1);
        self.stats.pieces_buried += u64::from(!kept && tail.is_none());
        out.extend(tail);
        self.build.then_some(out)
    }

    /// Surfaces the run pieces `sigma[a..b]` over `[u, v]`, where the
    /// prefix has nothing; builds them into a subtree when building.
    fn surface(&mut self, u: f64, v: f64, a: usize, b: usize) -> Option<Tree> {
        let start = self.ins.len();
        self.ins
            .extend(self.sigma[a..b].iter().filter_map(|s| s.clip(u, v)));
        let new = &self.ins[start..];
        (self.build && !new.is_empty())
            .then(|| Tree::from_sorted(new.iter().map(|p| (TotalF64(p.x0), *p)).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsr_pstruct::SharingStats;

    fn piece(x0: f64, z0: f64, x1: f64, z1: f64, edge: u32) -> Piece {
        Piece { x0, x1, z0, z1, edge }
    }

    fn pseudo_pieces(n: usize, seed: u64) -> Vec<Piece> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n as u32)
            .map(|e| {
                let x0 = next() * 90.0;
                let w = next() * 12.0 + 0.5;
                piece(x0, next() * 20.0, x0 + w, next() * 20.0, e)
            })
            .collect()
    }

    fn preorder(t: &Tree) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut stack: Vec<_> = t.root().into_iter().collect();
        while let Some(n) = stack.pop() {
            keys.push(n.key().0.to_bits());
            stack.extend(n.right().root());
            stack.extend(n.left().root());
        }
        keys
    }

    fn envelopes_agree(a: &Envelope, b: &Envelope) {
        let samples = 2000;
        for s in 0..samples {
            let x = s as f64 * 110.0 / samples as f64 - 2.0;
            let (va, vb) = (a.eval(x), b.eval(x));
            match (va, vb) {
                (None, None) => {}
                (Some(va), Some(vb)) => {
                    assert!((va - vb).abs() < 1e-9, "value mismatch at x={x}: {va} vs {vb}")
                }
                _ => panic!("gap mismatch at x={x}: {va:?} vs {vb:?}"),
            }
        }
    }

    #[test]
    fn roundtrip_and_eval() {
        let base = Envelope::from_pieces(&pseudo_pieces(40, 7));
        let pe = PEnvelope::from_envelope(&base);
        assert_eq!(pe.size(), base.size());
        for s in 0..500 {
            let x = s as f64 * 0.2;
            assert_eq!(pe.eval(x), base.eval(x), "at x={x}");
        }
        envelopes_agree(&pe.to_envelope(), &base);
    }

    #[test]
    fn merge_matches_static_merge() {
        for seed in [1u64, 2, 3, 4, 5] {
            let pa = pseudo_pieces(50, seed);
            let pb: Vec<Piece> = pseudo_pieces(35, seed + 100)
                .into_iter()
                .map(|mut p| {
                    p.edge += 1000;
                    p
                })
                .collect();
            let ea = Envelope::from_pieces(&pa);
            let eb = Envelope::from_pieces(&pb);
            let expect = Envelope::merge(&ea, &eb);

            let pe = PEnvelope::from_envelope(&ea);
            let got = pe.merge(&eb.to_pieces());
            envelopes_agree(&got.env.to_envelope(), &expect);
            // Persistence: the original is untouched.
            envelopes_agree(&pe.to_envelope(), &ea);
            // The merged treap has the canonical shape of its key set.
            let rebuilt = Tree::from_sorted(got.env.treap().to_vec());
            assert_eq!(preorder(got.env.treap()), preorder(&rebuilt), "seed {seed}");
        }
    }

    #[test]
    fn merge_reports_crossings_and_insertions() {
        // Flat profile at z=1; a tent pokes above it in the middle.
        let base = Envelope::from_piece(piece(0.0, 1.0, 10.0, 1.0, 0));
        let pe = PEnvelope::from_envelope(&base);
        let tent = Envelope::from_sorted_pieces(vec![
            piece(4.0, 0.0, 6.0, 4.0, 7),
            piece(6.0, 4.0, 8.0, 0.0, 8),
        ]);
        let out = pe.merge(&tent.to_pieces());
        assert_eq!(out.crossings.len(), 2);
        assert_eq!(out.inserted.len(), 2);
        let e = out.env.to_envelope();
        assert!(e.eval(6.0).unwrap() > 3.9);
        assert_eq!(e.eval(1.0), Some(1.0));
    }

    #[test]
    fn merge_buried_shares_everything() {
        let base = Envelope::from_pieces(&pseudo_pieces(64, 9));
        // Shift up to guarantee domination.
        let raised: Vec<Piece> = base
            .iter()
            .map(|p| piece(p.x0, p.z0 + 100.0, p.x1, p.z1 + 100.0, p.edge))
            .collect();
        let high = Envelope::from_sorted_pieces(raised);
        let pe = PEnvelope::from_envelope(&high);
        let low = Envelope::from_piece(piece(20.0, 0.5, 60.0, 0.7, 999));
        let out = pe.merge(&low.to_pieces());
        assert!(out.crossings.is_empty());
        // Either fully buried or surfacing only in gaps of the profile.
        for p in &out.inserted {
            assert!(high.eval(0.5 * (p.x0 + p.x1)).is_none());
        }
        // Structure shared: merging must not rebuild the whole tree.
        let s = SharingStats::of(&[pe.treap(), out.env.treap()]);
        assert!(
            (s.unique_nodes as f64) < 1.3 * pe.size() as f64 + 64.0,
            "unique={} size={}",
            s.unique_nodes,
            pe.size()
        );
    }

    #[test]
    fn classify_one_matches_merge_one_bitwise() {
        for seed in [1u64, 5, 11, 23] {
            let base = Envelope::from_pieces(&pseudo_pieces(80, seed));
            let pe = PEnvelope::from_envelope(&base);
            for s in pseudo_pieces(40, seed + 900) {
                let s = Piece { edge: s.edge + 10_000, ..s };
                let a = pe.merge(&[s]);
                let b = pe.classify_one(s);
                assert_eq!(a.inserted.len(), b.inserted.len(), "seed {seed} piece {s:?}");
                for (x, y) in a.inserted.iter().zip(&b.inserted) {
                    assert_eq!(
                        (x.x0.to_bits(), x.x1.to_bits(), x.z0.to_bits(), x.z1.to_bits(), x.edge),
                        (y.x0.to_bits(), y.x1.to_bits(), y.z0.to_bits(), y.z1.to_bits(), y.edge),
                    );
                }
                assert_eq!(a.crossings.len(), b.crossings.len());
                for (x, y) in a.crossings.iter().zip(&b.crossings) {
                    assert_eq!(
                        (x.x.to_bits(), x.z.to_bits(), x.upper_left, x.upper_right),
                        (y.x.to_bits(), y.z.to_bits(), y.upper_left, y.upper_right),
                    );
                }
                assert_eq!(a.stats.visits, b.stats.visits);
                assert_eq!(a.stats.pairs, b.stats.pairs);
                assert_eq!(a.stats.subtrees_shared, b.stats.subtrees_shared);
                assert_eq!(a.stats.subtrees_dropped, b.stats.subtrees_dropped);
                assert_eq!(a.stats.pieces_buried, b.stats.pieces_buried);
            }
        }
    }

    #[test]
    fn run_under_gap_free_prefix_copies_nothing() {
        // A gap-free prefix high above a run that lies wholly under it,
        // straddling many prefix pieces: no piece is cut, no node copied.
        let z = |i: u32| 100.0 + (i % 5) as f64;
        let high = (0..64).map(|i| piece(i as f64, z(i), (i + 1) as f64, z(i + 1), i));
        let pe = PEnvelope::from_envelope(&Envelope::from_sorted_pieces(high.collect()));
        let sigma: Vec<Piece> = (0..20)
            .map(|i| piece(3.0 * i as f64 + 0.5, 1.0, 3.0 * i as f64 + 2.7, 2.0, 500 + i))
            .collect();
        let (out, cost) = hsr_pram::CostCollector::measure(|| pe.merge(&sigma));
        assert!(out.crossings.is_empty() && out.inserted.is_empty());
        assert_eq!(out.stats.subtrees_shared, 1);
        let (a, b) = (pe.treap().root().unwrap(), out.env.treap().root().unwrap());
        assert_eq!(a.ptr_id(), b.ptr_id(), "the prefix root must come back shared");
        assert_eq!(cost.work_of(hsr_pram::cost::Category::TreapOps), 0);
    }

    #[test]
    fn dominating_merge_drops_subtrees() {
        let base = Envelope::from_pieces(&pseudo_pieces(64, 21));
        let pe = PEnvelope::from_envelope(&base);
        let (lo, hi) = base.span().unwrap();
        let cover = Envelope::from_piece(piece(lo - 1.0, 500.0, hi + 1.0, 500.0, 777));
        let out = pe.merge(&cover.to_pieces());
        assert_eq!(out.env.size(), 1);
        assert!(out.stats.subtrees_dropped + out.stats.pieces_buried > 0);
        assert_eq!(out.env.eval(0.5 * (lo + hi)), Some(500.0));
    }
}
