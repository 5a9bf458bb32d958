//! The Profile Computation Tree (PCT) — paper §2.1 and §3.
//!
//! A balanced binary tree over the front-to-back ordered edges.
//!
//! * **Phase 1** (bottom-up, [`Pct::build`]): each node stores the
//!   *intermediate profile* — the upper envelope of the edges in its
//!   subtree — computed level-parallel by merging children envelopes
//!   (Lemma 3.1 divide and conquer, realized on the tree itself).
//! * **Phase 2** (top-down, [`Pct::phase2`]): each node receives the
//!   *actual* prefix profile of everything in front of its subtree, in the
//!   systolic parallel-prefix pattern of Ladner–Fischer: the left child
//!   inherits the parent's prefix profile unchanged (an `O(1)` persistent
//!   share), the right child receives `merge(parent prefix, Σ_left)`. The
//!   leaf for edge `e_i` thus receives exactly `P_{i-1}` and the part of
//!   `e_i` above it is visible — and *stays* visible in the final image,
//!   which is what lets every discovered crossing be charged to `k`.
//!
//! Each merge is one descent of the prefix treap
//! ([`PEnvelope::merge`]) that copies a node only where `Σ_left` surfaces
//! or crosses the prefix, so a layer's new nodes track the output it
//! finds rather than the sizes of the profiles it merges; a leaf runs the
//! same descent without building anything ([`PEnvelope::classify_one`]).
//! The nodes of one layer run in parallel; a single merge does not fork.
//!
//! Two phase-2 engines implement DESIGN.md §4.3's two realizations:
//! [`Pct::phase2`] (persistent, shared profiles) and
//! [`Pct::phase2_rebuild`] (static envelopes copied per node — the
//! rebuild-per-layer ACG ablation).

use crate::edges::SceneEdge;
use crate::envelope::{merge_slices, Envelope, Piece};
use crate::ptenv::{MergeStats, PEnvelope};
use crate::visibility::VisibilityMap;
use hsr_pram::cost::{add_work, record_depth, Category};
use hsr_pstruct::SharingStats;
use rayon::prelude::*;

/// One PCT node: a contiguous range of ordered edges.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Range `[lo, hi)` of edge positions covered by the subtree.
    lo: u32,
    hi: u32,
    /// Child node ids (`u32::MAX` for leaves).
    left: u32,
    right: u32,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// Per-layer phase-2 statistics (drives the Figure 1/3 experiments).
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LayerStats {
    /// Layer index (0 = root).
    pub layer: usize,
    /// Nodes at this layer.
    pub nodes: usize,
    /// Total pieces in the intermediate profiles merged at this layer.
    pub sigma_pieces: u64,
    /// Crossings discovered at this layer.
    pub crossings: u64,
    /// Sum of logical prefix-profile sizes at this layer.
    pub logical_pieces: u64,
    /// Distinct treap nodes backing those profiles (≤ logical when shared).
    pub unique_nodes: u64,
    /// Merge counters accumulated over the layer.
    pub merges: MergeStats,
}

/// Result of phase 2.
pub struct Phase2Output {
    /// The visible image.
    pub vis: VisibilityMap,
    /// Per-layer statistics (empty unless requested).
    pub layers: Vec<LayerStats>,
    /// Total crossings discovered at internal (non-leaf) merges.
    pub internal_crossings: u64,
}

/// The profile computation tree with phase-1 envelopes.
pub struct Pct {
    edges: Vec<SceneEdge>,
    nodes: Vec<Node>,
    /// Node ids grouped by layer, layer 0 = root.
    layers: Vec<Vec<u32>>,
    /// Phase-1 intermediate profile per node, stored as a sorted disjoint
    /// piece run: these profiles are small, transient merge inputs, so
    /// row-major runs beat per-node column storage (the columnar
    /// [`Envelope`] is built exactly once, for the root).
    phase1: Vec<Vec<Piece>>,
    /// The root profile, columnarised for query-heavy consumers
    /// ([`Pct::root_profile`], the silhouette layer).
    root: Envelope,
}

impl Pct {
    /// Builds the tree over edges already in front-to-back order and runs
    /// phase 1 (level-parallel envelope merging).
    pub fn build(edges: Vec<SceneEdge>) -> Pct {
        let n = edges.len();
        assert!(n > 0, "PCT needs at least one edge");
        let mut nodes: Vec<Node> = Vec::with_capacity(2 * n);
        let mut layers: Vec<Vec<u32>> = Vec::new();

        // Breadth-first construction so each layer is contiguous.
        nodes.push(Node { lo: 0, hi: n as u32, left: u32::MAX, right: u32::MAX });
        let mut frontier = vec![0u32];
        while !frontier.is_empty() {
            layers.push(frontier.clone());
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for &id in &frontier {
                let (lo, hi) = (nodes[id as usize].lo, nodes[id as usize].hi);
                if hi - lo >= 2 {
                    let mid = lo + (hi - lo) / 2;
                    let l = nodes.len() as u32;
                    nodes.push(Node { lo, hi: mid, left: u32::MAX, right: u32::MAX });
                    let r = nodes.len() as u32;
                    nodes.push(Node { lo: mid, hi, left: u32::MAX, right: u32::MAX });
                    nodes[id as usize].left = l;
                    nodes[id as usize].right = r;
                    next.push(l);
                    next.push(r);
                }
            }
            frontier = next;
        }
        record_depth(Category::EnvelopeBuild, layers.len() as u64);

        // Phase 1: bottom-up envelope computation, parallel within a layer.
        let mut phase1: Vec<Vec<Piece>> = vec![Vec::new(); nodes.len()];
        for layer in layers.iter().rev() {
            let computed: Vec<(u32, Vec<Piece>)> = layer
                .par_iter()
                .map(|&id| {
                    let node = nodes[id as usize];
                    let env = if node.is_leaf() {
                        match edges[node.lo as usize].piece() {
                            Some(p) => vec![p],
                            None => Vec::new(), // vertical projection
                        }
                    } else {
                        merge_slices(&phase1[node.left as usize], &phase1[node.right as usize])
                    };
                    (id, env)
                })
                .collect();
            for (id, env) in computed {
                phase1[id as usize] = env;
            }
        }
        let root = Envelope::from_sorted_pieces(phase1[0].clone());
        Pct { edges, nodes, layers, phase1, root }
    }

    /// The ordered scene edges.
    pub fn edges(&self) -> &[SceneEdge] {
        &self.edges
    }

    /// Number of tree layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The intermediate profile of the root (the profile of the whole
    /// scene — its silhouette).
    pub fn root_profile(&self) -> &Envelope {
        &self.root
    }

    /// Sizes of the phase-1 envelopes per layer (Figure 1 statistics).
    pub fn phase1_layer_sizes(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|&id| self.phase1[id as usize].len() as u64)
                    .sum()
            })
            .collect()
    }

    /// Phase 2 with persistent shared prefix profiles (the default
    /// realization; DESIGN.md §4.3 realization 1).
    pub fn phase2(&self, collect_stats: bool) -> Phase2Output {
        let n_nodes = self.nodes.len();
        let mut incoming: Vec<Option<PEnvelope>> = vec![None; n_nodes];
        incoming[0] = Some(PEnvelope::new());
        record_depth(Category::EnvelopeMerge, self.layers.len() as u64);

        let mut layers_out = Vec::new();
        let mut vis = VisibilityMap { n_edges: self.edges.len(), ..Default::default() };
        let mut internal_crossings = 0u64;

        for (li, layer) in self.layers.iter().enumerate() {
            // Process every node of the layer in parallel. Each internal
            // node propagates to its children; each leaf classifies its
            // edge against the incoming prefix profile.
            #[allow(clippy::type_complexity)]
            let results: Vec<(
                Option<(u32, PEnvelope)>,
                Option<(u32, PEnvelope)>,
                Vec<Piece>,
                Vec<crate::envelope::CrossEvent>,
                Option<u32>,
                MergeStats,
                u64,
            )> = layer
                .par_iter()
                .map(|&id| {
                    let node = self.nodes[id as usize];
                    let prefix = incoming[id as usize]
                        .as_ref()
                        .expect("incoming profile computed by parent layer");
                    if node.is_leaf() {
                        let edge = &self.edges[node.lo as usize];
                        match edge.piece() {
                            Some(p) => {
                                let out = prefix.classify_one(p);
                                (None, None, out.inserted, out.crossings, None, out.stats, 0)
                            }
                            None => {
                                // Vertical projection: visible iff the top
                                // point clears the prefix profile.
                                let x = edge.seg.a.x;
                                let top = edge.seg.a.y.max(edge.seg.b.y);
                                let visible = prefix.eval(x).is_none_or(|z| top > z);
                                (
                                    None,
                                    None,
                                    Vec::new(),
                                    Vec::new(),
                                    visible.then_some(edge.id),
                                    MergeStats::default(),
                                    0,
                                )
                            }
                        }
                    } else {
                        let sigma = &self.phase1[node.left as usize];
                        let out = prefix.merge(sigma);
                        let crossings = out.crossings.len() as u64;
                        (
                            Some((node.left, prefix.clone())),
                            Some((node.right, out.env)),
                            Vec::new(),
                            Vec::new(),
                            None,
                            out.stats,
                            crossings,
                        )
                    }
                })
                .collect();

            let mut stats = LayerStats { layer: li, nodes: layer.len(), ..Default::default() };
            for (l, r, pieces, crossings, vertical, merges, internal) in results {
                stats.merges.absorb(&merges);
                stats.crossings += crossings.len() as u64 + pieces.len() as u64 + internal;
                internal_crossings += internal;
                if let Some((id, env)) = l {
                    incoming[id as usize] = Some(env);
                }
                if let Some((id, env)) = r {
                    incoming[id as usize] = Some(env);
                }
                vis.pieces.extend(pieces);
                vis.crossings.extend(crossings);
                if let Some(e) = vertical {
                    vis.vertical_visible.push(e);
                }
            }

            if collect_stats {
                let live: Vec<&PEnvelope> = layer
                    .iter()
                    .filter_map(|&id| incoming[id as usize].as_ref())
                    .collect();
                let treaps: Vec<_> = live.iter().map(|pe| pe.treap()).collect();
                let sh = SharingStats::of(&treaps);
                stats.logical_pieces = sh.total_logical as u64;
                stats.unique_nodes = sh.unique_nodes as u64;
                stats.sigma_pieces = layer
                    .iter()
                    .map(|&id| {
                        let node = self.nodes[id as usize];
                        if node.is_leaf() {
                            1
                        } else {
                            self.phase1[node.left as usize].len() as u64
                        }
                    })
                    .sum();
                layers_out.push(stats);
            }

            // Free this layer's incoming profiles (children hold their own).
            for &id in layer {
                incoming[id as usize] = None;
            }
        }

        add_work(Category::Crossings, vis.crossings.len() as u64);
        vis.canonicalize();
        Phase2Output { vis, layers: layers_out, internal_crossings }
    }

    /// Phase 2 with static envelopes rebuilt per node (no sharing): the
    /// rebuild-per-layer ACG realization used as the ablation baseline.
    pub fn phase2_rebuild(&self) -> Phase2Output {
        let n_nodes = self.nodes.len();
        let mut incoming: Vec<Option<Envelope>> = vec![None; n_nodes];
        incoming[0] = Some(Envelope::new());
        record_depth(Category::EnvelopeMerge, self.layers.len() as u64);

        let mut vis = VisibilityMap { n_edges: self.edges.len(), ..Default::default() };
        for layer in &self.layers {
            #[allow(clippy::type_complexity)]
            let results: Vec<(
                Option<(u32, Envelope)>,
                Option<(u32, Envelope)>,
                Vec<Piece>,
                Vec<crate::envelope::CrossEvent>,
                Option<u32>,
            )> = layer
                .par_iter()
                .map(|&id| {
                    let node = self.nodes[id as usize];
                    let prefix = incoming[id as usize].as_ref().expect("incoming set");
                    if node.is_leaf() {
                        let edge = &self.edges[node.lo as usize];
                        match edge.piece() {
                            Some(p) => {
                                let (pieces, crossings) = prefix.visible_parts(&p);
                                (None, None, pieces, crossings, None)
                            }
                            None => {
                                let x = edge.seg.a.x;
                                let top = edge.seg.a.y.max(edge.seg.b.y);
                                let visible = prefix.eval(x).is_none_or(|z| top > z);
                                (None, None, Vec::new(), Vec::new(), visible.then_some(edge.id))
                            }
                        }
                    } else {
                        let sigma = &self.phase1[node.left as usize];
                        add_work(Category::EnvelopeMerge, (prefix.size() + sigma.len()) as u64);
                        let merged =
                            Envelope::from_sorted_pieces(merge_slices(&prefix.to_pieces(), sigma));
                        (
                            Some((node.left, prefix.clone())),
                            Some((node.right, merged)),
                            Vec::new(),
                            Vec::new(),
                            None,
                        )
                    }
                })
                .collect();
            for (l, r, pieces, crossings, vertical) in results {
                if let Some((id, env)) = l {
                    incoming[id as usize] = Some(env);
                }
                if let Some((id, env)) = r {
                    incoming[id as usize] = Some(env);
                }
                vis.pieces.extend(pieces);
                vis.crossings.extend(crossings);
                if let Some(e) = vertical {
                    vis.vertical_visible.push(e);
                }
            }
            for &id in layer {
                incoming[id as usize] = None;
            }
        }
        vis.canonicalize();
        Phase2Output { vis, layers: Vec::new(), internal_crossings: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::project_edges;
    use crate::order::depth_order;
    use hsr_terrain::gen;

    fn ordered_edges(tin: &hsr_terrain::Tin) -> Vec<SceneEdge> {
        let edges = project_edges(tin);
        let order = depth_order(tin).unwrap();
        order.iter().map(|&e| edges[e as usize]).collect()
    }

    #[test]
    fn build_structure() {
        let tin = gen::fbm(6, 6, 3, 5.0, 1).to_tin().unwrap();
        let pct = Pct::build(ordered_edges(&tin));
        assert!(pct.depth() >= 7); // ~85 edges -> ceil(log2) + 1 layers
        assert!(!pct.root_profile().is_empty());
        pct.root_profile().check_invariants().unwrap();
    }

    #[test]
    fn root_profile_is_global_envelope() {
        let tin = gen::gaussian_hills(8, 8, 3, 5).to_tin().unwrap();
        let edges = ordered_edges(&tin);
        let pieces: Vec<Piece> = edges.iter().filter_map(|e| e.piece()).collect();
        let direct = Envelope::from_pieces(&pieces);
        let pct = Pct::build(edges);
        let root = pct.root_profile();
        for s in 0..300 {
            let x = s as f64 * 8.0 / 300.0;
            let (a, b) = (direct.eval(x), root.eval(x));
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "at {x}: {a} vs {b}"),
                _ => panic!("gap mismatch at {x}: {a:?} {b:?}"),
            }
        }
    }

    #[test]
    fn phase2_modes_agree() {
        for tin in [
            gen::fbm(7, 9, 3, 8.0, 2).to_tin().unwrap(),
            gen::ridge_field(10, 8, 3, 10.0, 3).to_tin().unwrap(),
            gen::quadratic_comb(4),
        ] {
            let pct = Pct::build(ordered_edges(&tin));
            let a = pct.phase2(false);
            let b = pct.phase2_rebuild();
            let ag = a.vis.agreement(&b.vis);
            assert!(ag > 0.9999, "agreement {ag}");
            assert_eq!(a.vis.vertical_visible, b.vis.vertical_visible);
        }
    }

    #[test]
    fn comb_output_is_quadratic() {
        let m = 8;
        let tin = gen::quadratic_comb(m);
        let pct = Pct::build(ordered_edges(&tin));
        let out = pct.phase2(false);
        // Each of the m ridges is visible in each of the ~m gaps.
        assert!(
            out.vis.output_size() > m * m / 2,
            "output {} too small for m={m}",
            out.vis.output_size()
        );
    }

    #[test]
    fn amphitheater_everything_visible() {
        let tin = gen::amphitheater(8, 8, 10.0, 4).to_tin().unwrap();
        let pct = Pct::build(ordered_edges(&tin));
        let out = pct.phase2(false);
        // Rising terrain: every non-vertical edge fully visible.
        let intervals = out.vis.per_edge_intervals();
        let mut full = 0;
        let mut total = 0;
        for e in pct.edges() {
            if e.vertical {
                continue;
            }
            total += 1;
            let (lo, hi) = (e.seg.a.x, e.seg.b.x);
            if let Some(iv) = intervals.get(&e.id) {
                let len: f64 = iv.iter().map(|(u, v)| v - u).sum();
                if (len - (hi - lo)).abs() < 1e-9 {
                    full += 1;
                }
            }
        }
        assert!(full as f64 > 0.95 * total as f64, "only {full}/{total} edges fully visible");
    }

    #[test]
    fn layer_stats_show_sharing() {
        let tin = gen::fbm(10, 10, 3, 8.0, 6).to_tin().unwrap();
        let pct = Pct::build(ordered_edges(&tin));
        let out = pct.phase2(true);
        assert_eq!(out.layers.len(), pct.depth());
        // Deep layers must share: unique nodes well below logical pieces.
        let deep = &out.layers[pct.depth() - 1];
        if deep.logical_pieces > 500 {
            assert!(
                deep.unique_nodes < deep.logical_pieces,
                "no sharing at the leaf layer: {deep:?}"
            );
        }
    }
}
