//! Structural statistics: degree distributions, hub measures, and the
//! *asymmetricity* metric of the paper's Figure 9.

use crate::graph::Graph;
use crate::VertexId;

/// Summary degree statistics of a graph (the columns of the paper's
/// Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    pub n_vertices: usize,
    pub n_edges: usize,
    pub max_in_degree: usize,
    pub max_out_degree: usize,
    pub mean_degree: f64,
}

/// Computes [`DegreeStats`] for `g`.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.n_vertices();
    let max_in = (0..n).map(|v| g.in_degree(v as VertexId)).max().unwrap_or(0);
    let max_out = (0..n).map(|v| g.out_degree(v as VertexId)).max().unwrap_or(0);
    DegreeStats {
        n_vertices: n,
        n_edges: g.n_edges(),
        max_in_degree: max_in,
        max_out_degree: max_out,
        mean_degree: if n == 0 { 0.0 } else { g.n_edges() as f64 / n as f64 },
    }
}

/// Vertices sorted by in-degree, descending; ties broken by ascending
/// original ID so hub selection is deterministic. This is the ordering iHTL
/// uses to pick in-hubs ("in-hubs are selected as a number of vertices with
/// the highest degree", §3.2).
pub fn vertices_by_in_degree_desc(g: &Graph) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = (0..g.n_vertices() as u32).collect();
    // The comparator is a total order (ties broken by id), so an unstable
    // sort is deterministic.
    order.sort_unstable_by(|&a, &b| g.in_degree(b).cmp(&g.in_degree(a)).then_with(|| a.cmp(&b)));
    order
}

/// Asymmetricity of vertex `v` (paper §5.4, Figure 9):
///
/// `|{(u,v) ∈ E | (v,u) ∉ E}| / |{(u,v) ∈ E}|`
///
/// i.e. the fraction of in-neighbours that are *not* also out-neighbours.
/// Returns `None` for vertices with no in-edges. Requires sorted adjacency
/// for efficiency, so it takes a scratch-sorted copy of the out-list.
pub fn asymmetricity(g: &Graph, v: VertexId) -> Option<f64> {
    let ins = g.csc().neighbours(v);
    if ins.is_empty() {
        return None;
    }
    let mut outs: Vec<VertexId> = g.csr().neighbours(v).to_vec();
    outs.sort_unstable();
    let non_reciprocal = ins.iter().filter(|u| outs.binary_search(u).is_err()).count();
    Some(non_reciprocal as f64 / ins.len() as f64)
}

/// One bucket of a degree-conditioned profile: vertices whose in-degree
/// falls in `[lo, hi)`, with the mean of some per-vertex metric over them.
#[derive(Clone, Copy, Debug)]
pub struct DegreeBucket {
    pub lo: usize,
    pub hi: usize,
    pub n_vertices: usize,
    pub mean: f64,
}

/// Buckets vertices by in-degree into power-of-two bins `[2^k, 2^(k+1))`
/// and averages `metric(v)` within each non-empty bucket, skipping vertices
/// where the metric is undefined. This is the x-axis treatment of the
/// paper's Figures 1 and 9 (log-scale degree on x).
pub fn degree_profile<F>(g: &Graph, metric: F) -> Vec<DegreeBucket>
where
    F: Fn(VertexId) -> Option<f64>,
{
    let max_deg = (0..g.n_vertices()).map(|v| g.in_degree(v as VertexId)).max().unwrap_or(0);
    let n_buckets = (usize::BITS - max_deg.leading_zeros()) as usize + 1;
    let mut sums = vec![0.0f64; n_buckets];
    let mut counts = vec![0usize; n_buckets];
    for v in 0..g.n_vertices() as u32 {
        let d = g.in_degree(v);
        if d == 0 {
            continue;
        }
        if let Some(m) = metric(v) {
            let b = (usize::BITS - 1 - d.leading_zeros()) as usize;
            sums[b] += m;
            counts[b] += 1;
        }
    }
    (0..n_buckets)
        .filter(|&b| counts[b] > 0)
        .map(|b| DegreeBucket {
            lo: 1 << b,
            hi: 1 << (b + 1),
            n_vertices: counts[b],
            mean: sums[b] / counts[b] as f64,
        })
        .collect()
}

/// Fraction of all edges whose destination lies in the `k` highest
/// in-degree vertices. Quantifies the paper's premise that "a very small
/// fraction of vertices … are connected to a disproportionately large
/// fraction of edges" (§1).
pub fn edge_fraction_to_top_k(g: &Graph, k: usize) -> f64 {
    if g.n_edges() == 0 {
        return 0.0;
    }
    let order = vertices_by_in_degree_desc(g);
    let covered: usize = order.iter().take(k).map(|&v| g.in_degree(v)).sum();
    covered as f64 / g.n_edges() as f64
}

/// Structural features of one dataset that drive adaptive engine
/// selection (the `auto` engine). All of them are cheap: one degree sort
/// plus O(n) scans, computed once per (dataset, direction) and memoized by
/// the serve registry.
#[derive(Clone, Copy, Debug)]
pub struct EngineFeatures {
    pub n_vertices: usize,
    pub n_edges: usize,
    /// `max_in_degree / mean_degree` — how hub-dominated the in-degree
    /// distribution is. Hub-based engines (iHTL) need skew to have
    /// anything to exploit.
    pub degree_skew: f64,
    /// Number of vertex-data slots the cache budget holds
    /// (`cache_budget_bytes / vertex_data_bytes`), i.e. how many in-hubs a
    /// flipped-block buffer or merge segment can keep resident.
    pub hub_slots: usize,
    /// Fraction of all edges destined for the `hub_slots` highest
    /// in-degree vertices — the edge mass an in-hub buffer can absorb.
    pub hub_edge_fraction: f64,
    /// Mean in-degree over those top `hub_slots` vertices. Shallow hubs
    /// make iHTL's per-worker merge (O(workers × hubs)) expensive relative
    /// to the edges it saves.
    pub avg_hub_in_degree: f64,
    /// `n_vertices × vertex_data_bytes / llc_bytes`; ≤ 1 means the whole
    /// vertex-data array is resident in the last-level cache and pull
    /// cannot thrash. Uses the LLC capacity, not the buffer budget — see
    /// [`engine_features_llc`].
    pub data_cache_ratio: f64,
}

/// Computes [`EngineFeatures`] for `g` under the given cache budget. The
/// budget plays both cache roles: see [`engine_features_llc`] for machines
/// where the buffer-sizing cache and the last-level cache differ.
pub fn engine_features(
    g: &Graph,
    cache_budget_bytes: usize,
    vertex_data_bytes: usize,
) -> EngineFeatures {
    engine_features_llc(g, cache_budget_bytes, cache_budget_bytes, vertex_data_bytes)
}

/// [`engine_features`] with the two cache roles split. `cache_budget_bytes`
/// sizes the private working buffers (flipped-block hub slots, PB merge
/// segments — the L2 on a real machine), while `llc_bytes` is the capacity
/// that decides whether pull's random source reads stay resident (the
/// shared last-level cache). On machines with a large LLC the two differ by
/// orders of magnitude, and conflating them makes the rule predict pull
/// misses that never happen.
pub fn engine_features_llc(
    g: &Graph,
    cache_budget_bytes: usize,
    llc_bytes: usize,
    vertex_data_bytes: usize,
) -> EngineFeatures {
    let s = degree_stats(g);
    let vdb = vertex_data_bytes.max(1);
    let hub_slots = (cache_budget_bytes / vdb).max(1);
    let hub_edge_fraction = edge_fraction_to_top_k(g, hub_slots);
    let hubs_used = hub_slots.min(s.n_vertices);
    EngineFeatures {
        n_vertices: s.n_vertices,
        n_edges: s.n_edges,
        degree_skew: if s.mean_degree > 0.0 { s.max_in_degree as f64 / s.mean_degree } else { 0.0 },
        hub_slots,
        hub_edge_fraction,
        avg_hub_in_degree: if hubs_used > 0 {
            hub_edge_fraction * s.n_edges as f64 / hubs_used as f64
        } else {
            0.0
        },
        data_cache_ratio: if llc_bytes > 0 {
            (s.n_vertices * vdb) as f64 / llc_bytes as f64
        } else {
            f64::INFINITY
        },
    }
}

/// The engines the scoring rule chooses among. This crate cannot see the
/// app-level `EngineKind` (the dependency points the other way), so the
/// pick is expressed here and mapped upward by callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnginePick {
    /// Plain pull SpMV over the CSC.
    Pull,
    /// iHTL: flipped-block buffered push for hubs + sparse pull.
    Ihtl,
    /// Propagation blocking: binned push over all destinations.
    Pb,
}

impl EnginePick {
    /// Fixed evaluation order; earlier entries win cost ties.
    pub const ALL: [EnginePick; 3] = [EnginePick::Pull, EnginePick::Ihtl, EnginePick::Pb];

    /// The engine's wire-protocol name.
    pub fn wire_name(self) -> &'static str {
        match self {
            EnginePick::Pull => "pull",
            EnginePick::Ihtl => "ihtl",
            EnginePick::Pb => "pb",
        }
    }
}

/// Cost-model constants, all in units of *one LLC miss per edge*. They
/// come from the steady-state traffic each strategy adds per edge,
/// sanity-checked against `ihtl-cachesim` replays (see
/// `crates/cachesim/tests/auto_validation.rs` and DESIGN.md §11):
///
/// * a pull edge whose source is not resident costs one full random miss
///   (the unit);
/// * a PB edge streams its contribution out and back in
///   (8 B write + 8 B read + 4 B destination ID, all sequential) instead —
///   roughly a third of a 64 B random miss, so [`PB_STREAM_COST`] = 0.35;
/// * iHTL's extra per-block source re-reads cost [`IHTL_BLOCK_COST`] =
///   0.05 per hub edge, and its merge re-reads every worker's buffer for
///   every hub — [`MERGE_RMW_COST`] × threads / avg-hub-degree per hub
///   edge.
pub const PB_STREAM_COST: f64 = 0.35;
/// See [`PB_STREAM_COST`].
pub const IHTL_BLOCK_COST: f64 = 0.05;
/// See [`PB_STREAM_COST`].
pub const MERGE_RMW_COST: f64 = 1.0;
/// Minimum `degree_skew` for hub-based engines to be considered: below
/// this the "hubs" are ordinary vertices and blocking buys nothing.
pub const SKEW_MIN: f64 = 8.0;

/// Scores every engine on `f`: estimated random-miss-equivalents per edge,
/// lower is better. Returned in [`EnginePick::ALL`] order. The rule:
///
/// ```text
/// resident   = min(1, 1 / data_cache_ratio)
/// miss       = 1 - resident                      // pull miss probability
/// h          = hub_edge_fraction
/// merge      = MERGE_RMW_COST × threads / avg_hub_in_degree
/// pull       = miss
/// pb         = PB_STREAM_COST
/// ihtl       = (1-h)·miss + h·(IHTL_BLOCK_COST + merge)   [skew ≥ SKEW_MIN]
/// ```
///
/// iHTL scores infinity when skew is below [`SKEW_MIN`] or no edge
/// reaches the top slots.
pub fn engine_costs(f: &EngineFeatures, n_threads: usize) -> [(EnginePick, f64); 3] {
    let resident = if f.data_cache_ratio <= 1.0 { 1.0 } else { 1.0 / f.data_cache_ratio };
    let miss = 1.0 - resident;
    let h = f.hub_edge_fraction;
    let hubs_usable = f.degree_skew >= SKEW_MIN && h > 0.0;
    let merge = if f.avg_hub_in_degree > 0.0 {
        MERGE_RMW_COST * n_threads.max(1) as f64 / f.avg_hub_in_degree
    } else {
        0.0
    };
    let ihtl =
        if hubs_usable { (1.0 - h) * miss + h * (IHTL_BLOCK_COST + merge) } else { f64::INFINITY };
    [(EnginePick::Pull, miss), (EnginePick::Ihtl, ihtl), (EnginePick::Pb, PB_STREAM_COST)]
}

/// Picks the cheapest engine under [`engine_costs`]; ties go to the
/// earlier entry in [`EnginePick::ALL`] (pull is simplest, so it wins
/// exact ties). An edgeless graph always picks pull.
pub fn pick_engine(f: &EngineFeatures, n_threads: usize) -> EnginePick {
    if f.n_edges == 0 {
        return EnginePick::Pull;
    }
    let costs = engine_costs(f, n_threads);
    let mut best = costs[0];
    for &c in &costs[1..] {
        if c.1 < best.1 {
            best = c;
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_example_graph;

    #[test]
    fn stats_of_paper_example() {
        let g = paper_example_graph();
        let s = degree_stats(&g);
        assert_eq!(s.n_vertices, 8);
        assert_eq!(s.n_edges, 14);
        assert_eq!(s.max_in_degree, 5);
        assert_eq!(s.max_out_degree, 4);
        assert!((s.mean_degree - 14.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn in_degree_order_puts_hubs_first() {
        let g = paper_example_graph();
        let order = vertices_by_in_degree_desc(&g);
        // Hubs: vertex 2 (deg 5) then 6 (deg 4).
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 6);
    }

    #[test]
    fn in_degree_order_breaks_ties_by_id() {
        // Two vertices with equal in-degree.
        let g = Graph::from_edges(4, &[(0, 2), (1, 3)]);
        let order = vertices_by_in_degree_desc(&g);
        assert_eq!(&order[..2], &[2, 3]);
    }

    #[test]
    fn asymmetricity_extremes() {
        // 0<->1 reciprocal, 2->1 one-way.
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 1)]);
        assert_eq!(asymmetricity(&g, 0), Some(0.0)); // only in-neighbour 1 is reciprocated
        assert_eq!(asymmetricity(&g, 1), Some(0.5)); // in {0,2}, out {0}
        assert_eq!(asymmetricity(&g, 2), None); // no in-edges
    }

    #[test]
    fn degree_profile_buckets() {
        let g = paper_example_graph();
        let prof = degree_profile(&g, |_| Some(1.0));
        // Every bucket mean is 1.0 and the counts sum to #vertices with in-deg > 0.
        let with_in = (0..8).filter(|&v| g.in_degree(v) > 0).count();
        assert_eq!(prof.iter().map(|b| b.n_vertices).sum::<usize>(), with_in);
        assert!(prof.iter().all(|b| (b.mean - 1.0).abs() < 1e-12));
        // Buckets are powers of two and disjoint.
        for w in prof.windows(2) {
            assert!(w[0].hi <= w[1].lo);
        }
    }

    #[test]
    fn features_of_paper_example() {
        let g = paper_example_graph();
        let f = engine_features(&g, 16, 8);
        assert_eq!(f.hub_slots, 2);
        assert!((f.hub_edge_fraction - 9.0 / 14.0).abs() < 1e-12);
        assert!((f.degree_skew - 5.0 / (14.0 / 8.0)).abs() < 1e-12);
        assert!((f.avg_hub_in_degree - 4.5).abs() < 1e-12);
        assert!((f.data_cache_ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn split_cache_roles_separate_hub_slots_from_residency() {
        // A small buffer budget with a huge LLC: hub_slots follows the
        // budget, residency follows the LLC — pull stays the pick because
        // its source reads never leave the LLC, even though the buffers
        // could only hold two hubs.
        let g = paper_example_graph();
        let f = engine_features_llc(&g, 16, 1 << 20, 8);
        assert_eq!(f.hub_slots, 2);
        assert!(f.data_cache_ratio <= 1.0);
        assert_eq!(pick_engine(&f, 1), EnginePick::Pull);
        // Conflated (both roles = 16 B), the same graph looks thrashing.
        let conflated = engine_features(&g, 16, 8);
        assert!(conflated.data_cache_ratio > 1.0);
        assert_ne!(pick_engine(&conflated, 1), EnginePick::Pull);
    }

    #[test]
    fn resident_data_picks_pull() {
        // Budget holds every vertex: pull cannot miss, nothing to fix.
        let g = paper_example_graph();
        let f = engine_features(&g, 1 << 20, 8);
        assert!(f.data_cache_ratio <= 1.0);
        for t in [1, 4, 16] {
            assert_eq!(pick_engine(&f, t), EnginePick::Pull);
        }
    }

    #[test]
    fn flat_thrashing_graph_picks_pb() {
        // Ring-of-skips graph: every vertex has in-degree exactly 2, so no
        // skew — but the data is 64× the budget, so pull thrashes. Only
        // propagation blocking helps.
        let n = 4096u32;
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]).collect();
        let g = Graph::from_edges(n as usize, &edges);
        let f = engine_features(&g, (n as usize) * 8 / 64, 8);
        assert!(f.degree_skew < SKEW_MIN);
        assert_eq!(pick_engine(&f, 1), EnginePick::Pb);
    }

    #[test]
    fn skewed_thrashing_graph_picks_ihtl() {
        // A few deep hubs absorb almost every edge; single-threaded merge
        // is cheap, so the classic iHTL layout wins.
        let n = 4096u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((v, v % 4)); // 4 hubs of in-degree ~3·1024
            edges.push((v, (v + 1) % 4));
            edges.push((v, (v + 2) % 4));
            edges.push((v, (v * 17 + 5) % n)); // plus a flat background
        }
        let g = Graph::from_edges(n as usize, &edges);
        let f = engine_features(&g, 64, 8); // 8 hub slots
        assert!(f.degree_skew >= SKEW_MIN);
        assert!(f.hub_edge_fraction > 0.7);
        assert_eq!(pick_engine(&f, 1), EnginePick::Ihtl);
    }

    #[test]
    fn shallow_hubs_many_threads_pick_pb() {
        // Hub mass is high but spread across many shallow hubs, and the
        // worker count makes iHTL's per-worker merge the bottleneck
        // (ihtl 1.04 vs pull 0.94): the binned PB sweep (0.35) wins.
        // Single-threaded, the merge is cheap and iHTL costs 0.25.
        let f = EngineFeatures {
            n_vertices: 1 << 20,
            n_edges: 8 << 20,
            degree_skew: 32.0,
            hub_slots: 1 << 16,
            hub_edge_fraction: 0.9,
            avg_hub_in_degree: 8.0,
            data_cache_ratio: 16.0,
        };
        assert_eq!(pick_engine(&f, 8), EnginePick::Pb);
        // The same graph single-threaded keeps the buffered push.
        assert_eq!(pick_engine(&f, 1), EnginePick::Ihtl);
    }

    #[test]
    fn edgeless_graph_picks_pull() {
        let g = Graph::from_edges(16, &[]);
        let f = engine_features(&g, 8, 8);
        assert_eq!(pick_engine(&f, 4), EnginePick::Pull);
    }

    #[test]
    fn wire_names_are_distinct() {
        let names: Vec<&str> = EnginePick::ALL.iter().map(|p| p.wire_name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn top_k_edge_coverage() {
        let g = paper_example_graph();
        // Top-2 in-degree vertices (2 and 6) cover 9 of 14 edges.
        let f = edge_fraction_to_top_k(&g, 2);
        assert!((f - 9.0 / 14.0).abs() < 1e-12);
        assert_eq!(edge_fraction_to_top_k(&g, 0), 0.0);
        assert!((edge_fraction_to_top_k(&g, 8) - 1.0).abs() < 1e-12);
    }
}
