//! Pull-direction SpMV kernels (Algorithm 1 of the paper).
//!
//! In pull direction every destination vertex owns its output slot, so no
//! write protection is needed; reads of source data are random. Three
//! parallelisation strategies mirror the paper's pull baselines.

use ihtl_graph::partition::{edge_balanced_ranges, VertexRange};
use ihtl_graph::{Csr, Graph, VertexId};

use crate::monoid::Monoid;
use crate::{split_by_ranges, width};

/// Sequential reference pull SpMV — the ground truth every other kernel
/// (including iHTL) is tested against.
pub fn spmv_pull_serial<M: Monoid>(g: &Graph, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), g.n_vertices());
    assert_eq!(y.len(), g.n_vertices());
    for (v, ins) in g.csc().iter_rows() {
        // SAFETY: CSC targets are < n_cols == n_vertices == x.len().
        y[v as usize] = unsafe { M::fold_neighbours(M::identity(), ins, x) };
    }
}

/// GraphGrind-style pull: the destination range is split into
/// `parts` contiguous, edge-balanced partitions processed in parallel
/// (load balance comes from ihtl-parallel's self-scheduling chunk queue).
pub fn spmv_pull<M: Monoid>(g: &Graph, x: &[f64], y: &mut [f64]) {
    spmv_pull_with_parts::<M>(g, x, y, default_parts());
}

/// [`spmv_pull`] with an explicit partition count: the one-column case of
/// [`spmv_pull_multi_with_parts`].
pub fn spmv_pull_with_parts<M: Monoid>(g: &Graph, x: &[f64], y: &mut [f64], parts: usize) {
    spmv_pull_multi_with_parts::<M>(g, x, y, 1, parts);
}

/// Galois-style pull: vertices processed in small fixed-size chunks that the
/// scheduler distributes dynamically — good load balance without a
/// preprocessing pass, at the cost of finer task granularity.
pub fn spmv_pull_chunked<M: Monoid>(g: &Graph, x: &[f64], y: &mut [f64], chunk: usize) {
    assert_eq!(x.len(), g.n_vertices());
    assert_eq!(y.len(), g.n_vertices());
    assert!(chunk > 0);
    let _span = ihtl_trace::span("pull_chunked");
    let csc = g.csc();
    ihtl_parallel::par_chunks_mut(y, chunk, |i, out| {
        let start = (i * chunk) as VertexId;
        let range = VertexRange { start, end: start + out.len() as VertexId };
        pull_rows_into::<M, 1>(csc, x, 1, range, out);
    });
}

/// Folds rows `[range.start, range.end)` of `csc` over `x` into `out`, `k`
/// interleaved value columns per vertex (row-major `[vertex][k]`, so one
/// vertex's columns share a cache line): `out[i * k + j]` receives row
/// `range.start + i`, column `j`. This is the shared inner kernel of every
/// pull-shaped phase, including iHTL's sparse block, at every width.
///
/// `K` is the compile-time width ([`crate::with_width!`] picks it); the
/// `K = 0` instantiation reads `k` at run time. With a constant width each
/// row accumulates in a stack array the compiler keeps in registers, so
/// K=1 is the scalar fold. Per column the fold visits the same neighbours
/// in the same list order at every width, so column `j` of the result is
/// bitwise identical to a one-column run over column `j` — the gather of a
/// neighbour's cache line is simply amortised over `k` queries.
///
/// Bounds are checked once per range here; the per-edge loop runs
/// unchecked on the structural invariants `Csr::from_parts` validates
/// (monotone offsets ending at `targets.len()`, targets `< n_cols`).
/// Deliberately a plain in-order loop: software prefetch and unrolled
/// multi-accumulator variants were tried and measured slower — the graphs
/// are LLC-resident, so hint instructions just contend with the gather
/// loads on the load ports, and short adjacency lists pay more remainder
/// overhead than latency they hide.
pub fn pull_rows_into<M: Monoid, const K: usize>(
    csc: &Csr,
    x: &[f64],
    k: usize,
    range: VertexRange,
    out: &mut [f64],
) {
    let w = width::<K>(k);
    assert!(w >= 1, "pull needs at least one column");
    assert!(range.end as usize <= csc.n_rows());
    assert!(csc.n_cols() * w <= x.len());
    assert_eq!(out.len(), (range.end - range.start) as usize * w);
    let offsets = csc.offsets();
    let targets = csc.targets();
    // Rows are consecutive, so each row's end offset is the next row's
    // start — carry it forward instead of re-loading both bounds per row.
    let mut s = offsets[range.start as usize] as usize;
    for (v, slots) in range.iter().zip(out.chunks_exact_mut(w)) {
        let mut local = [M::identity(); K];
        let acc: &mut [f64] = if K == 0 {
            slots.fill(M::identity());
            &mut *slots
        } else {
            &mut local
        };
        // SAFETY: `v + 1 <= range.end <= n_rows` and offsets are monotone
        // ending at `targets.len()`; targets are `< n_cols`, so the column
        // reads `u * w .. u * w + w <= n_cols * w <= x.len()` (asserted
        // above).
        unsafe {
            let e = *offsets.get_unchecked(v as usize + 1) as usize;
            for &u in targets.get_unchecked(s..e) {
                debug_assert!((u as usize + 1) * w <= x.len());
                let xs = x.get_unchecked(u as usize * w..u as usize * w + w);
                for (a, &xv) in acc.iter_mut().zip(xs) {
                    *a = M::combine(*a, xv);
                }
            }
            s = e;
        }
        if K != 0 {
            slots.copy_from_slice(&local);
        }
    }
}

/// GraphGrind-style pull SpMM: [`spmv_pull`] generalised to `k` interleaved
/// columns per vertex. Uses the same edge-balanced destination ranges as the
/// single-column kernel, and every per-destination fold is schedule
/// independent, so column `j` is bitwise identical to a solo [`spmv_pull`]
/// run on column `j` for any monoid and any thread count.
pub fn spmv_pull_multi<M: Monoid>(g: &Graph, x: &[f64], y: &mut [f64], k: usize) {
    spmv_pull_multi_with_parts::<M>(g, x, y, k, default_parts());
}

/// [`spmv_pull_multi`] with an explicit partition count.
pub fn spmv_pull_multi_with_parts<M: Monoid>(
    g: &Graph,
    x: &[f64],
    y: &mut [f64],
    k: usize,
    parts: usize,
) {
    let n = g.n_vertices();
    assert!(k >= 1);
    assert_eq!(x.len(), n * k);
    assert_eq!(y.len(), n * k);
    assert!(n * k <= u32::MAX as usize, "n * k must fit the u32 range arithmetic");
    let _span = ihtl_trace::span(if k == 1 { "pull_spmv" } else { "pull_spmm" }).with_arg(k as u64);
    let ranges = edge_balanced_ranges(g.csc(), parts);
    let scaled: Vec<VertexRange> = ranges
        .iter()
        .map(|r| VertexRange { start: r.start * k as u32, end: r.end * k as u32 })
        .collect();
    let mut slices = split_by_ranges(y, &scaled);
    crate::with_width!(k, |K| ihtl_parallel::par_for_each_mut(&mut slices, 1, |i, out| {
        pull_rows_into::<M, K>(g.csc(), x, k, ranges[i], out);
    }));
}

/// Cagra/GraphIt-style *horizontally blocked* CSC: sources are split into
/// contiguous segments sized to cache, and the in-edges are regrouped by
/// source segment. During traversal each segment's random reads stay within
/// a cache-sized window of `x` (paper §5.4: "horizontal blocking of the
/// adjacency matrix in pull traversal that limits the range of random memory
/// accesses"). Each segment stores only its *non-empty* destinations (the
/// compacted vertex arrays of the Cagra layout), so traversal cost is
/// proportional to edges, not `segments × |V|`.
pub struct SegmentedCsc {
    segments: Vec<Segment>,
    /// Number of source vertices per segment.
    segment_width: usize,
    n_vertices: usize,
}

struct Segment {
    /// Rows are compacted destination indices (`0..dsts.len()`).
    csr: Csr,
    /// `dsts[row]` = the real destination vertex of compacted row `row`,
    /// strictly ascending.
    dsts: Vec<VertexId>,
}

impl SegmentedCsc {
    /// Builds the blocked structure; `segment_width` is the number of source
    /// vertices per segment (the paper sizes segments so their vertex data
    /// fits in on-chip cache).
    pub fn new(g: &Graph, segment_width: usize) -> Self {
        assert!(segment_width > 0);
        let n = g.n_vertices();
        let n_segments = n.div_ceil(segment_width).max(1);
        // Bucket edges per source segment, keyed by destination.
        let mut per_segment: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); n_segments];
        for (dst, srcs) in g.csc().iter_rows() {
            for &src in srcs {
                per_segment[src as usize / segment_width].push((dst, src));
            }
        }
        let segments = per_segment
            .into_iter()
            .map(|mut pairs| {
                // Compact destinations: stable sort by dst keeps each
                // destination's source order deterministic.
                pairs.sort_by_key(|&(dst, _)| dst);
                let mut dsts: Vec<VertexId> = Vec::new();
                let mut compact: Vec<(VertexId, VertexId)> = Vec::with_capacity(pairs.len());
                for (dst, src) in pairs {
                    if dsts.last() != Some(&dst) {
                        dsts.push(dst);
                    }
                    compact.push((dsts.len() as VertexId - 1, src));
                }
                let csr = ihtl_graph::builder::csr_from_pairs(dsts.len(), n, &compact);
                Segment { csr, dsts }
            })
            .collect();
        Self { segments, segment_width, n_vertices: n }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Source vertices per segment.
    pub fn segment_width(&self) -> usize {
        self.segment_width
    }

    /// Total edges across segments (must equal the graph's edge count).
    pub fn n_edges(&self) -> usize {
        self.segments.iter().map(|s| s.csr.n_edges()).sum()
    }

    /// Topology bytes of the blocked representation (per-segment offset and
    /// destination arrays are the replication overhead Cagra pays, §5.4).
    pub fn topology_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.csr.topology_bytes() + (s.dsts.len() * ihtl_graph::NEIGHBOUR_BYTES) as u64)
            .sum()
    }
}

/// GraphIt/Cagra-style pull over a [`SegmentedCsc`]: segments are processed
/// one after another (keeping the source window cache-resident), with each
/// segment's non-empty destinations processed in parallel.
pub fn spmv_pull_segmented<M: Monoid>(seg: &SegmentedCsc, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), seg.n_vertices);
    assert_eq!(y.len(), seg.n_vertices);
    let _span = ihtl_trace::span("pull_segmented");
    ihtl_parallel::par_fill(y, M::identity());
    // Within a segment every compacted row owns a distinct destination, so
    // the scattered writes are race-free; the atomic view only provides the
    // unsynchronised shared mutability (plain relaxed load/store, no CAS).
    let slots = crate::monoid::as_atomic_slice(y);
    for seg in &seg.segments {
        let ranges = edge_balanced_ranges(&seg.csr, default_parts());
        ihtl_parallel::par_for_each(&ranges, 1, |_, range| {
            for row in range.iter() {
                let ins = seg.csr.neighbours(row);
                if ins.is_empty() {
                    continue;
                }
                let slot = &slots[seg.dsts[row as usize] as usize];
                // ORDERING: Relaxed — each destination row is owned by one
                // worker within a segment sweep; the region join publishes.
                let cur = f64::from_bits(slot.load(std::sync::atomic::Ordering::Relaxed));
                // SAFETY: segment CSR targets are < n_cols == x.len().
                let acc = unsafe { M::fold_neighbours(cur, ins, x) };
                // ORDERING: Relaxed — see the load above.
                slot.store(acc.to_bits(), std::sync::atomic::Ordering::Relaxed);
            }
        });
    }
}

/// Default partition count: a small multiple of the worker count so the
/// self-scheduling chunk queue can balance skewed partitions (the paper uses
/// work stealing over partitioned graphs, §4.1).
pub fn default_parts() -> usize {
    ihtl_parallel::num_threads() * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Add, Min};
    use ihtl_graph::graph::paper_example_graph;

    fn x_for(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i * i + 1) as f64).collect()
    }

    #[test]
    fn serial_matches_hand_computation() {
        let g = paper_example_graph();
        let x = x_for(8);
        let mut y = vec![0.0; 8];
        spmv_pull_serial::<Add>(&g, &x, &mut y);
        // Hub 2's in-neighbours are {1,4,5,6,7}.
        let expect: f64 = [1, 4, 5, 6, 7].iter().map(|&u: &usize| x[u]).sum();
        assert_eq!(y[2], expect);
        // Vertex 7 has no in-edges in the example graph: identity result.
        assert_eq!(g.in_degree(7), 0);
        assert_eq!(y[7], 0.0);
    }

    #[test]
    fn all_parallel_variants_match_serial() {
        let g = paper_example_graph();
        let x = x_for(8);
        let mut reference = vec![0.0; 8];
        spmv_pull_serial::<Add>(&g, &x, &mut reference);

        let mut y = vec![-1.0; 8];
        spmv_pull::<Add>(&g, &x, &mut y);
        assert_eq!(y, reference);

        let mut y = vec![-1.0; 8];
        spmv_pull_with_parts::<Add>(&g, &x, &mut y, 3);
        assert_eq!(y, reference);

        let mut y = vec![-1.0; 8];
        spmv_pull_chunked::<Add>(&g, &x, &mut y, 3);
        assert_eq!(y, reference);

        for width in [1, 2, 3, 8, 100] {
            let seg = SegmentedCsc::new(&g, width);
            assert_eq!(seg.n_edges(), g.n_edges());
            let mut y = vec![-1.0; 8];
            spmv_pull_segmented::<Add>(&seg, &x, &mut y);
            assert_eq!(y, reference, "segment width {width}");
        }
    }

    #[test]
    fn min_monoid_variants_match() {
        let g = paper_example_graph();
        let x = x_for(8);
        let mut reference = vec![0.0; 8];
        spmv_pull_serial::<Min>(&g, &x, &mut reference);
        let mut y = vec![0.0; 8];
        spmv_pull::<Min>(&g, &x, &mut y);
        assert_eq!(y, reference);
        // A vertex with no in-edges must hold the identity (+inf).
        let no_in = (0..8u32).find(|&v| g.in_degree(v) == 0);
        if let Some(v) = no_in {
            assert_eq!(reference[v as usize], f64::INFINITY);
        }
    }

    fn assert_multi_matches_solo_bitwise<M: Monoid>(g: &Graph, k: usize, salt: usize) {
        let n = g.n_vertices();
        // Arbitrary (non-integer) values: pull folds are schedule
        // independent, so bitwise identity must hold for any inputs.
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|j| (0..n).map(|i| (i * (j + 2) + salt) as f64 * 0.37 + 0.1).collect())
            .collect();
        let mut x_m = vec![0.0; n * k];
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                x_m[i * k + j] = v;
            }
        }
        let mut y_m = vec![f64::NAN; n * k];
        spmv_pull_multi::<M>(g, &x_m, &mut y_m, k);
        for (j, col) in cols.iter().enumerate() {
            let mut solo = vec![0.0; n];
            spmv_pull::<M>(g, col, &mut solo);
            for i in 0..n {
                assert_eq!(
                    y_m[i * k + j].to_bits(),
                    solo[i].to_bits(),
                    "k={k} column {j} vertex {i}"
                );
            }
        }
    }

    #[test]
    fn multi_pull_columns_match_solo_bitwise() {
        let g = paper_example_graph();
        for k in [1usize, 2, 3, 4, 5, 8, 9] {
            assert_multi_matches_solo_bitwise::<Add>(&g, k, 1);
            assert_multi_matches_solo_bitwise::<Min>(&g, k, 5);
        }
    }

    #[test]
    fn segmented_topology_overhead_grows_with_segments() {
        let g = paper_example_graph();
        let one = SegmentedCsc::new(&g, 8);
        let four = SegmentedCsc::new(&g, 2);
        assert!(four.n_segments() > one.n_segments());
        assert!(four.topology_bytes() > one.topology_bytes());
    }
}
