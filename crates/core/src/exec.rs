//! SpMV execution over the iHTL graph (paper Algorithm 3).
//!
//! Three phases per iteration:
//!
//! 1. **Push over flipped blocks** — tasks are (block × source-chunk) pairs;
//!    tasks are partitioned into fixed contiguous *lanes*, and each lane
//!    scatters into its private hub buffer, so "the parallel for loop …
//!    does not require synchronization between threads" (§3.4). Reads of
//!    source data are sequential; the random writes land in a buffer sized
//!    to the cache budget. Buffers are keyed by lane — a pure function of
//!    the task index — not by the claiming worker, so the merge's f64
//!    combine grouping (and hence the bitwise result) is independent of OS
//!    scheduling. The serve layer's checksum cache, batch coalescing, and
//!    replay tests all rely on that reproducibility.
//! 2. **Buffer merge** — parallel over hubs, sequential over lanes
//!    (Algorithm 3 lines 5–7). Table 5 shows this costs < 2.5 % of time.
//! 3. **Pull over the sparse block** — edge-balanced parallel ranges of
//!    non-hub destinations (Algorithm 3 lines 8–10).

use std::cell::UnsafeCell;
use std::time::Instant;

use ihtl_graph::partition::VertexRange;
use ihtl_traversal::{width, Monoid};

use crate::graph::IhtlGraph;

/// One lane's private hub buffer plus its dirty-segment stamps.
struct WorkerBuf {
    /// `n_hubs * cols` slots, `cols` interleaved per hub; block `b`'s
    /// segment spans `[hub_start_b * cols, hub_end_b * cols)`.
    data: Vec<f64>,
    /// Per-block generation stamp: `block_gen[b]` equals the buffers'
    /// current generation iff this lane wrote into block `b`'s segment
    /// this iteration (the segment is *dirty*). Stale stamps mean the
    /// segment holds garbage from an earlier iteration and is reset lazily
    /// on first touch — never read by the merge.
    block_gen: Vec<u64>,
}

/// Per-lane hub buffers, reused across iterations ("each thread buffers
/// H · #FB vertex data", §3.4). One buffer per ihtl-parallel pool worker
/// plus one for the calling thread; the push phase statically partitions
/// its tasks into that many contiguous *lanes*, each owning one buffer.
///
/// Keying buffers by lane rather than by the dynamically-claiming worker
/// is what makes iHTL results bitwise-deterministic: the f64 merge folds
/// per-lane partials in ascending lane order, and lane membership is a
/// pure function of the task index — never of which worker the pool's
/// chunk counter happened to hand a task to. (With worker-keyed buffers
/// the combine *grouping* varied run-to-run under a multi-thread pool,
/// producing ULP-level divergence that broke serve-layer checksum
/// comparisons.) Results remain a function of the configured thread count,
/// which sets the lane count.
///
/// Reset and merge are *dirty-tracked*: a generation counter is bumped once
/// per iteration, and each (lane × flipped-block) segment is stamped when
/// first written. Reset happens lazily per dirty segment inside the push
/// phase, and the merge phase skips clean segments entirely — on skewed
/// graphs most lanes touch only a few blocks, so both phases scale with
/// the segments actually written rather than `n_lanes × n_hubs`.
pub struct ThreadBuffers {
    bufs: Vec<UnsafeCell<WorkerBuf>>,
    /// Bumped at the start of every iteration; compares against
    /// `WorkerBuf::block_gen` stamps.
    generation: u64,
    n_hubs: usize,
    n_blocks: usize,
    /// Value columns per hub (1 for SpMV, `k` for SpMM). Columns of one hub
    /// are interleaved so a hub's `k` values share a cache line.
    cols: usize,
}

// SAFETY: during the push phase each lane index is handed to exactly one
// `par_for_each` closure invocation (the pool's chunk counter gives out
// each index once), so `lane_buffer` never aliases a `WorkerBuf`
// concurrently; one invocation runs on one thread sequentially. The merge
// phase reads all buffers only after the push region has completed (region
// completion is a happens-before edge).
unsafe impl Sync for ThreadBuffers {}

impl ThreadBuffers {
    /// Allocates buffers of `n_hubs` slots and `n_blocks` dirty stamps for
    /// every possible worker.
    pub fn new(n_hubs: usize, n_blocks: usize) -> Self {
        Self::with_cols(n_hubs, n_blocks, 1)
    }

    /// [`ThreadBuffers::new`] with `cols` interleaved value columns per hub
    /// — the SpMM layout (`data[hub * cols + j]` holds column `j`).
    pub fn with_cols(n_hubs: usize, n_blocks: usize, cols: usize) -> Self {
        assert!(cols >= 1, "buffers need at least one value column");
        let n_threads = ihtl_parallel::num_threads() + 1;
        Self {
            bufs: (0..n_threads)
                .map(|_| {
                    UnsafeCell::new(WorkerBuf {
                        data: vec![0.0f64; n_hubs * cols],
                        block_gen: vec![0u64; n_blocks],
                    })
                })
                .collect(),
            // Stamps start at 0, so generation 1 (the first iteration)
            // sees every segment as stale.
            generation: 0,
            n_hubs,
            n_blocks,
            cols,
        }
    }

    /// Number of lane buffers (= pool workers + 1 for the caller).
    pub fn n_buffers(&self) -> usize {
        self.bufs.len()
    }

    /// Hub slots per lane (independent of the column count).
    pub fn width(&self) -> usize {
        self.n_hubs
    }

    /// Interleaved value columns per hub (1 for SpMV buffers).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Dirty stamps per lane (one per flipped block).
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Lane `lane`'s private buffer (push phase).
    ///
    /// # Safety contract (internal)
    /// Must only be called with a lane index this invocation exclusively
    /// owns — guaranteed when lanes are the unit of parallel scheduling:
    /// `par_for_each` over the lane partition hands each index to exactly
    /// one closure invocation, and invocations run sequentially per thread.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn lane_buffer(&self, lane: usize) -> &mut WorkerBuf {
        unsafe { &mut *self.bufs[lane].get() }
    }

    /// Whether lane `t` dirtied block `b` this generation (merge phase).
    #[inline]
    fn is_dirty(&self, t: usize, b: usize) -> bool {
        // SAFETY: shared read of lane `t`'s stamp array. Stamps are
        // written only by their owning lane inside the push region, and
        // the region barrier (pool `remaining == 0`) happens-before every
        // merge-phase call, so no write is concurrent with this read.
        let wb: &WorkerBuf = unsafe { &*self.bufs[t].get() };
        wb.block_gen[b] == self.generation
    }

    /// Reads flat slot `slot` (`hub * cols + column`) of lane `t` without
    /// bounds checks (merge phase).
    ///
    /// # Safety
    /// `t < n_buffers()` and `slot < width() * cols()`; the caller must have
    /// verified the owning segment is dirty (clean segments hold stale
    /// data).
    #[inline]
    unsafe fn read_unchecked(&self, t: usize, slot: usize) -> f64 {
        debug_assert!(t < self.bufs.len() && slot < self.n_hubs * self.cols);
        let wb: &WorkerBuf = &*self.bufs.get_unchecked(t).get();
        *wb.data.get_unchecked(slot)
    }

    /// Opens a new iteration: all segments become stale at once, at the
    /// cost of one counter bump instead of an `n_workers × n_hubs` sweep.
    fn begin_iteration(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Number of (lane × block) segments written this generation.
    fn count_dirty_segments(&self) -> usize {
        (0..self.bufs.len())
            .map(|t| (0..self.n_blocks).filter(|&b| self.is_dirty(t, b)).count())
            .sum()
    }
}

/// Wall-clock breakdown of one iHTL SpMV iteration — the "Exec. Breakdown"
/// columns of Table 5.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecBreakdown {
    /// Push phase over flipped blocks, including buffer resets (the paper
    /// counts reset among iHTL's extra sequential accesses, §4.3).
    pub fb_seconds: f64,
    /// Buffer merge (Algorithm 3 lines 5–7).
    pub merge_seconds: f64,
    /// Pull phase over the sparse block.
    pub pull_seconds: f64,
    /// (lane × flipped-block) buffer segments actually written this
    /// iteration — the segments reset and merged under dirty tracking.
    pub dirty_segments: usize,
    /// Total (lane × flipped-block) segments; `dirty / total` is the
    /// fraction of buffer space the full-reset scheme would have swept.
    pub total_segments: usize,
}

impl ExecBreakdown {
    /// Total iteration time.
    pub fn total_seconds(&self) -> f64 {
        self.fb_seconds + self.merge_seconds + self.pull_seconds
    }

    /// Fraction of time in flipped blocks ("FB Time", Table 5).
    pub fn fb_time_fraction(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.fb_seconds / t
        }
    }

    /// Fraction of time merging buffers ("Buffer Merging", Table 5).
    pub fn merge_time_fraction(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.merge_seconds / t
        }
    }
}

impl IhtlGraph {
    /// Allocates reusable per-lane buffers sized for this graph.
    pub fn new_buffers(&self) -> ThreadBuffers {
        ThreadBuffers::new(self.n_hubs, self.blocks.len())
    }

    /// Allocates per-lane buffers for `k`-column SpMM over this graph.
    pub fn new_buffers_multi(&self, k: usize) -> ThreadBuffers {
        ThreadBuffers::with_cols(self.n_hubs, self.blocks.len(), k)
    }

    /// One SpMV iteration in iHTL order (Algorithm 3):
    /// `y[v] = ⊕_{u ∈ N⁻(v)} x[u]`, with `x` and `y` indexed by NEW ids.
    ///
    /// Returns the per-phase wall-clock breakdown. The result is identical
    /// (up to `Add` rounding) to a pull SpMV over the relabeled graph —
    /// "every edge is traversed exactly once … even though iHTL mixes push
    /// and pull" (§2.4). This is the one-column case of [`IhtlGraph::spmm`].
    pub fn spmv<M: Monoid>(
        &self,
        x: &[f64],
        y: &mut [f64],
        bufs: &mut ThreadBuffers,
    ) -> ExecBreakdown {
        assert_eq!(bufs.cols(), 1, "multi-column buffers need the spmm entry point");
        self.spmm::<M>(x, y, 1, bufs)
    }

    /// One SpMM iteration in iHTL order: Algorithm 3 over `k` interleaved
    /// value columns per vertex (row-major `[vertex][k]`), so one edge
    /// sweep serves `k` independent queries. `x` and `y` hold `n * k`
    /// values indexed by NEW ids: `x[v * k + j]` is vertex `v`, column `j`.
    ///
    /// All three phases operate on column groups: the push scatters a
    /// source's `k` contiguous values into `k` contiguous buffer slots (one
    /// cache line for `k <= 8`), the merge folds `k`-wide segments, and the
    /// sparse pull amortises each neighbour gather over `k` accumulators.
    /// Per column the combine sequence is the same at every width (identical
    /// task list and lane count), so results match K solo runs bitwise under
    /// the workspace's determinism discipline (exact inputs for `Add`, any
    /// values for `Min`/`Max`). Dispatches once on `k`
    /// ([`ihtl_traversal::with_width!`]) into the one kernel body.
    pub fn spmm<M: Monoid>(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        bufs: &mut ThreadBuffers,
    ) -> ExecBreakdown {
        ihtl_traversal::with_width!(k, |K| self.spmm_width::<M, K>(x, y, k, bufs))
    }

    /// The kernel body of [`IhtlGraph::spmm`] at compile-time width `K`
    /// (`K = 0`: width `k`, read at run time).
    fn spmm_width<M: Monoid, const K: usize>(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        bufs: &mut ThreadBuffers,
    ) -> ExecBreakdown {
        let w = width::<K>(k);
        assert!(w >= 1, "spmm needs at least one column");
        assert_eq!(x.len(), self.n * w);
        assert_eq!(y.len(), self.n * w);
        assert_eq!(bufs.width(), self.n_hubs, "buffers sized for a different graph");
        assert_eq!(bufs.n_blocks(), self.blocks.len(), "buffers built for a different blocking");
        assert_eq!(bufs.cols(), w, "buffers allocated for a different column count");
        assert!(self.n * w <= u32::MAX as usize, "n * k must fit the u32 range arithmetic");
        let mut breakdown = ExecBreakdown::default();
        let _iter_span =
            ihtl_trace::span(if w == 1 { "ihtl_spmv" } else { "ihtl_spmm" }).with_arg(w as u64);

        // --- Phase 1: buffered push over flipped blocks. ---
        // No up-front reset: the generation bump invalidates every segment,
        // and each (lane × block) segment is reset on first touch below.
        // lint:allow(R4): phase timing feeds ExecBreakdown (Table 5), not values
        let t = Instant::now();
        let phase_span = ihtl_trace::span("fb_push");
        bufs.begin_iteration();
        let gen = bufs.generation;
        // Precomputed (block, source-chunk) tasks, edge-balanced within each
        // block so skewed rows don't serialise. Tasks are partitioned into
        // one contiguous lane per buffer: lane membership is a pure function
        // of the task index, so the merge's combine grouping — and hence
        // the bitwise f64 result — does not depend on which worker the
        // pool's chunk counter handed a lane to. Equal task counts stay
        // edge-balanced because the tasks themselves are.
        let lanes = lane_partition(self.push_tasks.len(), bufs.n_buffers());
        ihtl_parallel::par_for_each(&lanes, 1, |lane, tasks| {
            let wb = bufs.lane_buffer(lane);
            for &(b, range) in &self.push_tasks[tasks.clone()] {
                let _task_span = ihtl_trace::span("push_task").with_arg(b as u64);
                let blk = &self.blocks[b as usize];
                let base = blk.hub_start as usize;
                if wb.block_gen[b as usize] != gen {
                    // First touch of this block by this lane this iteration:
                    // reset exactly its segment of the buffer.
                    wb.block_gen[b as usize] = gen;
                    for slot in &mut wb.data[base * w..blk.hub_end as usize * w] {
                        *slot = M::identity();
                    }
                }
                // Rows are compacted to feeding sources, so every iteration
                // does real work — no empty-row scan. Source reads follow the
                // ascending `srcs` map (hardware-prefetched) and the random
                // scatter lands in the cache-budget-sized buffer, so no
                // software prefetch is needed in this phase. Rows are
                // consecutive, so each row's end offset is carried forward as
                // the next row's start.
                let offsets = blk.edges.offsets();
                let targets = blk.edges.targets();
                debug_assert!((range.end as usize) <= blk.srcs.len());
                let mut s = offsets[range.start as usize] as usize;
                for row in range.iter() {
                    // SAFETY: push-task ranges lie within the block's
                    // compacted rows and offsets are monotone ending at
                    // `targets.len()`; `srcs[row] < n_active <= n`, so the
                    // column reads span `u * w .. u * w + w <= n * w ==
                    // x.len()`; targets are block-local hub indices `<
                    // n_block_hubs`, so the scatter spans `(base + local) *
                    // w .. + w`, within the `n_hubs * w` slots (`cols == w`
                    // asserted above).
                    unsafe {
                        let e = *offsets.get_unchecked(row as usize + 1) as usize;
                        let u = *blk.srcs.get_unchecked(row as usize) as usize;
                        debug_assert!(u * w + w <= x.len());
                        // A constant width copies the source's columns into
                        // registers once, ahead of the scatter: the buffer
                        // writes could otherwise alias `x` for the compiler,
                        // forcing a reload per target.
                        let mut xcols = [0.0f64; K];
                        let xs = x.get_unchecked(u * w..u * w + w);
                        let xs: &[f64] = if K == 0 {
                            xs
                        } else {
                            xcols.copy_from_slice(xs);
                            &xcols
                        };
                        for &local in targets.get_unchecked(s..e) {
                            let slot = (base + local as usize) * w;
                            debug_assert!(slot + w <= wb.data.len());
                            let ps = wb.data.get_unchecked_mut(slot..slot + w);
                            for (p, &xv) in ps.iter_mut().zip(xs) {
                                *p = M::combine(*p, xv);
                            }
                        }
                        s = e;
                    }
                }
            }
        });
        drop(phase_span);
        breakdown.fb_seconds = t.elapsed().as_secs_f64();

        // --- Phase 2: merge thread buffers into hub results. ---
        // lint:allow(R4): phase timing feeds ExecBreakdown (Table 5), not values
        let t = Instant::now();
        let phase_span = ihtl_trace::span("fb_merge");
        let n_bufs = bufs.n_buffers();
        breakdown.dirty_segments = bufs.count_dirty_segments();
        breakdown.total_segments = n_bufs * self.blocks.len();
        {
            let (hub_y, _) = y.split_at_mut(self.n_hubs * w);
            let mut slices =
                split_ranges_iter(hub_y, self.merge_tasks.iter().map(|&(_, r)| scale_range(r, w)));
            let bufs = &*bufs;
            ihtl_parallel::par_for_each_mut(&mut slices, 1, |p, out| {
                let (b, range) = self.merge_tasks[p];
                let _task_span = ihtl_trace::span("merge_task").with_arg(b as u64);
                for slot in out.iter_mut() {
                    *slot = M::identity();
                }
                // Sequential over lanes (ascending, as Algorithm 3 lines
                // 5–7), skipping segments no lane wrote: a clean segment
                // contributed exactly the identity under full reset, so
                // skipping it preserves the result and the combine order.
                // Lane membership is schedule-independent, so this fold's
                // grouping — and the bitwise result — is too.
                let start = range.start as usize * w;
                for t in 0..n_bufs {
                    if !bufs.is_dirty(t, b as usize) {
                        continue;
                    }
                    for (i, slot) in out.iter_mut().enumerate() {
                        // SAFETY: `t < n_bufs`; merge-task ranges lie within
                        // `0..n_hubs`, so the flat slots lie within
                        // `n_hubs * w`; the stamp check makes them current.
                        let v = unsafe { bufs.read_unchecked(t, start + i) };
                        *slot = M::combine(*slot, v);
                    }
                }
            });
        }
        drop(phase_span);
        breakdown.merge_seconds = t.elapsed().as_secs_f64();

        // --- Phase 3: pull over the sparse block. ---
        // lint:allow(R4): phase timing feeds ExecBreakdown (Table 5), not values
        let t = Instant::now();
        let phase_span = ihtl_trace::span("sparse_pull");
        {
            let (_, sparse_y) = y.split_at_mut(self.n_hubs * w);
            let scaled: Vec<VertexRange> =
                self.sparse_tasks.iter().map(|&r| scale_range(r, w)).collect();
            let mut slices = split_ranges(sparse_y, &scaled);
            ihtl_parallel::par_for_each_mut(&mut slices, 1, |p, out| {
                let _task_span = ihtl_trace::span("pull_task").with_arg(p as u64);
                // Sparse targets are new source IDs `< n`, which is what
                // the shared kernel's unchecked gather needs.
                ihtl_traversal::pull::pull_rows_into::<M, K>(
                    &self.sparse,
                    x,
                    w,
                    self.sparse_tasks[p],
                    out,
                );
            });
        }
        drop(phase_span);
        breakdown.pull_seconds = t.elapsed().as_secs_f64();
        breakdown
    }
}

/// Scales a vertex range to its flat `k`-column span.
fn scale_range(r: VertexRange, k: usize) -> VertexRange {
    VertexRange { start: r.start * k as u32, end: r.end * k as u32 }
}

/// Partitions `0..n_tasks` into `n_lanes` contiguous ranges: lane `l` owns
/// `[l·T/L, (l+1)·T/L)`. The partition is a pure function of the two counts
/// — never of scheduling — which is what makes the push phase's buffer
/// assignment (and hence the merge's f64 combine grouping) deterministic.
/// Lanes are the unit of parallel scheduling, so each buffer is touched by
/// exactly one claim; trailing lanes may be empty when `n_tasks < n_lanes`.
fn lane_partition(n_tasks: usize, n_lanes: usize) -> Vec<std::ops::Range<usize>> {
    (0..n_lanes).map(|l| n_tasks * l / n_lanes..n_tasks * (l + 1) / n_lanes).collect()
}

impl IhtlGraph {
    /// Ablation of the paper's §3.4 buffering decision: Algorithm 3 with
    /// the flipped-block updates applied *atomically* to the hub results
    /// instead of into per-thread buffers ("To avoid race conditions, we
    /// opt for a buffering technique … as it is more efficient in the
    /// setting of iHTL"). The merge phase disappears; every hub update
    /// pays a CAS.
    pub fn spmv_atomic_hubs<M: Monoid>(&self, x: &[f64], y: &mut [f64]) -> ExecBreakdown {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let mut breakdown = ExecBreakdown::default();

        // --- Phase 1: atomic push over flipped blocks. ---
        // lint:allow(R4): phase timing feeds ExecBreakdown (Table 5), not values
        let t = Instant::now();
        {
            let (hub_y, _) = y.split_at_mut(self.n_hubs);
            hub_y.iter_mut().for_each(|v| *v = M::identity());
            let slots = ihtl_traversal::monoid::as_atomic_slice(hub_y);
            ihtl_parallel::par_for_each(&self.push_tasks, 1, |_, &(b, range)| {
                let blk = &self.blocks[b as usize];
                let base = blk.hub_start as usize;
                for row in range.iter() {
                    // SAFETY: same invariants as the buffered push — ranges
                    // lie within the compacted rows, `srcs[row] < n_active
                    // <= n == x.len()`, targets are block-local hub indices
                    // (all validated at build/load time, IHTLBLK2 checks).
                    let (hubs, xu) = unsafe {
                        let hubs = blk.edges.neighbours_unchecked(row);
                        debug_assert!((row as usize) < blk.srcs.len());
                        let u = *blk.srcs.get_unchecked(row as usize);
                        debug_assert!((u as usize) < x.len());
                        (hubs, *x.get_unchecked(u as usize))
                    };
                    for &local in hubs {
                        M::combine_atomic(&slots[base + local as usize], xu);
                    }
                }
                // (The atomic ablation keeps the simpler per-row accessor;
                // it exists for the §3.4 comparison, not for peak speed.)
            });
        }
        breakdown.fb_seconds = t.elapsed().as_secs_f64();

        // --- Phase 2: pull over the sparse block (unchanged). ---
        // lint:allow(R4): phase timing feeds ExecBreakdown (Table 5), not values
        let t = Instant::now();
        {
            let (_, sparse_y) = y.split_at_mut(self.n_hubs);
            let mut slices = split_ranges(sparse_y, &self.sparse_tasks);
            ihtl_parallel::par_for_each_mut(&mut slices, 1, |p, out| {
                ihtl_traversal::pull::pull_rows_into::<M, 1>(
                    &self.sparse,
                    x,
                    1,
                    self.sparse_tasks[p],
                    out,
                );
            });
        }
        breakdown.pull_seconds = t.elapsed().as_secs_f64();
        breakdown
    }
}

/// Splits `data` into disjoint mutable sub-slices per contiguous range.
pub(crate) fn split_ranges<'a>(data: &'a mut [f64], ranges: &[VertexRange]) -> Vec<&'a mut [f64]> {
    split_ranges_iter(data, ranges.iter().copied())
}

/// [`split_ranges`] over any contiguous range sequence (e.g. the range
/// component of the merge-task list).
pub(crate) fn split_ranges_iter(
    mut data: &mut [f64],
    ranges: impl Iterator<Item = VertexRange>,
) -> Vec<&mut [f64]> {
    let mut out = Vec::new();
    let mut consumed = 0u32;
    for r in ranges {
        debug_assert_eq!(r.start, consumed);
        let (head, tail) = data.split_at_mut((r.end - r.start) as usize);
        out.push(head);
        data = tail;
        consumed = r.end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;
    use ihtl_graph::Graph;
    use ihtl_traversal::pull::spmv_pull_serial;
    use ihtl_traversal::{Add, Min};

    fn check_matches_pull<M: Monoid>(g: &Graph, cfg: &IhtlConfig, tol: f64) {
        let ih = IhtlGraph::build(g, cfg);
        let n = g.n_vertices();
        let x_old: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 + 0.5).collect();
        let mut y_old = vec![0.0; n];
        spmv_pull_serial::<M>(g, &x_old, &mut y_old);

        let x_new = ih.to_new_order(&x_old);
        let mut y_new = vec![f64::NAN; n];
        let mut bufs = ih.new_buffers();
        ih.spmv::<M>(&x_new, &mut y_new, &mut bufs);
        let y_back = ih.to_old_order(&y_new);
        for v in 0..n {
            assert!(
                (y_back[v] - y_old[v]).abs() <= tol
                    || (y_back[v] == y_old[v]) // covers ±inf identities
                    || (y_back[v].is_infinite() && y_old[v].is_infinite()),
                "vertex {v}: ihtl {} vs pull {}",
                y_back[v],
                y_old[v]
            );
        }
    }

    #[test]
    fn matches_pull_on_paper_example() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        check_matches_pull::<Add>(&g, &cfg, 1e-9);
        check_matches_pull::<Min>(&g, &cfg, 0.0);
    }

    #[test]
    fn matches_pull_with_single_hub_blocks() {
        let g = paper_example_graph();
        let cfg =
            IhtlConfig { cache_budget_bytes: 8, acceptance_ratio: 0.2, ..IhtlConfig::default() };
        check_matches_pull::<Add>(&g, &cfg, 1e-9);
    }

    #[test]
    fn matches_pull_when_everything_is_a_hub() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 1 << 20, ..IhtlConfig::default() };
        check_matches_pull::<Add>(&g, &cfg, 1e-9);
    }

    #[test]
    fn matches_pull_on_edgeless_graph() {
        let g = Graph::from_edges(4, &[]);
        check_matches_pull::<Add>(&g, &IhtlConfig::default(), 0.0);
    }

    #[test]
    fn second_iteration_reuses_buffers_correctly() {
        // Stale buffer contents from iteration 1 must not leak into 2.
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let x1 = ih.to_new_order(&(0..8).map(|i| i as f64).collect::<Vec<_>>());
        let x2 = ih.to_new_order(&(0..8).map(|i| (i * i) as f64).collect::<Vec<_>>());
        let mut bufs = ih.new_buffers();
        let mut y = vec![0.0; 8];
        ih.spmv::<Add>(&x1, &mut y, &mut bufs);
        ih.spmv::<Add>(&x2, &mut y, &mut bufs);

        let mut fresh = ih.new_buffers();
        let mut y_fresh = vec![0.0; 8];
        ih.spmv::<Add>(&x2, &mut y_fresh, &mut fresh);
        assert_eq!(y, y_fresh);
    }

    #[test]
    fn atomic_hub_variant_matches_buffered() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let x: Vec<f64> = (0..8).map(|i| (i * 3 + 1) as f64).collect();
        let x_new = ih.to_new_order(&x);
        let mut buffered = vec![0.0; 8];
        let mut bufs = ih.new_buffers();
        ih.spmv::<Add>(&x_new, &mut buffered, &mut bufs);
        let mut atomic = vec![0.0; 8];
        ih.spmv_atomic_hubs::<Add>(&x_new, &mut atomic);
        for (a, b) in buffered.iter().zip(&atomic) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn no_fringe_separation_matches_reference() {
        let g = paper_example_graph();
        let cfg =
            IhtlConfig { cache_budget_bytes: 16, separate_fringe: false, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        assert_eq!(ih.n_fringe(), 0);
        assert_eq!(ih.n_active(), 8);
        check_matches_pull::<Add>(&g, &cfg, 1e-9);
    }

    #[test]
    fn single_pass_block_count_matches_pull() {
        let g = paper_example_graph();
        let cfg = IhtlConfig {
            cache_budget_bytes: 16,
            block_count: crate::config::BlockCountMode::SinglePass { max_blocks: 4 },
            ..IhtlConfig::default()
        };
        check_matches_pull::<Add>(&g, &cfg, 1e-9);
    }

    #[test]
    fn dirty_segments_tracked_and_bounded() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        let mut bufs = ih.new_buffers();
        let bd = ih.spmv::<Add>(&x, &mut y, &mut bufs);
        assert_eq!(bd.total_segments, bufs.n_buffers() * ih.n_blocks());
        // The example graph has flipped-block edges, so someone wrote a
        // segment; no worker can dirty more segments than exist.
        assert!(bd.dirty_segments >= 1);
        assert!(bd.dirty_segments <= bd.total_segments);
        // A second iteration re-stamps rather than accumulates.
        let bd2 = ih.spmv::<Add>(&x, &mut y, &mut bufs);
        assert!(bd2.dirty_segments <= bd2.total_segments);
    }

    #[test]
    fn alternating_monoids_reuse_buffers_safely() {
        // Min after Add over the same ThreadBuffers: stale Add partials must
        // never leak into the Min result (stamps, not contents, gate reuse).
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let x: Vec<f64> = (0..8).map(|i| (i + 3) as f64).collect();
        let x_new = ih.to_new_order(&x);
        let mut bufs = ih.new_buffers();
        let mut y = vec![0.0; 8];
        ih.spmv::<Add>(&x_new, &mut y, &mut bufs);
        ih.spmv::<Min>(&x_new, &mut y, &mut bufs);
        let mut reference = vec![0.0; 8];
        spmv_pull_serial::<Min>(&g, &x, &mut reference);
        assert_eq!(ih.to_old_order(&y), reference);
    }

    /// Interleaves `cols` (each length `n`) into the row-major `[vertex][k]`
    /// SpMM layout.
    fn interleave(cols: &[Vec<f64>]) -> Vec<f64> {
        let k = cols.len();
        let n = cols[0].len();
        let mut out = vec![0.0; n * k];
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                out[i * k + j] = v;
            }
        }
        out
    }

    fn check_spmm_matches_solo_bitwise<M: Monoid>(g: &Graph, cfg: &IhtlConfig, k: usize) {
        let ih = IhtlGraph::build(g, cfg);
        let n = g.n_vertices();
        // Integer-valued inputs: exact under any combine grouping, so the
        // bitwise comparison is valid for Add as well as Min.
        let cols: Vec<Vec<f64>> =
            (0..k).map(|j| (0..n).map(|i| ((i * 13 + j * 7) % 50 + 1) as f64).collect()).collect();
        let x_m = ih.to_new_order_multi(&interleave(&cols), k);
        let mut y_m = vec![f64::NAN; n * k];
        let mut mbufs = ih.new_buffers_multi(k);
        // Two iterations over the same buffers: dirty-segment reuse must be
        // column-group aware too.
        for _ in 0..2 {
            ih.spmm::<M>(&x_m, &mut y_m, k, &mut mbufs);
        }
        let y_back = ih.to_old_order_multi(&y_m, k);
        let mut bufs = ih.new_buffers();
        for (j, col) in cols.iter().enumerate() {
            let x_new = ih.to_new_order(col);
            let mut y = vec![f64::NAN; n];
            ih.spmv::<M>(&x_new, &mut y, &mut bufs);
            let solo = ih.to_old_order(&y);
            for v in 0..n {
                assert_eq!(
                    y_back[v * k + j].to_bits(),
                    solo[v].to_bits(),
                    "k={k} column {j} vertex {v}: {} vs {}",
                    y_back[v * k + j],
                    solo[v]
                );
            }
        }
    }

    #[test]
    fn spmm_columns_match_solo_spmv_bitwise() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        for k in [1usize, 2, 3, 4, 5, 8, 9] {
            check_spmm_matches_solo_bitwise::<Add>(&g, &cfg, k);
            check_spmm_matches_solo_bitwise::<Min>(&g, &cfg, k);
        }
    }

    #[test]
    fn spmm_when_everything_is_a_hub() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 1 << 20, ..IhtlConfig::default() };
        check_spmm_matches_solo_bitwise::<Add>(&g, &cfg, 4);
    }

    #[test]
    fn spmm_on_edgeless_graph() {
        let g = Graph::from_edges(4, &[]);
        check_spmm_matches_solo_bitwise::<Add>(&g, &IhtlConfig::default(), 3);
    }

    #[test]
    #[should_panic(expected = "multi-column buffers need the spmm entry point")]
    fn spmv_rejects_multi_column_buffers() {
        let g = paper_example_graph();
        let ih = IhtlGraph::build(&g, &IhtlConfig::default());
        let x = vec![0.0; 8];
        let mut y = vec![0.0; 8];
        let mut bufs = ih.new_buffers_multi(4);
        ih.spmv::<Add>(&x, &mut y, &mut bufs);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let x = vec![1.0; 8];
        let mut y = vec![0.0; 8];
        let mut bufs = ih.new_buffers();
        let bd = ih.spmv::<Add>(&x, &mut y, &mut bufs);
        assert!(bd.fb_seconds >= 0.0 && bd.merge_seconds >= 0.0 && bd.pull_seconds >= 0.0);
        let fracs = bd.fb_time_fraction() + bd.merge_time_fraction();
        assert!((0.0..=1.0).contains(&fracs));
    }
}
