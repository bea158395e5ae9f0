//! Push and pull SpMV traversal baselines.
//!
//! The paper evaluates iHTL against the pull and push traversals of three
//! frameworks (Figure 7). Each framework is really a *traversal strategy*;
//! this crate reimplements those strategies faithfully:
//!
//! | paper column        | here |
//! |---------------------|------|
//! | GraphGrind pull     | [`pull::spmv_pull`] — edge-balanced contiguous partitions |
//! | GraphIt pull        | [`pull::SegmentedCsc`] + [`pull::spmv_pull_segmented`] — Cagra-style horizontal source blocking |
//! | Galois pull         | [`pull::spmv_pull_chunked`] — fine-grained dynamically scheduled chunks |
//! | GraphGrind push     | [`push::DstPartitionedCsr`] + [`push::spmv_push_partitioned`] — vertical destination blocking (race-free) |
//! | GraphIt push        | [`push::spmv_push_atomic`] — CAS-based concurrent updates |
//! | (X-Stream buffering)| [`push::spmv_push_buffered`] — per-thread full-width buffers, merged |
//! | (propagation blocking) | [`pb::PbGraph`] — two-phase binned push, destinations merged segment-by-segment |
//!
//! All kernels compute the same SpMV: `y[v] = ⊕_{u ∈ N⁻(v)} x[u]` for a
//! commutative monoid `⊕` (see [`monoid`]). PageRank, components and SSSP
//! are layered on top in `ihtl-apps`.

pub mod monoid;
pub mod pb;
pub mod pull;
pub mod push;

pub use monoid::{Add, Max, Min, Monoid};

/// Column width of a kernel instantiated for `const K`: `K` itself, or the
/// runtime `k` in the `K = 0` instantiation that serves every width
/// [`with_width!`] has no constant for.
#[inline(always)]
pub fn width<const K: usize>(k: usize) -> usize {
    debug_assert!(K == 0 || K == k, "K = {K} instantiation called with k = {k}");
    if K == 0 {
        k
    } else {
        K
    }
}

/// Dispatches once on a runtime column count: binds `const $K: usize` to
/// `$k` for the widths 1, 2, 4 and 8 (each its own instantiation, so the
/// per-vertex column loops unroll and K=1 compiles to the scalar loop) and
/// to 0 for every other width, then evaluates `$body`. Kernels read their
/// width through [`width`], so one body serves every case.
///
/// ```
/// fn cols<const K: usize>(k: usize) -> usize { ihtl_traversal::width::<K>(k) }
/// assert_eq!(ihtl_traversal::with_width!(4, |K| cols::<K>(4)), 4);
/// assert_eq!(ihtl_traversal::with_width!(3, |K| cols::<K>(3)), 3);
/// ```
#[macro_export]
macro_rules! with_width {
    ($k:expr, |$K:ident| $body:expr) => {
        match $k {
            1 => {
                const $K: usize = 1;
                $body
            }
            2 => {
                const $K: usize = 2;
                $body
            }
            4 => {
                const $K: usize = 4;
                $body
            }
            8 => {
                const $K: usize = 8;
                $body
            }
            _ => {
                const $K: usize = 0;
                $body
            }
        }
    };
}

/// Splits a mutable slice into the disjoint sub-slices described by
/// contiguous vertex ranges, so the parallel runtime can hand each range to
/// a worker without aliasing.
pub(crate) fn split_by_ranges<'a>(
    mut data: &'a mut [f64],
    ranges: &[ihtl_graph::partition::VertexRange],
) -> Vec<&'a mut [f64]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0u32;
    for r in ranges {
        debug_assert_eq!(r.start, consumed, "ranges must be contiguous from 0");
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
    use ihtl_graph::partition::VertexRange;

    #[test]
    fn split_covers_disjointly() {
        let mut v = vec![0.0f64; 10];
        let ranges = vec![
            VertexRange { start: 0, end: 3 },
            VertexRange { start: 3, end: 3 },
            VertexRange { start: 3, end: 10 },
        ];
        let parts = split_by_ranges(&mut v, &ranges);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 0);
        assert_eq!(parts[2].len(), 7);
    }
}
