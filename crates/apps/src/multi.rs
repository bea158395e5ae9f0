//! Multi-query (SpMM) analytics: K independent queries per edge sweep.
//!
//! Under serving load every queued job re-streams the entire edge array to
//! produce one value vector, yet the edge stream is the expensive part —
//! the in-hub temporal locality that makes one sweep cache-efficient
//! amortises even better when the sweep feeds K queries at once. The
//! drivers here run K parameter-variants of one analytic (multi-seed
//! PageRank, multi-source SSSP, batched SpMV sums) over
//! [`SpmvEngine::spmm_add`]/[`SpmvEngine::spmm_min`], with all vectors in
//! the row-major `[vertex][k]` layout so one vertex's K values share a
//! cache line.
//!
//! **Determinism contract.** Each column performs, element for element, the
//! same floating-point expressions its solo counterpart performs, and the
//! SpMM kernels fold each column in the solo combine order. Batched results
//! are therefore bitwise identical to K solo runs wherever the solo runs
//! themselves are schedule independent (pull engines on any input; every
//! engine under the exact-arithmetic discipline of `tests/determinism.rs`).

use std::ops::Range;

use ihtl_traversal::{width, with_width};

use crate::engine::SpmvEngine;
use crate::pagerank::DAMPING;

/// Vertices per parallel task of the per-vertex driver passes (the solo
/// drivers' element grain).
const VERTEX_GRAIN: usize = 4096;

/// Extracts column `j` from a `[vertex][k]` interleaved vector.
pub fn take_column(v: &[f64], k: usize, j: usize) -> Vec<f64> {
    assert!(j < k);
    v.iter().skip(j).step_by(k).copied().collect()
}

/// Interleaves equal-length columns into the `[vertex][k]` layout.
pub fn interleave_columns(cols: &[Vec<f64>]) -> Vec<f64> {
    let k = cols.len();
    assert!(k >= 1);
    let n = cols[0].len();
    let mut out = vec![0.0; n * k];
    for (j, col) in cols.iter().enumerate() {
        assert_eq!(col.len(), n);
        for (i, &v) in col.iter().enumerate() {
            out[i * k + j] = v;
        }
    }
    out
}

/// The flat `[vertex][k]` span and the vertex span of chunk `ci` (`len`
/// values) of a `VERTEX_GRAIN * k`-chunked per-vertex pass. Slicing every
/// operand to the chunk up front lets the row loop zip exact-size chunks:
/// no per-element index arithmetic or bounds check, so it vectorises like
/// the solo drivers' flat loops.
fn chunk_spans(ci: usize, len: usize, k: usize) -> (Range<usize>, Range<usize>) {
    let v0 = ci * VERTEX_GRAIN;
    (v0 * k..v0 * k + len, v0..v0 + len / k)
}

/// K PageRank queries in one sweep: column `j` runs `iters` iterations
/// with teleport seed `seeds[j]` — `None` is the uniform teleport of
/// [`crate::pagerank::pagerank`], `Some(s)` personalises the teleport (and
/// the initial ranks) to vertex `s` in original order. Returns one rank
/// vector (original order) per column.
///
/// A uniform column's teleport vector holds exactly the scalar
/// `(1 - d)/n` a solo run uses, so the fused update performs bit-identical
/// arithmetic; a seeded column mirrors [`pagerank_seeded`].
pub fn pagerank_multi(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    seeds: &[Option<u32>],
) -> Vec<Vec<f64>> {
    assert!(!seeds.is_empty(), "pagerank_multi needs at least one column");
    with_width!(seeds.len(), |K| pagerank_multi_width::<K>(engine, iters, seeds))
}

/// [`pagerank_multi`] at compile-time width `K` (`K = 0`: `seeds.len()`).
fn pagerank_multi_width<const K: usize>(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    seeds: &[Option<u32>],
) -> Vec<Vec<f64>> {
    let k = width::<K>(seeds.len());
    let n = engine.n_vertices();
    if n == 0 {
        return vec![Vec::new(); k];
    }
    // Column `j`'s teleport vector is the scalar `base[j]` at every vertex
    // but its seed, where it is `1 - d`: `(1 - d)/n` everywhere for a
    // uniform column (exactly the scalar a solo run uses), 0 off the seed
    // for a personalised one. The seeds are mapped into engine order once,
    // as flat `[vertex][k]` indices, so no n-sized teleport vector is
    // built, permuted or re-read every iteration.
    let base: Vec<f64> =
        seeds.iter().map(|s| if s.is_some() { 0.0 } else { (1.0 - DAMPING) / n as f64 }).collect();
    let base = &base[..k];
    let seeded: Vec<usize> = seeds
        .iter()
        .enumerate()
        .filter_map(|(j, s)| {
            s.map(|s| {
                assert!((s as usize) < n, "seed vertex out of range");
                engine.engine_vertex(s) * k + j
            })
        })
        .collect();
    let seed_rank = |sum: f64| (1.0 - DAMPING) + DAMPING * sum;
    let contribution = |rank: f64, d: u32| if d > 0 { rank / d as f64 } else { 0.0 };
    // Initial ranks, built directly in engine order: uniform columns hold
    // `1/n`, personalised ones all their mass on the seed.
    let mut pr = vec![0.0f64; n * k];
    for (j, seed) in seeds.iter().enumerate() {
        if seed.is_none() {
            pr.iter_mut().skip(j).step_by(k).for_each(|p| *p = 1.0 / n as f64);
        }
    }
    for &at in &seeded {
        pr[at] = 1.0;
    }
    let mut contrib = vec![0.0f64; n * k];
    let mut sums = vec![0.0f64; n * k];
    for it in 0..iters {
        // Same fused contribution/update pass as the solo driver, k columns
        // wide: one task per `VERTEX_GRAIN` vertices, one degree per vertex.
        let degs = engine.out_degrees();
        {
            let pr = &pr[..];
            let sums = &sums[..];
            ihtl_parallel::par_chunks_mut(&mut contrib, VERTEX_GRAIN * k, |ci, cs| {
                let (at, vs) = chunk_spans(ci, cs.len(), k);
                let rows = cs
                    .chunks_exact_mut(k)
                    .zip(pr[at.clone()].chunks_exact(k))
                    .zip(sums[at].chunks_exact(k))
                    .zip(&degs[vs]);
                for (((c, p), s), &d) in rows {
                    for j in 0..k {
                        let rank = if it == 0 { p[j] } else { base[j] + DAMPING * s[j] };
                        c[j] = contribution(rank, d);
                    }
                }
            });
        }
        if it > 0 {
            for &at in &seeded {
                contrib[at] = contribution(seed_rank(sums[at]), degs[at / k]);
            }
        }
        engine.spmm_add(&contrib, &mut sums, k);
    }
    if iters > 0 {
        let sums = &sums[..];
        ihtl_parallel::par_chunks_mut(&mut pr, VERTEX_GRAIN * k, |ci, ps| {
            let (at, _) = chunk_spans(ci, ps.len(), k);
            for (p, s) in ps.chunks_exact_mut(k).zip(sums[at].chunks_exact(k)) {
                for j in 0..k {
                    p[j] = base[j] + DAMPING * s[j];
                }
            }
        });
        for &at in &seeded {
            pr[at] = seed_rank(sums[at]);
        }
    }
    let back = engine.to_original_order_multi(&pr, k);
    if k == 1 {
        return vec![back];
    }
    (0..k).map(|j| take_column(&back, k, j)).collect()
}

/// Personalised PageRank: [`crate::pagerank::pagerank`] generalised with an
/// optional teleport seed. Defined as the single-column case of
/// [`pagerank_multi`], so solo and batched replies agree by construction.
pub fn pagerank_seeded(engine: &mut dyn SpmvEngine, iters: usize, seed: Option<u32>) -> Vec<f64> {
    pagerank_multi(engine, iters, &[seed]).pop().unwrap_or_default()
}

/// K Bellman–Ford queries in one sweep: column `j` relaxes from
/// `sources[j]` (original ID). Returns `(distances, rounds)` per column;
/// `rounds` is the round count the solo run would report — the first round
/// with no improvement for that column (inclusive), capped at
/// `max_rounds`. Columns already at fixpoint keep relaxing without change
/// (min is idempotent), so late columns never perturb early ones.
pub fn sssp_multi(
    engine: &mut dyn SpmvEngine,
    sources: &[u32],
    max_rounds: usize,
) -> Vec<(Vec<f64>, usize)> {
    assert!(!sources.is_empty(), "sssp_multi needs at least one column");
    with_width!(sources.len(), |K| sssp_multi_width::<K>(engine, sources, max_rounds))
}

/// [`sssp_multi`] at compile-time width `K` (`K = 0`: `sources.len()`).
fn sssp_multi_width<const K: usize>(
    engine: &mut dyn SpmvEngine,
    sources: &[u32],
    max_rounds: usize,
) -> Vec<(Vec<f64>, usize)> {
    let k = width::<K>(sources.len());
    let n = engine.n_vertices();
    for &s in sources {
        assert!((s as usize) < n, "source vertex out of range");
    }
    let mut init = vec![f64::INFINITY; n * k];
    for (j, &s) in sources.iter().enumerate() {
        init[s as usize * k + j] = 0.0;
    }
    let mut dist = engine.from_original_order_multi(&init, k);
    let mut bumped = vec![0.0f64; n * k];
    let mut relaxed = vec![0.0f64; n * k];
    let mut col_rounds = vec![max_rounds; k];
    let mut done = vec![false; k];
    let mut rounds = 0;
    while rounds < max_rounds && done.iter().any(|d| !d) {
        for (b, &d) in bumped.iter_mut().zip(&dist) {
            *b = d + 1.0;
        }
        engine.spmm_min(&bumped, &mut relaxed, k);
        let mut changed = vec![false; k];
        for (ds, rs) in dist.chunks_exact_mut(k).zip(relaxed.chunks_exact(k)) {
            for j in 0..k {
                if rs[j] < ds[j] {
                    ds[j] = rs[j];
                    changed[j] = true;
                }
            }
        }
        rounds += 1;
        for j in 0..k {
            if !done[j] && !changed[j] {
                done[j] = true;
                col_rounds[j] = rounds;
            }
        }
    }
    let back = engine.to_original_order_multi(&dist, k);
    (0..k).map(|j| (take_column(&back, k, j), col_rounds[j])).collect()
}

/// K iterated sum-SpMV queries in one sweep: column `j` starts from all
/// ones (`sources[j] == None`, the classic §2.2 microbenchmark) or from an
/// indicator at the given original-order vertex. Per-column renormalisation
/// follows the solo driver's fold order exactly (ascending rows, rescale
/// when the 1-norm exceeds `1e100`).
pub fn spmv_sum_multi(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    sources: &[Option<u32>],
) -> Vec<Vec<f64>> {
    let k = sources.len();
    assert!(k >= 1, "spmv_sum_multi needs at least one column");
    let n = engine.n_vertices();
    let mut x0 = vec![0.0f64; n * k];
    for (j, src) in sources.iter().enumerate() {
        match *src {
            None => {
                for i in 0..n {
                    x0[i * k + j] = 1.0;
                }
            }
            Some(s) => {
                assert!((s as usize) < n, "source vertex out of range");
                x0[s as usize * k + j] = 1.0;
            }
        }
    }
    let mut x = engine.from_original_order_multi(&x0, k);
    let mut y = vec![0.0f64; n * k];
    for _ in 0..iters {
        engine.spmm_add(&x, &mut y, k);
        std::mem::swap(&mut x, &mut y);
        for j in 0..k {
            let mut norm = 0.0f64;
            let mut i = j;
            while i < x.len() {
                norm += x[i].abs();
                i += k;
            }
            if norm > 1e100 {
                let inv = 1.0 / norm;
                let mut i = j;
                while i < x.len() {
                    x[i] *= inv;
                    i += k;
                }
            }
        }
    }
    let back = engine.to_original_order_multi(&x, k);
    (0..k).map(|j| take_column(&back, k, j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineKind};
    use crate::pagerank::pagerank;
    use crate::spmv::spmv_iterations;
    use crate::sssp::sssp;
    use ihtl_core::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;

    fn cfg() -> IhtlConfig {
        IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() }
    }

    fn assert_bitwise(a: &[f64], b: &[f64], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn uniform_pagerank_multi_matches_solo_bitwise() {
        // Pull engine: schedule independent, so bitwise identity must hold
        // on arbitrary (non-integer) rank values.
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let solo = pagerank(e.as_mut(), 12).ranks;
        for k in [1usize, 2, 3, 4, 5, 8, 9] {
            let seeds = vec![None; k];
            let cols = pagerank_multi(e.as_mut(), 12, &seeds);
            for (j, col) in cols.iter().enumerate() {
                assert_bitwise(col, &solo, &format!("k={k} column {j}"));
            }
        }
    }

    #[test]
    fn seeded_pagerank_multi_matches_seeded_solo_bitwise() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let seeds = [Some(2u32), None, Some(5u32), Some(0u32)];
        let cols = pagerank_multi(e.as_mut(), 10, &seeds);
        for (j, seed) in seeds.iter().enumerate() {
            let solo = pagerank_seeded(e.as_mut(), 10, *seed);
            assert_bitwise(&cols[j], &solo, &format!("seed {seed:?}"));
        }
        // A seeded column concentrates rank around its seed's reach.
        let seeded = &cols[0];
        assert!(seeded[2] > seeded[3], "seed vertex outranks non-seed");
        // Against a dense, textbook-order reference of the same arithmetic
        // (the pull engine is schedule independent, so bitwise), and on
        // every engine — iHTL relabels its vertices, so this also checks
        // that each seed lands on its engine-order index.
        for (j, seed) in seeds.iter().enumerate() {
            assert_bitwise(&cols[j], &reference_pagerank(&g, 10, *seed), &format!("ref {seed:?}"));
        }
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let got = pagerank_multi(e.as_mut(), 10, &seeds);
            for (j, seed) in seeds.iter().enumerate() {
                for (v, (a, b)) in got[j].iter().zip(&cols[j]).enumerate() {
                    assert!((a - b).abs() < 1e-12, "{kind:?} seed {seed:?} vertex {v}: {a} vs {b}");
                }
            }
        }
    }

    /// Solo PageRank written out densely: per iteration the contributions
    /// from the previous sums and the teleport vector, then one serial
    /// pull SpMV.
    fn reference_pagerank(g: &ihtl_graph::Graph, iters: usize, seed: Option<u32>) -> Vec<f64> {
        let n = g.n_vertices();
        let mut base = vec![(1.0 - DAMPING) / n as f64; n];
        let mut pr = vec![1.0 / n as f64; n];
        if let Some(s) = seed {
            base = vec![0.0; n];
            base[s as usize] = 1.0 - DAMPING;
            pr = vec![0.0; n];
            pr[s as usize] = 1.0;
        }
        let mut sums = vec![0.0; n];
        for it in 0..iters {
            let contrib: Vec<f64> = (0..n)
                .map(|v| {
                    let rank = if it == 0 { pr[v] } else { base[v] + DAMPING * sums[v] };
                    let d = g.out_degree(v as u32);
                    if d > 0 {
                        rank / d as f64
                    } else {
                        0.0
                    }
                })
                .collect();
            ihtl_traversal::pull::spmv_pull_serial::<ihtl_traversal::Add>(g, &contrib, &mut sums);
        }
        if iters > 0 {
            pr = (0..n).map(|v| base[v] + DAMPING * sums[v]).collect();
        }
        pr
    }

    #[test]
    fn sssp_multi_matches_solo_bitwise_on_every_engine() {
        // Min is exact on any values: bitwise identity holds on every
        // engine, batch against independent solo runs.
        let g = paper_example_graph();
        let sources = [5u32, 0, 2, 5, 1, 6, 3, 4, 7];
        for kind in EngineKind::all() {
            for k in [1usize, 2, 3, 4, 5, 8, 9] {
                let mut e = build_engine(kind, &g, &cfg());
                let cols = sssp_multi(e.as_mut(), &sources[..k], 64);
                for (j, &s) in sources[..k].iter().enumerate() {
                    let solo = sssp(e.as_mut(), s, 64);
                    assert_bitwise(&cols[j].0, &solo.dist, &format!("{kind:?} k={k} src {s}"));
                    assert_eq!(cols[j].1, solo.rounds, "{kind:?} k={k} src {s} rounds");
                }
            }
        }
    }

    #[test]
    fn spmv_sum_multi_matches_solo_bitwise() {
        // Integer-valued inputs (ones / indicators): exact Add, bitwise on
        // every engine.
        let g = paper_example_graph();
        let n = g.n_vertices();
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let sources = [None, Some(2u32), Some(5u32), None];
            let cols = spmv_sum_multi(e.as_mut(), 3, &sources);
            for (j, src) in sources.iter().enumerate() {
                let mut x0 = vec![0.0; n];
                match *src {
                    None => x0.iter_mut().for_each(|v| *v = 1.0),
                    Some(s) => x0[s as usize] = 1.0,
                }
                let solo = spmv_iterations(e.as_mut(), &x0, 3);
                assert_bitwise(&cols[j], &solo.values, &format!("{kind:?} src {src:?}"));
            }
        }
    }

    #[test]
    fn column_helpers_round_trip() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = interleave_columns(&cols);
        assert_eq!(m, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(take_column(&m, 2, 0), cols[0]);
        assert_eq!(take_column(&m, 2, 1), cols[1]);
    }

    #[test]
    fn sssp_multi_rounds_respect_max_rounds_cap() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let cols = sssp_multi(e.as_mut(), &[5, 0], 2);
        for (j, &(_, rounds)) in cols.iter().enumerate() {
            let solo = sssp(e.as_mut(), [5u32, 0][j], 2);
            assert_eq!(rounds, solo.rounds);
            assert!(rounds <= 2);
        }
    }
}
