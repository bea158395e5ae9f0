//! `solve-powerlaw`: in-process PageRank solves on an R-MAT social graph
//! at scale 21 (about 0.99M vertices and 16M edges). No sockets: the
//! kernels, the iHTL build and the `apps` drivers do all the work. The
//! untraced pass times 20-iteration iHTL solves in a closed loop; the
//! traced pass times the pull baseline, the K=8 sweep and each layer.

use std::sync::Arc;
use std::time::Instant;

use ihtl_apps::{
    build_engine_shared, ihtl_engine_from_shared, pagerank, pagerank_multi, EngineKind, SpmvEngine,
};
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_gen::Pcg64;
use ihtl_graph::graph::Graph;
use ihtl_serve::fnv1a_checksum;
use ihtl_traversal::Add;

use crate::inputs::{derive_seed, rmat_image};
use crate::report::{count_above, quantile, Report};
use crate::{Ctx, SETUP_REPS};

const SCALE: u32 = 21;
const EDGES: usize = 16_000_000;
/// Iterations of every solve (the paper's PageRank length).
const ITERS: usize = 20;
/// Personalized PageRank queries answered by one K-column sweep.
const K: usize = 8;
/// iHTL and pull ranks must agree to this relative L1 distance: the two
/// engines sum each vertex's in-edges in different orders, so they differ
/// only by floating-point rounding.
const RANK_TOLERANCE: f64 = 1e-9;
/// Timed iHTL solves per run at least, whatever the measuring time.
const MIN_SOLVES: usize = 20;

/// The graph plus the engines built from it.
struct Built {
    g: Arc<Graph>,
    ih: Arc<IhtlGraph>,
    ihtl: ihtl_apps::engine::Ihtl,
    pull: Box<dyn SpmvEngine + Send>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times one call into a layer inside a benchmark span named after it,
/// counting it as an attempted operation.
fn op<T>(rep: &mut Report, span: &'static str, f: impl FnOnce() -> T) -> f64 {
    let _s = ihtl_trace::span(span);
    rep.attempted += 1;
    timed(f).1
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let image = rmat_image(&ctx.cache_dir, SCALE, EDGES, derive_seed(ctx.seed, "solve"))?;
    rep.context("gen_s", image.gen_s);
    let mut trace_guard = ctx.trace.then(ihtl_trace::enable);
    let cfg = IhtlConfig::default();

    // Set-up: graph load, iHTL preprocessing and engine build, repeated.
    let (mut setup, mut load, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let g = {
            let _s = ihtl_trace::span("graph.load");
            Arc::new(
                ihtl_graph::io::load_graph(&image.path)
                    .map_err(|e| format!("loading image: {e}"))?,
            )
        };
        let t_load = t.elapsed().as_secs_f64();
        let ih = {
            let _s = ihtl_trace::span("core.build");
            Arc::new(IhtlGraph::build(&g, &cfg))
        };
        let ihtl = ihtl_engine_from_shared(Arc::clone(&ih));
        let pull = build_engine_shared(EngineKind::PullGraphGrind, Arc::clone(&g), &cfg);
        let total = t.elapsed().as_secs_f64();
        setup.push(total);
        load.push(t_load);
        build.push(total - t_load);
        built = Some(Built { g, ih, ihtl, pull });
    }
    let mut b = built.ok_or("no set-up repetition ran")?;
    let n = b.g.n_vertices();
    rep.context("n_vertices", n);
    rep.context("n_edges", b.g.n_edges());

    let mut rng = Pcg64::seed_from_u64(derive_seed(ctx.seed, "ppr8"));
    let mut seeds: Vec<Option<u32>> = Vec::with_capacity(K);
    while seeds.len() < K {
        let v = Some(rng.gen_index(n) as u32);
        if !seeds.contains(&v) {
            seeds.push(v);
        }
    }

    if ctx.trace {
        rep.samples("graph.load_s", "s", load);
        rep.samples("core.ihtl_build_s", "s", build);
        return layers(ctx, rep, &mut b, &seeds, &mut trace_guard);
    }
    rep.samples("setup_s", "s", setup);

    // One solve of each kind, cold after set-up: checked, not timed.
    let ri = pagerank(&mut b.ihtl, ITERS);
    let rp = pagerank(b.pull.as_mut(), ITERS);
    let cols = pagerank_multi(&mut b.ihtl, ITERS, &seeds);
    rep.attempted += 3;
    check_ranks(rep, &ri.ranks, &rp.ranks);
    let mut first = Some(format!("ihtl {}", fnv1a_checksum(&ri.ranks)));
    let mut fingerprint = vec![format!("pull {}", fnv1a_checksum(&rp.ranks))];
    for (j, c) in cols.iter().enumerate() {
        fingerprint.push(format!("ppr8[{j}] {}", fnv1a_checksum(c)));
    }

    // Closed loop of iHTL solves, each bitwise-checked against the first.
    let mut ms = Vec::new();
    let start = Instant::now();
    while ms.len() < MIN_SOLVES || start.elapsed().as_secs_f64() < ctx.seconds {
        let (r, s) = timed(|| pagerank(&mut b.ihtl, ITERS));
        rep.attempted += 1;
        ms.push(s * 1e3);
        same(rep, &mut first, format!("ihtl {}", fnv1a_checksum(&r.ranks)));
    }
    let secs = start.elapsed().as_secs_f64();
    let p95 = quantile(&ms, 0.95);
    rep.context("solves", ms.len());
    rep.context("p95_tail_samples", count_above(&ms, p95));
    rep.value("rps", "1/s", ms.len() as f64 / secs);
    rep.samples("p50_ms", "ms", ms);
    rep.value("p95_ms", "ms", p95);
    rep.value("peak_rss_mb", "MiB", crate::wire::peak_rss_mb("/proc/self/status")?);
    fingerprint.extend(first);
    crate::check_fingerprint(ctx, rep, &fingerprint)
}

/// iHTL and pull ranks must agree within `RANK_TOLERANCE`.
fn check_ranks(rep: &mut Report, ihtl: &[f64], pull: &[f64]) {
    let l1: f64 = ihtl.iter().zip(pull).map(|(a, b)| (a - b).abs()).sum();
    let norm: f64 = pull.iter().map(|x| x.abs()).sum();
    rep.check(l1 <= RANK_TOLERANCE * norm, || {
        format!("iHTL and pull ranks differ: relative L1 {:e} > {RANK_TOLERANCE:e}", l1 / norm)
    });
}

/// Records the first checksum a solve produced; later ones must equal it.
fn same(rep: &mut Report, first: &mut Option<String>, sum: String) {
    match first {
        None => *first = Some(sum),
        Some(f) => rep.check(*f == sum, || format!("repeated solve differs: {f} vs {sum}")),
    }
}

/// The traced pass: each layer's own numbers, timed around its public
/// calls, plus the tracing overhead on the iHTL solve.
fn layers(
    ctx: &Ctx,
    rep: &mut Report,
    b: &mut Built,
    seeds: &[Option<u32>],
    trace_guard: &mut Option<ihtl_trace::EnabledGuard>,
) -> Result<(), String> {
    const REPS: usize = 5;
    let n = b.g.n_vertices();
    let m = b.g.n_edges() as f64;
    let st = b.ih.stats();
    rep.value("core.hubs", "count", b.ih.n_hubs() as f64);
    rep.value("core.flipped_blocks", "count", b.ih.n_blocks() as f64);
    rep.value("core.fb_edge_share", "ratio", st.fb_edge_fraction());
    // Computed from array sizes, not measured: the iHTL topology plus one
    // read of x and one write of y.
    rep.value("core.bytes_per_spmv", "B", (b.ih.topology_bytes() + 2 * 8 * n as u64) as f64);

    let x: Vec<f64> = (0..n).map(|i| 1.0 / (1 + i % 7) as f64).collect();
    let mut y = vec![0.0; n];
    let (mut fb, mut merge, mut sparse, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut solo = Vec::new();
    let mut k1 = Vec::new();
    let mut bufs = b.ih.new_buffers();
    let mut bufs1 = b.ih.new_buffers_multi(1);
    // The first sweeps after set-up run cold; keep them out of the samples.
    for _ in 0..3 {
        b.ihtl.spmv_add(&x, &mut y);
    }
    for _ in 0..REPS {
        let bd = {
            let _s = ihtl_trace::span("core.spmv");
            rep.attempted += 1;
            b.ihtl.spmv_add_with_breakdown(&x, &mut y)
        };
        fb.push(bd.fb_seconds);
        merge.push(bd.merge_seconds);
        sparse.push(bd.pull_seconds);
        total.push(bd.total_seconds());
        // K=1 SpMM against SpMV on the same buffers layout, alternated.
        solo.push(op(rep, "core.spmv", || b.ih.spmv::<Add>(&x, &mut y, &mut bufs)));
        k1.push(op(rep, "core.spmm1", || b.ih.spmm::<Add>(&x, &mut y, 1, &mut bufs1)));
    }
    rep.samples("core.fb_push_s", "s", fb);
    rep.samples("core.fb_merge_s", "s", merge);
    rep.samples("core.sparse_pull_s", "s", sparse);
    // The breakdown times each phase apart and runs slower than a plain
    // SpMV, so per-edge cost and driver overhead use the plain one.
    let spmv_s = quantile(&solo, 0.5);
    rep.context("breakdown_spmv_s", quantile(&total, 0.5));
    rep.value("core.spmv_ns_per_edge", "ns", spmv_s / m * 1e9);
    rep.value("core.spmm1_vs_spmv_x", "ratio", quantile(&k1, 0.5) / spmv_s);

    let x8: Vec<f64> = (0..n * K).map(|i| 1.0 / (1 + i % 5) as f64).collect();
    let mut y8 = vec![0.0; n * K];
    let spmm8: Vec<f64> =
        (0..REPS).map(|_| op(rep, "core.spmm8", || b.ihtl.spmm_add(&x8, &mut y8, K))).collect();
    rep.value("core.spmm8_ns_per_edge_query", "ns", quantile(&spmm8, 0.5) / (m * K as f64) * 1e9);

    let pull: Vec<f64> =
        (0..REPS).map(|_| op(rep, "traversal.pull", || b.pull.spmv_add(&x, &mut y))).collect();
    rep.value("traversal.pull_ns_per_edge", "ns", quantile(&pull, 0.5) / m * 1e9);
    {
        let cfg = IhtlConfig::default();
        let mut pb = build_engine_shared(EngineKind::Pb, Arc::clone(&b.g), &cfg);
        let t: Vec<f64> =
            (0..REPS).map(|_| op(rep, "traversal.pb", || pb.spmv_add(&x, &mut y))).collect();
        rep.value("traversal.pb_ns_per_edge", "ns", quantile(&t, 0.5) / m * 1e9);
    }

    // Driver overhead: a whole solve minus its SpMV work.
    let (mut ri, mut rp) = (Vec::new(), Vec::new());
    let pr: Vec<f64> = (0..3)
        .map(|_| op(rep, "apps.pagerank_ihtl", || ri = pagerank(&mut b.ihtl, ITERS).ranks))
        .collect();
    rep.value("apps.driver_overhead_s", "s", quantile(&pr, 0.5) - ITERS as f64 * spmv_s);
    let pull_pr: Vec<f64> = (0..3)
        .map(|_| op(rep, "apps.pagerank_pull", || rp = pagerank(b.pull.as_mut(), ITERS).ranks))
        .collect();
    rep.samples("apps.pagerank_pull_s", "s", pull_pr);
    check_ranks(rep, &ri, &rp);
    let ppr8: Vec<f64> = (0..3)
        .map(|_| op(rep, "apps.ppr8", || pagerank_multi(&mut b.ihtl, ITERS, seeds)))
        .collect();
    rep.samples("apps.ppr8_s", "s", ppr8);
    let one = &seeds[..1];
    let mk1_pull: Vec<f64> = (0..3)
        .map(|_| op(rep, "apps.multi_k1_pull", || pagerank_multi(b.pull.as_mut(), ITERS, one)))
        .collect();
    rep.samples("apps.multi_k1_pull_s", "s", mk1_pull);
    let mk1_ihtl: Vec<f64> = (0..3)
        .map(|_| op(rep, "apps.multi_k1_ihtl", || pagerank_multi(&mut b.ihtl, ITERS, one)))
        .collect();
    rep.samples("apps.multi_k1_ihtl_s", "s", mk1_ihtl);

    let path = ctx.out_dir.join(format!("trace-solve-powerlaw-seed{}.json", ctx.seed));
    crate::tracing::finish(&path, rep)?;

    // Overhead of tracing on the iHTL solve: traced and untraced solves
    // alternated in this process.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on.push(op(rep, "apps.pagerank_ihtl", || pagerank(&mut b.ihtl, ITERS)));
        drop(trace_guard.take());
        off.push(op(rep, "apps.pagerank_ihtl", || pagerank(&mut b.ihtl, ITERS)));
        *trace_guard = Some(ihtl_trace::enable());
    }
    let pct = crate::tracing::overhead_pct(quantile(&off, 0.5), quantile(&on, 0.5));
    rep.value("trace_overhead_pct", "%", pct);
    Ok(())
}
