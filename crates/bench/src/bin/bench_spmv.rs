//! Machine-readable SpMV benchmark: writes `results/BENCH_spmv.json`.
//!
//! Unlike the table/figure binaries (human-oriented markdown), this target
//! exists so every PR leaves a perf trajectory: per-kernel ns/edge and the
//! iHTL phase breakdown (push / merge / pull) over a fixed R-MAT suite,
//! serialised as JSON a driver can diff across commits. Run it through
//! `scripts/bench.sh`, which also embeds the checked-in seed capture as the
//! `baseline` field so before/after speedups are computed in-place.
//!
//! Usage:
//!   bench_spmv [--out PATH] [--baseline PATH] [--samples N]
//!              [--max-regress PCT] [--trace-ab]
//!
//! `--max-regress PCT` turns the run into a regression gate: if the live
//! iHTL SpMV ns/edge geomean is more than PCT percent above the baseline's,
//! the binary exits nonzero. `--trace-ab` additionally measures the
//! `ihtl-trace` instrumentation cost (tracing enabled vs idle on the same
//! kernel) and records it as `trace_overhead_pct` in the summary.

use std::time::Instant;

use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::pagerank::pagerank;
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_gen::{er, weblike};
use ihtl_graph::stats::{engine_features_llc, pick_engine, EnginePick};
use ihtl_graph::Graph;
use ihtl_serve::argv::{parse_or_exit, FlagSpec};
use ihtl_traversal::pull::spmv_pull;
use ihtl_traversal::Add;

/// One benchmarked dataset: a social R-MAT graph at the given scale.
struct Dataset {
    key: &'static str,
    scale: u32,
    target_edges: usize,
    seed: u64,
}

const SUITE: &[Dataset] = &[
    Dataset { key: "rmat18", scale: 18, target_edges: 2_600_000, seed: 118 },
    Dataset { key: "rmat19", scale: 19, target_edges: 3_600_000, seed: 119 },
    Dataset { key: "rmat20", scale: 20, target_edges: 6_000_000, seed: 120 },
];

struct KernelResult {
    name: &'static str,
    /// Best (minimum) wall-clock seconds of one kernel invocation over all
    /// samples. The kernels are deterministic compute, so variation is
    /// one-sided interference (scheduler preemption, frequency dips) and
    /// the minimum is the robust estimator of the true cost.
    seconds_best: f64,
    /// Nanoseconds per edge at the best sample.
    ns_per_edge: f64,
    /// Mean per-iteration phase seconds (iHTL only): (fb, merge, pull).
    phases: Option<(f64, f64, f64)>,
}

struct DatasetResult {
    key: &'static str,
    n_vertices: usize,
    n_edges: usize,
    kernels: Vec<KernelResult>,
}

/// Times `f` `samples` times after one warm-up call; returns the best
/// (minimum) seconds observed.
fn time_best<F: FnMut()>(samples: usize, f: F) -> f64 {
    time_samples(samples, f).into_iter().fold(f64::INFINITY, f64::min)
}

/// Times `f` `samples` times after one warm-up call; returns every sample.
fn time_samples<F: FnMut()>(samples: usize, mut f: F) -> Vec<f64> {
    f(); // warm-up
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// First quartile, median and third quartile of `v` (nearest rank).
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

fn bench_dataset(ds: &Dataset, samples: usize) -> DatasetResult {
    let t = Instant::now();
    let edges = rmat_edges(ds.scale, ds.target_edges, RmatParams::social(), ds.seed);
    let g = Graph::from_edges(1usize << ds.scale, &edges);
    eprintln!(
        "[bench_spmv] {}: |V|={} |E|={} ({:.1}s build)",
        ds.key,
        g.n_vertices(),
        g.n_edges(),
        t.elapsed().as_secs_f64()
    );
    let n = g.n_vertices();
    let m = g.n_edges();
    let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 + 0.5).collect();
    let mut y = vec![0.0f64; n];
    let mut kernels = Vec::new();

    // iHTL SpMV with phase breakdown.
    let cfg = IhtlConfig::default();
    let ih = IhtlGraph::build(&g, &cfg);
    let x_new = ih.to_new_order(&x);
    let mut bufs = ih.new_buffers();
    let mut fb = 0.0;
    let mut merge = 0.0;
    let mut pull = 0.0;
    let mut phase_samples = 0usize;
    let sec = time_best(samples, || {
        let bd = ih.spmv::<Add>(&x_new, &mut y, &mut bufs);
        fb += bd.fb_seconds;
        merge += bd.merge_seconds;
        pull += bd.pull_seconds;
        phase_samples += 1;
    });
    let k = phase_samples as f64;
    kernels.push(KernelResult {
        name: "ihtl_spmv",
        seconds_best: sec,
        ns_per_edge: sec * 1e9 / m as f64,
        phases: Some((fb / k, merge / k, pull / k)),
    });

    // Pull baseline (GraphGrind-style edge-balanced parallel pull).
    let sec = time_best(samples, || spmv_pull::<Add>(&g, &x, &mut y));
    kernels.push(KernelResult {
        name: "pull_spmv",
        seconds_best: sec,
        ns_per_edge: sec * 1e9 / m as f64,
        phases: None,
    });

    // PageRank per-iteration via the iHTL engine (the paper's Fig. 7 metric).
    let mut e = build_engine(EngineKind::Ihtl, &g, &cfg);
    let run = pagerank(e.as_mut(), samples.max(2));
    let sec = run.mean_iter_seconds();
    kernels.push(KernelResult {
        name: "pagerank_ihtl_iter",
        seconds_best: sec,
        ns_per_edge: sec * 1e9 / m as f64,
        phases: None,
    });

    DatasetResult { key: ds.key, n_vertices: n, n_edges: m, kernels }
}

/// Batched-execution A/B on one dataset: amortized ns/edge/query of the
/// iHTL kernel at K = 1, 2, 4 and 8 columns per edge sweep, every width
/// through the one [`IhtlGraph::spmm`] kernel family (K=1 is what solo
/// SpMV runs). One SpMM sweep serves K queries, so its per-query cost is
/// its wall-clock divided by K× the edge count.
struct SpmmResult {
    key: &'static str,
    n_edges: usize,
    points: Vec<SpmmPoint>,
}

struct SpmmPoint {
    k: usize,
    /// Best seconds per sweep.
    seconds_best: f64,
    /// Amortized ns/edge/query at the best sample.
    ns_best: f64,
    /// Amortized ns/edge/query at the first quartile, median and third
    /// quartile of the samples: the spread tells a real cliff from noise.
    ns_quartiles: [f64; 3],
}

fn bench_spmm(ds: &Dataset, samples: usize) -> SpmmResult {
    let edges = rmat_edges(ds.scale, ds.target_edges, RmatParams::social(), ds.seed);
    let g = Graph::from_edges(1usize << ds.scale, &edges);
    let n = g.n_vertices();
    let m = g.n_edges();
    let ih = IhtlGraph::build(&g, &IhtlConfig::default());
    let mut points = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let x: Vec<f64> = (0..n * k).map(|i| ((i * 37) % 101) as f64 + 0.5).collect();
        let x_new = ih.to_new_order_multi(&x, k);
        let mut y = vec![0.0f64; n * k];
        let mut bufs = ih.new_buffers_multi(k);
        let secs = time_samples(samples, || {
            let _ = ih.spmm::<Add>(&x_new, &mut y, k, &mut bufs);
        });
        let per_query = |sec: f64| sec * 1e9 / (m * k) as f64;
        let seconds_best = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let ns_quartiles = quartiles(&secs).map(per_query);
        let ns_best = per_query(seconds_best);
        eprintln!(
            "[bench_spmv] spmm {} k={k}: {seconds_best:.6}s/sweep, {ns_best:.3} ns/edge/query \
             best, median {:.3} [{:.3}, {:.3}]",
            ds.key, ns_quartiles[1], ns_quartiles[0], ns_quartiles[2]
        );
        points.push(SpmmPoint { k, seconds_best, ns_best, ns_quartiles });
    }
    SpmmResult { key: ds.key, n_edges: m, points }
}

/// Per-dataset speedup of K=8 amortized cost over the K=1 baseline
/// (> 1.0 means batching wins).
fn spmm_k8_speedup(r: &SpmmResult) -> f64 {
    let at = |k: usize| r.points.iter().find(|p| p.k == k).map(|p| p.ns_best);
    match (at(1), at(8)) {
        (Some(k1), Some(k8)) if k8 > 0.0 => k1 / k8,
        _ => 0.0,
    }
}

fn render_spmm_json(results: &[SpmmResult], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ihtl-bench-spmm/v2\",\n");
    let unix =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs();
    out.push_str(&format!("  \"generated_unix\": {unix},\n"));
    out.push_str(&format!("  \"threads\": {},\n", ihtl_parallel::num_threads()));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"datasets\": [\n");
    for (i, ds) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"key\": \"{}\",\n", ds.key));
        out.push_str(&format!("      \"n_edges\": {},\n", ds.n_edges));
        out.push_str("      \"points\": {\n");
        for (j, p) in ds.points.iter().enumerate() {
            let [q1, med, q3] = p.ns_quartiles;
            out.push_str(&format!(
                "        \"k{}\": {{ \"seconds_best\": {:.6}, \
                 \"ns_per_edge_per_query\": {:.3}, \"ns_median\": {med:.3}, \
                 \"ns_q1\": {q1:.3}, \"ns_q3\": {q3:.3} }}",
                p.k, p.seconds_best, p.ns_best
            ));
            out.push_str(if j + 1 < ds.points.len() { ",\n" } else { "\n" });
        }
        out.push_str("      },\n");
        out.push_str(&format!("      \"k8_vs_k1_speedup\": {:.3}\n", spmm_k8_speedup(ds)));
        out.push_str("    }");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let best = results.iter().map(spmm_k8_speedup).fold(0.0f64, f64::max);
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"best_k8_vs_k1_speedup\": {best:.3}\n"));
    out.push_str("  }\n}\n");
    out
}

/// One row of the three-engine A/B matrix.
struct EngineMatrixRow {
    key: String,
    n_vertices: usize,
    n_edges: usize,
    /// (wire name, best seconds, ns/edge) per candidate engine, in
    /// [`EnginePick::ALL`] order.
    engines: Vec<(&'static str, f64, f64)>,
    /// The scoring rule's pick for this dataset at the live thread count.
    auto_pick: &'static str,
}

impl EngineMatrixRow {
    fn ns_of(&self, name: &str) -> f64 {
        self.engines.iter().find(|(n, _, _)| *n == name).map_or(f64::NAN, |&(_, _, ns)| ns)
    }

    fn best(&self) -> (&'static str, f64) {
        self.engines
            .iter()
            .fold(("", f64::INFINITY), |acc, &(n, _, ns)| if ns < acc.1 { (n, ns) } else { acc })
    }

    /// Percent by which the auto pick's measured cost exceeds the best
    /// fixed engine's (0 when auto picked the winner).
    fn auto_gap_pct(&self) -> f64 {
        let (_, best_ns) = self.best();
        (self.ns_of(self.auto_pick) / best_ns - 1.0) * 100.0
    }
}

/// Smallest R-MAT scale whose vertex data is at least 1.5× `llc_bytes`
/// (capped so a huge reported LLC cannot make the bench unbounded).
fn thrashing_scale(llc_bytes: usize) -> u32 {
    let mut scale = 20u32;
    while (1usize << scale) * 8 < llc_bytes + llc_bytes / 2 && scale < 27 {
        scale += 1;
    }
    scale
}

/// The engine A/B suite, sized to the machine rather than to fixed scales:
/// "cache-thrashing" is a property of the *hardware*, so the skewed R-MAT
/// is generated at the smallest scale whose vertex data is ≥ 1.5× the
/// detected LLC — pull's random source reads genuinely miss, which is the
/// regime propagation blocking exists for. Two LLC-resident contrasts ride
/// along (flat er, skewed weblike) where pull cannot miss and the scoring
/// rule must leave it alone.
fn engine_suite(samples: usize) -> Vec<(String, Graph)> {
    let (_, llc) = ihtl_parallel::cache_sizes();
    let scale = thrashing_scale(llc);
    let n = 1usize << scale;
    eprintln!(
        "[bench_spmv] engines: llc {} MiB -> thrashing rmat at scale {scale} \
         ({} MiB vertex data, ~{} samples/engine)",
        llc >> 20,
        (n * 8) >> 20,
        samples
    );
    let t = Instant::now();
    let edges = rmat_edges(scale, 2 * n, RmatParams::social(), 0xE5_0007);
    let g = Graph::from_edges(n, &edges);
    drop(edges);
    eprintln!(
        "[bench_spmv] engines rmat{scale}: |V|={} |E|={} ({:.1}s build)",
        g.n_vertices(),
        g.n_edges(),
        t.elapsed().as_secs_f64()
    );
    let mut out: Vec<(String, Graph)> = vec![(format!("rmat{scale}"), g)];
    let n = 1usize << 19;
    out.push((format!("er{}", 19), Graph::from_edges(n, &er::er_edges(n, 4 * n, 0xE5_19))));
    let n = 1usize << 18;
    let web = weblike::web_edges(n, 6 * n, &weblike::WebParams::concentrated(), 0xE5_18);
    out.push((format!("web{}", 18), Graph::from_edges(n, &web)));
    out
}

/// Times all three candidate engines (plain pull, iHTL, PB) on one
/// dataset through the uniform engine API, and resolves the scoring rule's
/// pick from the same structural features the serve tier uses — with the
/// two cache roles split to the detected hierarchy: the flipped-block /
/// bin buffers are sized to the private L2, residency to the LLC.
///
/// Samples are **interleaved round-robin** (one sweep per engine per
/// round) rather than engine-by-engine: this row feeds a *ranking* gate,
/// and on shared hosts a slow window (noisy neighbours, frequency dips)
/// lasting longer than one engine's whole sample budget would otherwise
/// penalise only the engine being timed just then. Round-robin spreads any
/// window across all three; per-engine minima then come from the same fast
/// windows.
fn bench_engine_matrix(key: &str, g: &Graph, samples: usize) -> EngineMatrixRow {
    let (buffer, llc) = ihtl_parallel::cache_sizes();
    let cfg = IhtlConfig { cache_budget_bytes: buffer, ..IhtlConfig::default() };
    let n = g.n_vertices();
    let m = g.n_edges();
    let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 + 0.5).collect();
    const CANDIDATES: [(EnginePick, EngineKind); 3] = [
        (EnginePick::Pull, EngineKind::PullGraphGrind),
        (EnginePick::Ihtl, EngineKind::Ihtl),
        (EnginePick::Pb, EngineKind::Pb),
    ];
    let mut runs = Vec::new();
    let mut slowest_warmup = 0.0f64;
    for (pick, kind) in CANDIDATES {
        let t = Instant::now();
        let mut e = build_engine(kind, g, &cfg);
        let built = t.elapsed().as_secs_f64();
        let xe = e.from_original_order(&x);
        let mut y = vec![0.0f64; n];
        let t = Instant::now();
        e.spmv_add(&xe, &mut y);
        slowest_warmup = slowest_warmup.max(t.elapsed().as_secs_f64());
        eprintln!("[bench_spmv] engines {key} {}: built {built:.1}s", pick.wire_name());
        runs.push((pick, e, xe, y, f64::INFINITY));
    }
    // At least 5 rounds even when --samples is lower (this gates a
    // ranking); fast sweeps are nearly free, so small graphs get extra
    // rounds for their minima to settle, bounded at 50.
    let budget_rounds = (0.5 / slowest_warmup.max(1e-9)) as usize;
    let rounds = samples.max(5).max(budget_rounds.min(50));
    for _ in 0..rounds {
        for (_, e, xe, y, best) in runs.iter_mut() {
            let t = Instant::now();
            e.spmv_add(xe, y);
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    let mut engines = Vec::new();
    for (pick, _, _, _, sec) in &runs {
        let ns = sec * 1e9 / m as f64;
        eprintln!(
            "[bench_spmv] engines {key} {}: {sec:.6}s, {ns:.3} ns/edge ({rounds} rounds)",
            pick.wire_name()
        );
        engines.push((pick.wire_name(), *sec, ns));
    }
    drop(runs);
    let f = engine_features_llc(g, cfg.cache_budget_bytes, llc, cfg.vertex_data_bytes);
    let auto_pick = pick_engine(&f, ihtl_parallel::num_threads()).wire_name();
    let row =
        EngineMatrixRow { key: key.to_string(), n_vertices: n, n_edges: m, engines, auto_pick };
    eprintln!(
        "[bench_spmv] engines {key}: auto={auto_pick} (gap {:+.1}% vs best {})",
        row.auto_gap_pct(),
        row.best().0
    );
    row
}

fn render_engines_json(rows: &[EngineMatrixRow], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ihtl-bench-engines/v1\",\n");
    let unix =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs();
    out.push_str(&format!("  \"generated_unix\": {unix},\n"));
    out.push_str(&format!("  \"threads\": {},\n", ihtl_parallel::num_threads()));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"datasets\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"key\": \"{}\",\n", row.key));
        out.push_str(&format!("      \"n_vertices\": {},\n", row.n_vertices));
        out.push_str(&format!("      \"n_edges\": {},\n", row.n_edges));
        out.push_str("      \"engines\": {\n");
        for (j, (name, sec, ns)) in row.engines.iter().enumerate() {
            out.push_str(&format!(
                "        \"{name}\": {{ \"seconds_best\": {sec:.6}, \"ns_per_edge\": {ns:.3} }}"
            ));
            out.push_str(if j + 1 < row.engines.len() { ",\n" } else { "\n" });
        }
        out.push_str("      },\n");
        let (best_name, best_ns) = row.best();
        out.push_str(&format!(
            "      \"best\": {{ \"engine\": \"{best_name}\", \"ns_per_edge\": {best_ns:.3} }},\n"
        ));
        out.push_str(&format!(
            "      \"auto\": {{ \"pick\": \"{}\", \"ns_per_edge\": {:.3}, \
             \"gap_vs_best_pct\": {:.2} }}\n",
            row.auto_pick,
            row.ns_of(row.auto_pick),
            row.auto_gap_pct()
        ));
        out.push_str("    }");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let max_gap = rows.iter().map(EngineMatrixRow::auto_gap_pct).fold(0.0f64, f64::max);
    let rmat_speedup = rows
        .iter()
        .filter(|r| r.key.starts_with("rmat"))
        .map(|r| r.ns_of("pull") / r.ns_of("pb"))
        .fold(f64::INFINITY, f64::min);
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"max_auto_gap_pct\": {max_gap:.2},\n"));
    out.push_str(&format!(
        "    \"min_rmat_binned_vs_pull_speedup\": {rmat_speedup:.3}\n  }}\n}}\n"
    ));
    out
}

/// Engine-matrix acceptance: `auto` within `gate_pct` of the best fixed
/// engine on every dataset, and the binned engine (pb) beating
/// plain pull on every skewed cache-thrashing rmat dataset. Returns the
/// failure messages (empty = pass).
fn check_engine_gate(rows: &[EngineMatrixRow], gate_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let gap = row.auto_gap_pct();
        // NaN (no measurement) must fail the gate, not sneak past it.
        if gap.is_nan() || gap > gate_pct {
            failures.push(format!(
                "{}: auto picked {} at {:.3} ns/edge, {:.1}% over best {} ({:.3}); limit {}%",
                row.key,
                row.auto_pick,
                row.ns_of(row.auto_pick),
                gap,
                row.best().0,
                row.best().1,
                gate_pct
            ));
        }
        if row.key.starts_with("rmat") {
            let pull = row.ns_of("pull");
            let pb = row.ns_of("pb");
            if pb.is_nan() || pull.is_nan() || pb >= pull {
                failures.push(format!(
                    "{}: pb ({pb:.3} ns/edge) does not beat plain pull ({pull:.3})",
                    row.key
                ));
            }
        }
    }
    failures
}

/// A/B of the iHTL kernel with tracing idle vs enabled, on the smallest
/// suite graph. Returns the overhead in percent (negative = noise in the
/// traced run's favour). Uses best-of-samples on both sides, so one-sided
/// interference does not masquerade as tracing cost.
fn trace_overhead_pct(samples: usize) -> f64 {
    let ds = &SUITE[0];
    let edges = rmat_edges(ds.scale, ds.target_edges, RmatParams::social(), ds.seed);
    let g = Graph::from_edges(1usize << ds.scale, &edges);
    let n = g.n_vertices();
    let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 + 0.5).collect();
    let mut y = vec![0.0f64; n];
    let ih = IhtlGraph::build(&g, &IhtlConfig::default());
    let x_new = ih.to_new_order(&x);
    let mut bufs = ih.new_buffers();
    let off = time_best(samples, || {
        let _ = ih.spmv::<Add>(&x_new, &mut y, &mut bufs);
    });
    let on_guard = ihtl_trace::enable();
    let on = time_best(samples, || {
        let _ = ih.spmv::<Add>(&x_new, &mut y, &mut bufs);
    });
    drop(on_guard);
    eprintln!("[bench_spmv] trace A/B on {}: idle {:.6}s, enabled {:.6}s", ds.key, off, on);
    (on / off - 1.0) * 100.0
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0f64, 0usize);
    for v in vals {
        log_sum += v.ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Pulls `"name": <number>` out of our own JSON format (no general parser
/// needed: the schema is fixed and written by this binary).
fn extract_number(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))?;
    rest[..end].parse().ok()
}

fn render_json(
    results: &[DatasetResult],
    samples: usize,
    baseline: Option<&str>,
    trace_overhead: Option<f64>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ihtl-bench-spmv/v1\",\n");
    let unix =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs();
    out.push_str(&format!("  \"generated_unix\": {unix},\n"));
    out.push_str(&format!("  \"threads\": {},\n", ihtl_parallel::num_threads()));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"datasets\": [\n");
    for (i, ds) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"key\": \"{}\",\n", ds.key));
        out.push_str(&format!("      \"n_vertices\": {},\n", ds.n_vertices));
        out.push_str(&format!("      \"n_edges\": {},\n", ds.n_edges));
        out.push_str("      \"kernels\": {\n");
        for (j, k) in ds.kernels.iter().enumerate() {
            out.push_str(&format!("        \"{}\": {{\n", k.name));
            out.push_str(&format!("          \"seconds_best\": {:.6},\n", k.seconds_best));
            out.push_str(&format!("          \"ns_per_edge\": {:.3}", k.ns_per_edge));
            if let Some((fb, merge, pull)) = k.phases {
                out.push_str(",\n          \"phases_mean_seconds\": {\n");
                out.push_str(&format!("            \"fb\": {fb:.6},\n"));
                out.push_str(&format!("            \"merge\": {merge:.6},\n"));
                out.push_str(&format!("            \"pull\": {pull:.6}\n"));
                out.push_str("          },\n");
                let total = fb + merge + pull;
                let frac = if total > 0.0 { merge / total } else { 0.0 };
                out.push_str(&format!("          \"merge_fraction\": {frac:.4}\n"));
            } else {
                out.push('\n');
            }
            out.push_str("        }");
            out.push_str(if j + 1 < ds.kernels.len() { ",\n" } else { "\n" });
        }
        out.push_str("      }\n");
        out.push_str("    }");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    let ihtl_geo =
        geomean(results.iter().flat_map(|d| {
            d.kernels.iter().filter(|k| k.name == "ihtl_spmv").map(|k| k.ns_per_edge)
        }));
    let pr_geo = geomean(results.iter().flat_map(|d| {
        d.kernels.iter().filter(|k| k.name == "pagerank_ihtl_iter").map(|k| k.ns_per_edge)
    }));
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"ihtl_spmv_ns_per_edge_geomean\": {ihtl_geo:.3},\n"));
    out.push_str(&format!("    \"pagerank_ihtl_ns_per_edge_geomean\": {pr_geo:.3}"));
    if let Some(pct) = trace_overhead {
        out.push_str(&format!(",\n    \"trace_overhead_pct\": {pct:.2}"));
    }
    if let Some(base) = baseline {
        if let Some(base_geo) = extract_number(base, "ihtl_spmv_ns_per_edge_geomean") {
            if ihtl_geo > 0.0 {
                out.push_str(&format!(
                    ",\n    \"ihtl_spmv_speedup_vs_baseline\": {:.3}",
                    base_geo / ihtl_geo
                ));
            }
        }
    }
    out.push_str("\n  }");
    if let Some(base) = baseline {
        out.push_str(",\n  \"baseline\": ");
        // Re-indent the embedded document two spaces so the file stays
        // readable; it is already valid JSON.
        let indented: String = base
            .trim_end()
            .lines()
            .enumerate()
            .map(|(i, l)| if i == 0 { l.to_string() } else { format!("  {l}") })
            .collect::<Vec<_>>()
            .join("\n");
        out.push_str(&indented);
    }
    out.push_str("\n}\n");
    out
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "out",
        value: Some("PATH"),
        help: "output JSON path (default results/BENCH_spmv.json)",
    },
    FlagSpec {
        name: "baseline",
        value: Some("PATH"),
        help: "seed capture to embed and compute speedups against",
    },
    FlagSpec { name: "samples", value: Some("N"), help: "timing samples per kernel (default 7)" },
    FlagSpec {
        name: "max-regress",
        value: Some("PCT"),
        help: "fail if iHTL ns/edge geomean regresses more than PCT% vs the baseline",
    },
    FlagSpec {
        name: "trace-ab",
        value: None,
        help: "measure tracing-enabled vs idle kernel cost (summary trace_overhead_pct)",
    },
    FlagSpec {
        name: "spmm",
        value: None,
        help: "also run the batched SpMM A/B (K=1/2/4/8 columns per sweep)",
    },
    FlagSpec {
        name: "spmm-out",
        value: Some("PATH"),
        help: "batched A/B output path (default results/BENCH_spmm.json)",
    },
    FlagSpec {
        name: "engines",
        value: None,
        help: "run the three-engine A/B matrix (pull/ihtl/pb + auto pick)",
    },
    FlagSpec {
        name: "engines-out",
        value: Some("PATH"),
        help: "engine matrix output path (default results/BENCH_engines.json)",
    },
    FlagSpec {
        name: "engines-gate",
        value: Some("PCT"),
        help: "fail unless auto is within PCT% of the best fixed engine everywhere \
               and pb beats pull on the rmat datasets",
    },
];

fn main() {
    let args = parse_or_exit("bench_spmv", "[options]", FLAGS, std::env::args().skip(1));
    let out_path = args.get_or("out", "results/BENCH_spmv.json").to_string();
    let samples = match args.get_usize("samples", 7) {
        Ok(n) if n > 0 => n,
        Ok(_) => {
            eprintln!("error: --samples must be at least 1");
            std::process::exit(2);
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let max_regress = match args.get("max-regress") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(pct) if pct >= 0.0 => Some(pct),
            _ => {
                eprintln!("error: --max-regress expects a non-negative percentage, got '{v}'");
                std::process::exit(2);
            }
        },
    };
    let baseline = args.get("baseline").and_then(|p| std::fs::read_to_string(p).ok());
    let results: Vec<DatasetResult> = SUITE.iter().map(|d| bench_dataset(d, samples)).collect();
    let overhead = args.has("trace-ab").then(|| trace_overhead_pct(samples));
    let json = render_json(&results, samples, baseline.as_deref(), overhead);
    std::fs::write(&out_path, &json).expect("writing results JSON");
    eprintln!("[bench_spmv] wrote {out_path}");
    print!("{json}");

    if let Some(pct) = max_regress {
        // The summary block precedes the embedded baseline document, so the
        // first occurrence of the key is always the live number.
        let live = extract_number(&json, "ihtl_spmv_ns_per_edge_geomean");
        let base =
            baseline.as_deref().and_then(|b| extract_number(b, "ihtl_spmv_ns_per_edge_geomean"));
        match (live, base) {
            (Some(live), Some(base)) if base > 0.0 => {
                let delta = (live / base - 1.0) * 100.0;
                if delta > pct {
                    eprintln!(
                        "error: iHTL SpMV regressed {delta:.1}% vs baseline \
                         ({live:.3} vs {base:.3} ns/edge, limit {pct}%)"
                    );
                    std::process::exit(1);
                }
                eprintln!("[bench_spmv] regression gate: {delta:+.1}% vs baseline (limit {pct}%)");
            }
            _ => {
                eprintln!("error: --max-regress needs a readable --baseline with a geomean");
                std::process::exit(2);
            }
        }
    }

    if args.has("engines") || args.get("engines-gate").is_some() {
        let engines_out = args.get_or("engines-out", "results/BENCH_engines.json").to_string();
        let gate = match args.get("engines-gate") {
            None => None,
            Some(v) => match v.parse::<f64>() {
                Ok(pct) if pct >= 0.0 => Some(pct),
                _ => {
                    eprintln!("error: --engines-gate expects a non-negative percentage, got '{v}'");
                    std::process::exit(2);
                }
            },
        };
        let rows: Vec<EngineMatrixRow> = engine_suite(samples)
            .iter()
            .map(|(key, g)| bench_engine_matrix(key, g, samples))
            .collect();
        let ejson = render_engines_json(&rows, samples);
        std::fs::write(&engines_out, &ejson).expect("writing engine matrix JSON");
        eprintln!("[bench_spmv] wrote {engines_out}");
        if let Some(pct) = gate {
            let failures = check_engine_gate(&rows, pct);
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("error: engine gate: {f}");
                }
                std::process::exit(1);
            }
            eprintln!("[bench_spmv] engine gate: auto within {pct}% of best on every dataset");
        }
    }

    if args.has("spmm") {
        let spmm_out = args.get_or("spmm-out", "results/BENCH_spmm.json").to_string();
        // Two datasets keep the A/B fast; the K sweep is the experiment.
        let spmm_results: Vec<SpmmResult> =
            SUITE[..2].iter().map(|d| bench_spmm(d, samples)).collect();
        let sjson = render_spmm_json(&spmm_results, samples);
        std::fs::write(&spmm_out, &sjson).expect("writing spmm results JSON");
        eprintln!("[bench_spmv] wrote {spmm_out}");
        if max_regress.is_some() {
            // Batched execution must actually pay for itself: the amortized
            // per-query cost at K=8 has to beat the solo kernel somewhere.
            let best = spmm_results.iter().map(spmm_k8_speedup).fold(0.0f64, f64::max);
            if best <= 1.0 {
                eprintln!(
                    "error: batched SpMM at K=8 is not cheaper per query than K=1 on any \
                     dataset (best speedup {best:.3}x)"
                );
                std::process::exit(1);
            }
            eprintln!("[bench_spmv] spmm gate: best K=8 vs K=1 speedup {best:.3}x");
        }
    }
}
