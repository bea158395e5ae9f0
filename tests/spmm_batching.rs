//! Batched multi-query (SpMM) execution equals K solo runs, bitwise.
//!
//! Seeded property tests over random and hub-skewed graphs: the K-column
//! drivers in `ihtl_apps::multi` must demux into exactly the bits a solo
//! run of each column would produce. Per the determinism doctrine
//! (tests/determinism.rs): SSSP uses `min` — exact on any values — so it
//! is checked on every engine; PageRank performs non-integer additions, so
//! its bitwise claim holds on the schedule-independent pull engine;
//! iterated SpMV sums use integer-valued inputs (where f64 addition is
//! exact) and are checked on every engine.

mod common;

use common::{hubby_graph, random_graph, run_cases};
use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::spmv::spmv_iterations;
use ihtl_apps::sssp::sssp;
use ihtl_apps::{
    pagerank, pagerank_multi, pagerank_seeded, run_job, run_job_multi, spmv_sum_multi, sssp_multi,
    JobSpec,
};
use ihtl_core::IhtlConfig;
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_graph::Graph;

/// Forces a hub/sparse mix and several flipped blocks on small graphs.
fn cfg() -> IhtlConfig {
    IhtlConfig { cache_budget_bytes: 256, ..IhtlConfig::default() }
}

fn assert_bitwise(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: index {i}: {x} vs {y}");
    }
}

#[test]
fn sssp_multi_is_bitwise_equal_to_solo_on_every_engine() {
    run_cases(6, 0x55_2026, |rng, case| {
        let g = hubby_graph(rng);
        let n = g.n_vertices();
        for kind in EngineKind::all() {
            for k in [1usize, 2, 3, 4, 5, 8, 9] {
                let sources: Vec<u32> = (0..k).map(|_| rng.gen_index(n) as u32).collect();
                let mut e = build_engine(kind, &g, &cfg());
                let multi = sssp_multi(e.as_mut(), &sources, 32);
                for (j, &s) in sources.iter().enumerate() {
                    let mut solo_e = build_engine(kind, &g, &cfg());
                    let solo = sssp(solo_e.as_mut(), s, 32);
                    let label = format!("case {case} {kind:?} k={k} col {j}");
                    assert_bitwise(&multi[j].0, &solo.dist, &label);
                    assert_eq!(multi[j].1, solo.rounds, "rounds: {label}");
                }
            }
        }
    });
}

#[test]
fn pagerank_multi_mixed_seed_columns_are_bitwise_solo_on_pull() {
    run_cases(6, 0x77_2026, |rng, case| {
        let g = random_graph(rng, 60, 240);
        let n = g.n_vertices();
        for k in [1usize, 2, 3, 4, 5, 8, 9] {
            // Odd columns are personalized (seeded teleport), even columns
            // classic uniform PageRank — one sweep serves both kinds.
            let seeds: Vec<Option<u32>> =
                (0..k).map(|j| (j % 2 == 1).then(|| rng.gen_index(n) as u32)).collect();
            let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
            let multi = pagerank_multi(e.as_mut(), 10, &seeds);
            for (j, seed) in seeds.iter().enumerate() {
                let mut solo_e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
                let solo = match seed {
                    None => pagerank(solo_e.as_mut(), 10).ranks,
                    Some(_) => pagerank_seeded(solo_e.as_mut(), 10, *seed),
                };
                assert_bitwise(&multi[j], &solo, &format!("case {case} k={k} col {j}"));
            }
        }
    });
}

#[test]
fn spmv_sum_multi_matches_solo_iterations_on_every_engine() {
    run_cases(6, 0x99_2026, |rng, case| {
        let g = hubby_graph(rng);
        let n = g.n_vertices();
        for kind in EngineKind::all() {
            for k in [1usize, 2, 3, 4, 5, 8, 9] {
                // Every third column starts from a single-vertex indicator,
                // the rest from all-ones — both integer-valued.
                let sources: Vec<Option<u32>> =
                    (0..k).map(|j| (j % 3 == 2).then(|| rng.gen_index(n) as u32)).collect();
                let mut e = build_engine(kind, &g, &cfg());
                let multi = spmv_sum_multi(e.as_mut(), 4, &sources);
                for (j, source) in sources.iter().enumerate() {
                    let x0: Vec<f64> = match source {
                        None => vec![1.0; n],
                        Some(s) => {
                            let mut v = vec![0.0; n];
                            v[*s as usize] = 1.0;
                            v
                        }
                    };
                    let mut solo_e = build_engine(kind, &g, &cfg());
                    let solo = spmv_iterations(solo_e.as_mut(), &x0, 4);
                    let label = format!("case {case} {kind:?} k={k} col {j}");
                    assert_bitwise(&multi[j], &solo.values, &label);
                }
            }
        }
    });
}

/// Batched columns through the binned push engine on all three generator
/// families. PB replays contributions in pull's reduction order, so its
/// batched PageRank columns equal solo *pull* runs bitwise even on
/// non-integer values — the claim crosses the batching and the engine
/// boundary at once.
#[test]
fn pb_multi_demux_bitwise_on_generated_graphs() {
    use ihtl_gen::{er, weblike};
    let rmat = rmat_edges(10, 6_000, RmatParams::social(), 0xB1_2026);
    let erg = er::er_edges(800, 4_800, 0xB2_2026);
    let web = weblike::web_edges(2_000, 10_000, &weblike::WebParams::concentrated(), 0xB3_2026);
    let graphs = [
        ("rmat", Graph::from_edges(1usize << 10, &rmat)),
        ("er", Graph::from_edges(800, &erg)),
        ("weblike", Graph::from_edges(2_000, &web)),
    ];
    for (name, g) in &graphs {
        let n = g.n_vertices();
        for k in [1usize, 2, 3, 4, 5, 8, 9] {
            let seeds: Vec<Option<u32>> =
                (0..k).map(|j| (j % 2 == 1).then_some((j * 13 % n) as u32)).collect();
            let mut e = build_engine(EngineKind::Pb, g, &cfg());
            let multi = pagerank_multi(e.as_mut(), 10, &seeds);
            for (j, seed) in seeds.iter().enumerate() {
                let mut solo_e = build_engine(EngineKind::PullGraphGrind, g, &cfg());
                let solo = match seed {
                    None => pagerank(solo_e.as_mut(), 10).ranks,
                    Some(_) => pagerank_seeded(solo_e.as_mut(), 10, *seed),
                };
                assert_bitwise(&multi[j], &solo, &format!("{name} pb k={k} col {j}"));
            }
        }
    }
}

/// The job layer on a real R-MAT graph: a K=8 coalesced SSSP batch demuxes
/// into exactly the outputs of eight solo `run_job` calls.
#[test]
fn run_job_multi_k8_on_rmat_matches_solo_jobs() {
    let edges = rmat_edges(11, 8_000, RmatParams::social(), 7);
    let g = Graph::from_edges(1usize << 11, &edges);
    let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
    let specs: Vec<JobSpec> =
        (0..8u32).map(|s| JobSpec::Sssp { source: s * 17, max_rounds: 24 }).collect();
    let batched = run_job_multi(e.as_mut(), &specs);
    assert_eq!(batched.len(), 8);
    for (spec, b) in specs.iter().zip(&batched) {
        let b = b.as_ref().expect("batched job must succeed");
        let mut solo_e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let solo = run_job(solo_e.as_mut(), None, spec).expect("solo job must succeed");
        assert_bitwise(&b.values, &solo.values, &spec.canonical());
        assert_eq!(b.rounds, solo.rounds, "{}", spec.canonical());
    }
}
