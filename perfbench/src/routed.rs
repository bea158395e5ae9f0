//! `routed-pagerank`: PageRank jobs through `ihtl-router` fronting two
//! shard workers, each a separate `ihtl-serve` process with
//! `IHTL_THREADS=1`, as deployed. An unsharded worker answers the same job
//! as the single-node reference; routed results must be bitwise-equal.

use std::time::Instant;

use ihtl_serve::Json;

use crate::inputs::{derive_seed, rmat_image};
use crate::report::{count_above, quantile, Report};
use crate::wire::{counter, pagerank_job, register_image, Conn, Proc};
use crate::{Ctx, SETUP_REPS};

const DATASET: (&str, u32, usize) = ("s16", 16, 8 << 16);
/// A graph whose `sweep` request line exceeds the worker's 1 MiB
/// `max_line_bytes`: a routed job on it fails today.
const OVERSIZE: (&str, u32, usize) = ("s17", 17, 8 << 17);
const WORKERS: usize = 2;
const ENGINE: &str = "pull_grind";
const ITERS: u64 = 10;
const TOP_K: u64 = 10;
/// Single-node reference jobs per run.
const REFERENCE_JOBS: usize = 5;
/// Direct `sweep` calls timed in the traced pass.
const SWEEPS: usize = 10;

struct Fleet {
    workers: Vec<Proc>,
    router: Proc,
}

impl Fleet {
    fn boot(ctx: &Ctx) -> Result<Fleet, String> {
        let serve = ctx.bin_dir.join("ihtl-serve");
        let workers: Vec<Proc> = (0..WORKERS)
            .map(|_| Proc::spawn(&serve, &[], &ctx.run_dir, Some(1)))
            .collect::<Result<_, _>>()?;
        let list: Vec<String> = workers.iter().map(|w| format!("127.0.0.1:{}", w.port)).collect();
        let args = ["--workers".to_string(), list.join(",")];
        let router = Proc::spawn(&ctx.bin_dir.join("ihtl-router"), &args, &ctx.run_dir, Some(1))?;
        Ok(Fleet { workers, router })
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut sum = self.router.peak_rss_mb()?;
        for w in &self.workers {
            sum += w.peak_rss_mb()?;
        }
        Ok(sum)
    }
}

fn job() -> Json {
    pagerank_job(DATASET.0, ENGINE, ITERS, None, TOP_K, true)
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let image = rmat_image(&ctx.cache_dir, DATASET.1, DATASET.2, derive_seed(ctx.seed, DATASET.0))?;
    let oversize =
        rmat_image(&ctx.cache_dir, OVERSIZE.1, OVERSIZE.2, derive_seed(ctx.seed, OVERSIZE.0))?;
    rep.context("gen_s", image.gen_s + oversize.gen_s);
    let mut trace_guard = ctx.trace.then(ihtl_trace::enable);

    let (mut setup, mut register) = (Vec::new(), Vec::new());
    let mut fleet = None;
    let mut n_vertices = 0;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let f = Fleet::boot(ctx)?;
        let mut c = Conn::connect(f.router.port)?;
        let t0 = Instant::now();
        let reg = {
            let _s = ihtl_trace::span("router.register");
            c.call_json(&register_image(DATASET.0, &image.path))?.expect_ok("routed register")?
        };
        let t1 = t0.elapsed().as_secs_f64();
        // Warm-up: one single-sweep job builds each worker's engine.
        c.call_json(&pagerank_job(DATASET.0, ENGINE, 1, None, 0, true))?
            .expect_ok("warm-up job")?;
        setup.push(t0.elapsed().as_secs_f64());
        register.push(t1);
        n_vertices = reg.f64("n_vertices").unwrap_or(0.0) as usize;
        fleet = Some(f);
    }
    let fleet = fleet.ok_or("no set-up repetition ran")?;
    rep.context("n_vertices", n_vertices);

    let reference = Proc::spawn(&ctx.bin_dir.join("ihtl-serve"), &[], &ctx.run_dir, Some(1))?;
    let expected = {
        let mut single = Conn::connect(reference.port)?;
        single
            .call_json(&register_image(DATASET.0, &image.path))?
            .expect_ok("reference register")?;
        single
            .call_json(&job())?
            .expect_ok("reference job")?
            .str("checksum")
            .unwrap_or("")
            .to_string()
    };

    let mut router = Conn::connect(fleet.router.port)?;
    let before = router.call(r#"{"op":"stats"}"#)?.expect_ok("router stats")?;
    // Closed loop over one connection. In the traced pass, tracing is
    // switched off for alternate quarters to measure its overhead.
    let n_slices = if ctx.trace { 4 } else { 1 };
    let mut lat = Vec::new();
    let mut slices: Vec<crate::tracing::Slice> = Vec::new();
    let request = job().to_string();
    for k in 0..n_slices {
        let traced = ctx.trace && k % 2 == 0;
        crate::tracing::set(&mut trace_guard, traced);
        let secs = ctx.seconds / n_slices as f64;
        let start = Instant::now();
        let mut done = 0;
        while start.elapsed().as_secs_f64() < secs {
            let t = Instant::now();
            let reply = {
                let _s = ihtl_trace::span("router.job");
                router.call(&request)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rep.attempted += 1;
            match reply {
                Ok(r) if r.ok() => {
                    let sum = r.str("checksum").unwrap_or("");
                    rep.check(sum == expected, || {
                        format!("routed checksum {sum} != single-node {expected}")
                    });
                    lat.push(ms);
                    done += 1;
                }
                Ok(r) => {
                    rep.failed += 1;
                    rep.context("first_failure", r.error());
                }
                Err(e) => {
                    rep.failed += 1;
                    rep.context("first_failure", e);
                    router = Conn::connect(fleet.router.port)?;
                }
            }
        }
        slices.push((traced, done, start.elapsed().as_secs_f64()));
    }
    crate::tracing::set(&mut trace_guard, ctx.trace);
    let after = router.call(r#"{"op":"stats"}"#)?.expect_ok("router stats")?;
    if lat.is_empty() {
        return Err("no routed job completed".to_string());
    }

    // Fresh connections from here on: the ones opened before the loop
    // may have passed the servers' idle timeout.
    let mut single = Conn::connect(reference.port)?;
    let mut single_ms = Vec::new();
    for _ in 0..REFERENCE_JOBS {
        let t = Instant::now();
        let r = {
            let _s = ihtl_trace::span("router.single_node_job");
            single.call_json(&job())?
        };
        single_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rep.attempted += 1;
        if r.ok() {
            let sum = r.str("checksum").unwrap_or("");
            rep.check(sum == expected, || {
                format!("single-node checksum changed: {sum} != {expected}")
            });
        } else {
            rep.failed += 1;
        }
    }
    let peak = fleet.peak_rss_mb()?;
    crate::check_fingerprint(ctx, rep, &[format!("{} {ENGINE} {expected}", DATASET.0)])?;
    let oversize_failed = probe_oversize(fleet.router.port, &mut single, &oversize.path, rep)?;
    rep.context("oversize_probe_failed", oversize_failed);

    if !ctx.trace {
        rep.samples("setup_s", "s", setup);
        let (n, secs) = slices.iter().fold((0, 0.0), |(n, s), sl| (n + sl.1, s + sl.2));
        rep.value("rps", "1/s", n as f64 / secs);
        let p95 = quantile(&lat, 0.95);
        rep.context("p95_tail_samples", count_above(&lat, p95));
        rep.samples("p50_ms", "ms", lat);
        rep.value("p95_ms", "ms", p95);
        rep.value("peak_rss_mb", "MiB", peak);
        return Ok(());
    }

    rep.samples("router.register_s", "s", register);
    let single_p50 = quantile(&single_ms, 0.5);
    rep.samples("router.single_node_ms", "ms", single_ms);
    rep.value("router.overhead_x", "ratio", quantile(&lat, 0.5) / single_p50);
    let jobs = counter(&after, "jobs_completed") - counter(&before, "jobs_completed");
    let sweeps = counter(&after, "sweeps_fanned") - counter(&before, "sweeps_fanned");
    rep.value("router.sweeps_per_job", "count", sweeps / jobs.max(1.0));
    rep.value(
        "router.worker_retries",
        "count",
        counter(&after, "worker_retries") - counter(&before, "worker_retries"),
    );
    rep.value("router.oversize_failed", "count", f64::from(u8::from(oversize_failed)));

    // One `sweep` straight to worker 0, as the router sends it each round.
    let x = 1.0 / n_vertices.max(1) as f64;
    let sweep = Json::obj([
        ("op", Json::from("sweep")),
        ("dataset", Json::from(DATASET.0)),
        ("engine", Json::from(ENGINE)),
        ("monoid", Json::from("add")),
        ("view", Json::from("raw")),
        ("xbits", Json::Arr(vec![Json::from(x.to_bits()); n_vertices])),
    ])
    .to_string();
    let mut worker = Conn::connect(fleet.workers[0].port)?;
    let mut rtt = Vec::new();
    let mut reply_bytes = 0;
    for _ in 0..SWEEPS {
        let t = Instant::now();
        let r = {
            let _s = ihtl_trace::span("router.sweep");
            worker.call(&sweep)?
        };
        rtt.push(t.elapsed().as_secs_f64() * 1e3);
        rep.attempted += 1;
        reply_bytes = r.bytes;
        if !r.ok() {
            rep.failed += 1;
        }
    }
    rep.samples("router.sweep_rtt_ms", "ms", rtt);
    rep.value("router.sweep_request_bytes", "B", (sweep.len() + 1) as f64);
    rep.value("router.sweep_reply_bytes", "B", reply_bytes as f64);

    crate::tracing::record_slice_overhead(&slices, rep);
    let path = ctx.out_dir.join(format!("trace-routed-pagerank-seed{}.json", ctx.seed));
    crate::tracing::finish(&path, rep)
}

/// Sends one routed job on a dataset whose `sweep` line is over the
/// worker's line limit. Returns whether it failed. Should it succeed, its
/// checksum must equal the single-node result. It is kept out of
/// `attempted`/`failed` and the latency samples.
fn probe_oversize(
    router_port: u16,
    single: &mut Conn,
    image: &std::path::Path,
    rep: &mut Report,
) -> Result<bool, String> {
    let name = OVERSIZE.0;
    let routed = Conn::connect(router_port).and_then(|mut c| {
        c.call_json(&register_image(name, image))?.expect_ok("oversize register")?;
        c.call_json(&pagerank_job(name, ENGINE, ITERS, None, TOP_K, true))?
            .expect_ok("oversize job")
    });
    let routed = match routed {
        Ok(r) => r,
        Err(e) => {
            rep.context("oversize_probe_error", e);
            return Ok(true);
        }
    };
    single.call_json(&register_image(name, image))?.expect_ok("oversize reference register")?;
    let reference = single
        .call_json(&pagerank_job(name, ENGINE, ITERS, None, TOP_K, true))?
        .expect_ok("oversize reference")?;
    let (a, b) = (routed.str("checksum").unwrap_or(""), reference.str("checksum").unwrap_or(""));
    rep.check(a == b, || format!("oversize probe: routed {a} != single-node {b}"));
    Ok(false)
}
