//! `serve-ppr`: personalized PageRank requests against one `ihtl-serve`
//! with two registered R-MAT social datasets, as a closed loop (latency
//! and throughput); the traced pass adds an open loop of Poisson arrivals
//! at a fixed rate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ihtl_apps::{build_engine, pagerank_multi};
use ihtl_core::IhtlConfig;
use ihtl_gen::zipf::Zipf;
use ihtl_gen::Pcg64;
use ihtl_graph::stats::{engine_costs, engine_features_llc, pick_engine, EnginePick};
use ihtl_serve::proto::{engine_from_str, EngineChoice};
use ihtl_serve::{fnv1a_checksum, Server, ServerConfig, ServerHandle};

use crate::inputs::{derive_seed, rmat_image};
use crate::report::{count_above, quantile, Report};
use crate::wire::{counter, pagerank_job, register_image, Conn, Proc, Reply};
use crate::{Ctx, SETUP_REPS};

/// Registered datasets: name, R-MAT scale, edges, and requests per deal.
/// Requests are dealt in shuffled decks of 3 `s16` and 1 `s18`, so every
/// run has exactly the 3:1 popularity split and only the order varies.
const DATASETS: [(&str, u32, usize, usize); 2] = [("s16", 16, 8 << 16, 3), ("s18", 18, 8 << 18, 1)];
const ITERS: u64 = 10;
const TOP_K: u64 = 10;
/// Client connections. With two, the server holds at most two requests.
const CONNS: usize = 2;
/// Closed-loop requests per run at least, so that at least ten samples
/// lie beyond p95.
const CLOSED_REQUESTS: usize = 220;
/// Open-loop arrival rate: about half the closed-loop rate of the
/// revision that defined the benchmark, fixed so runs stay comparable.
const OPEN_RATE: f64 = 7.5;
/// Open-loop requests in the traced pass; they give latency at that fixed
/// rate (`serve.open_*`), queueing and generator lateness.
const OPEN_REQUESTS: usize = 100;
/// Zipf exponent of seed-vertex popularity: skewed enough to repeat some
/// seeds, flat enough that cache hits stay a small minority.
const SEED_ALPHA: f64 = 0.5;
/// A fresh server runs its first seconds of load slowly; this much
/// closed-loop load precedes the measured phases and is not counted.
const WARM_SECS: f64 = 4.0;
/// Distinct (dataset, seed) replies recomputed in-process per run.
const VERIFY: usize = 6;
/// Latency given to a failed or refused request: beyond any limit.
const FAILED_MS: f64 = 1e9;

#[derive(Clone, Copy)]
struct Req {
    ds: usize,
    seed: u32,
}

/// One completed request, times in seconds since the phase start.
struct Done {
    /// Position of the request in its phase's schedule.
    idx: usize,
    req: Req,
    due: f64,
    send: f64,
    recv: f64,
    /// How late the generator sent a request it was free to send.
    late: f64,
    reply: Result<Reply, String>,
}

impl Done {
    fn ok(&self) -> Option<&Reply> {
        self.reply.as_ref().ok().filter(|r| r.ok())
    }

    fn latency_ms(&self) -> f64 {
        if self.ok().is_some() {
            (self.recv - self.due) * 1e3
        } else {
            FAILED_MS
        }
    }
}

/// The server under test: a separate process, or (traced pass) a server
/// in this process so its spans land in this process's trace.
enum Endpoint {
    Proc(Proc),
    InProc(ServerHandle),
}

impl Endpoint {
    fn boot(ctx: &Ctx) -> Result<Endpoint, String> {
        if ctx.trace {
            let server = Server::bind(ServerConfig::default())
                .map_err(|e| format!("binding server: {e}"))?;
            return Ok(Endpoint::InProc(
                server.spawn().map_err(|e| format!("starting server: {e}"))?,
            ));
        }
        Ok(Endpoint::Proc(Proc::spawn(&ctx.bin_dir.join("ihtl-serve"), &[], &ctx.run_dir, None)?))
    }

    fn port(&self) -> u16 {
        match self {
            Endpoint::Proc(p) => p.port,
            Endpoint::InProc(h) => h.addr().port(),
        }
    }

    fn stop(self) {
        if let Endpoint::InProc(h) = self {
            h.shutdown();
        }
    }
}

struct Workload {
    zipf: Vec<Zipf>,
    rng: Pcg64,
    deck: Vec<usize>,
}

impl Workload {
    fn draw(&mut self) -> Req {
        if self.deck.is_empty() {
            for (ds, d) in DATASETS.iter().enumerate() {
                self.deck.extend(std::iter::repeat_n(ds, d.3));
            }
            self.rng.shuffle(&mut self.deck);
        }
        let ds = self.deck.pop().unwrap_or(0);
        Req { ds, seed: self.zipf[ds].sample(&mut self.rng) as u32 }
    }

    fn request(req: Req) -> String {
        pagerank_job(DATASETS[req.ds].0, "auto", ITERS, Some(req.seed.into()), TOP_K, false)
            .to_string()
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut images = Vec::new();
    let mut zipf = Vec::new();
    let mut graphs = Vec::new();
    for &(name, scale, edges, _) in &DATASETS {
        let img = rmat_image(&ctx.cache_dir, scale, edges, derive_seed(ctx.seed, name))?;
        rep.context(&format!("gen_s.{name}"), img.gen_s);
        let g =
            ihtl_graph::io::load_graph(&img.path).map_err(|e| format!("loading {name}: {e}"))?;
        zipf.push(Zipf::new(g.n_vertices(), SEED_ALPHA));
        graphs.push(g);
        images.push(img.path);
    }
    let mut wl = Workload {
        zipf,
        rng: Pcg64::seed_from_u64(derive_seed(ctx.seed, "serve-ppr")),
        deck: Vec::new(),
    };
    let mut arrivals = Vec::with_capacity(OPEN_REQUESTS);
    let mut t = 0.0;
    for _ in 0..OPEN_REQUESTS {
        t += -(1.0 - wl.rng.next_f64()).ln() / OPEN_RATE;
        arrivals.push((t, wl.draw()));
    }
    let closed: Vec<Req> = (0..100_000).map(|_| wl.draw()).collect();
    let warm_reqs: Vec<Req> = (0..10_000).map(|_| wl.draw()).collect();

    let mut trace_guard = ctx.trace.then(ihtl_trace::enable);
    let (mut setup, mut register, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Endpoint::stop(s);
        }
        let s = Endpoint::boot(ctx)?;
        let mut c = Conn::connect(s.port())?;
        let t0 = Instant::now();
        for (i, img) in images.iter().enumerate() {
            c.call_json(&register_image(DATASETS[i].0, img))?.expect_ok("register")?;
        }
        let t1 = t0.elapsed().as_secs_f64();
        // Warm-up: one job per dataset resolves `auto` and builds the
        // engine it picks.
        for &(name, ..) in &DATASETS {
            c.call_json(&pagerank_job(name, "auto", ITERS, Some(0), TOP_K, true))?
                .expect_ok("warm-up job")?;
        }
        let t2 = t0.elapsed().as_secs_f64();
        setup.push(t2);
        register.push(t1);
        warm.push(t2 - t1);
        server = Some(s);
    }
    let server = server.ok_or("no set-up repetition ran")?;
    let port = server.port();
    // A fresh connection per `stats` call: an idle one would be closed.
    let stats = || Conn::connect(port)?.call(r#"{"op":"stats"}"#)?.expect_ok("stats");
    let before = stats()?;

    let warm_done = closed_loop(port, &warm_reqs, &AtomicUsize::new(0), WARM_SECS, 0)?;

    // Closed loop: each connection sends its next request when the
    // previous reply arrives, so a request is due when it is sent. In the
    // traced pass, tracing is switched off for alternate slices to measure
    // its overhead.
    let mut slices: Vec<crate::tracing::Slice> = Vec::new();
    let mut closed_done = Vec::new();
    let n_slices = if ctx.trace { 8 } else { 1 };
    let next = AtomicUsize::new(0);
    for k in 0..n_slices {
        let traced = ctx.trace && k % 2 == 0;
        crate::tracing::set(&mut trace_guard, traced);
        let secs = ctx.seconds / n_slices as f64;
        let done = closed_loop(port, &closed, &next, secs, CLOSED_REQUESTS.div_ceil(n_slices))?;
        let elapsed = done.iter().map(|d| d.recv).fold(secs, f64::max);
        slices.push((traced, done.iter().filter(|d| d.ok().is_some()).count(), elapsed));
        closed_done.extend(done);
    }
    crate::tracing::set(&mut trace_guard, ctx.trace);

    // Open loop (traced pass only): requests are due on a seeded Poisson
    // schedule; a request whose connections are both busy waits, and that
    // wait counts.
    let open = if !ctx.trace {
        Vec::new()
    } else {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let arrivals = &arrivals;
        phase(port, |conn, out| {
            let mut free_at = 0.0;
            loop {
                // ORDERING: Relaxed — a work counter; no data is published through it.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(due, req)) = arrivals.get(i) else { return };
                let now = start.elapsed().as_secs_f64();
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let send = start.elapsed().as_secs_f64();
                let reply = {
                    let _s = ihtl_trace::span("serve.request");
                    conn.call(&Workload::request(req))
                };
                let recv = start.elapsed().as_secs_f64();
                let late = send - due.max(free_at);
                free_at = recv;
                out.push(Done { idx: i, req, due, send, recv, late, reply });
            }
        })?
    };
    let after = stats()?;

    let all: Vec<&Done> = open.iter().chain(&closed_done).collect();
    let issued: Vec<&Done> = all.iter().copied().chain(&warm_done).collect();
    rep.attempted = issued.len() as u64;
    rep.failed = issued.iter().filter(|d| d.ok().is_none()).count() as u64;
    if let Some(d) = issued.iter().find(|d| d.ok().is_none()) {
        let err = d.reply.as_ref().map(Reply::error).unwrap_or_else(|e| e.clone());
        rep.context("first_failure", err);
    }
    let lat: Vec<f64> = closed_done.iter().map(Done::latency_ms).collect();
    let p95 = quantile(&lat, 0.95);
    rep.context("closed_requests", lat.len());
    rep.context("p95_tail_samples", count_above(&lat, p95));
    let cached = all.iter().filter(|d| d.ok().is_some_and(Reply::cached)).count();
    let ok_count = all.iter().filter(|d| d.ok().is_some()).count();
    let hit_ratio = cached as f64 / ok_count.max(1) as f64;
    rep.context("cache_hit_ratio", hit_ratio);

    verify(ctx, rep, &graphs, &closed_done)?;
    // Every measured request, so any latency can be explained afterwards:
    // [dataset, due, send, receive, server latency, compute] in ms.
    let rows = all
        .iter()
        .map(|d| {
            let f = |k: &str| d.ok().and_then(|r| r.f64(k)).unwrap_or(-1.0) * 1e3;
            let row = [
                d.req.ds as f64,
                d.due * 1e3,
                d.send * 1e3,
                d.recv * 1e3,
                f("latency_seconds"),
                f("compute_seconds"),
            ];
            ihtl_serve::Json::Arr(row.iter().map(|&x| ihtl_serve::Json::Num(x)).collect())
        })
        .collect();
    rep.context("requests", ihtl_serve::Json::Arr(rows));

    if !ctx.trace {
        rep.samples("setup_s", "s", setup);
        rep.samples("p50_ms", "ms", lat.clone());
        rep.value("p95_ms", "ms", p95);
        let (n, secs) = slices.iter().fold((0, 0.0), |(n, s), sl| (n + sl.1, s + sl.2));
        rep.value("rps", "1/s", n as f64 / secs);
        if let Endpoint::Proc(p) = &server {
            rep.value("peak_rss_mb", "MiB", p.peak_rss_mb()?);
        }
        server.stop();
        return Ok(());
    }

    // Per-layer numbers, read from reply fields and `stats` counters.
    rep.samples("serve.register_s", "s", register);
    rep.samples("serve.warm_s", "s", warm);
    let fresh: Vec<(&Done, &Reply)> =
        all.iter().filter_map(|d| Some((*d, d.ok()?))).filter(|(_, r)| !r.cached()).collect();
    if !fresh.is_empty() {
        let f = |key: &str, r: &Reply| r.f64(key).unwrap_or(0.0);
        let compute: Vec<f64> = fresh.iter().map(|(_, r)| f("compute_seconds", r) * 1e3).collect();
        let wait: Vec<f64> = fresh
            .iter()
            .map(|(_, r)| (f("latency_seconds", r) - f("compute_seconds", r)) * 1e3)
            .collect();
        let wire: Vec<f64> = fresh
            .iter()
            .map(|(d, r)| ((d.recv - d.send) - f("latency_seconds", r)) * 1e3)
            .collect();
        let batch_k: Vec<f64> = fresh.iter().map(|(_, r)| f("batch_k", r)).collect();
        rep.samples("serve.compute_ms", "ms", compute);
        rep.value("serve.wait_ms", "ms", quantile(&wait, 0.95));
        rep.samples("serve.wire_ms", "ms", wire);
        rep.value(
            "serve.batch_k_mean",
            "count",
            batch_k.iter().sum::<f64>() / batch_k.len() as f64,
        );
    }
    let open_lat: Vec<f64> = open.iter().map(Done::latency_ms).collect();
    let open_p90 = quantile(&open_lat, 0.9);
    rep.context("open_requests", open_lat.len());
    rep.context("open_rate_rps", OPEN_RATE);
    rep.context("open_p90_tail_samples", count_above(&open_lat, open_p90));
    let queue: Vec<f64> = open.iter().map(|d| (d.send - d.due) * 1e3).collect();
    rep.value("serve.client_queue_ms", "ms", quantile(&queue, 0.95));
    rep.value("serve.open_p50_ms", "ms", quantile(&open_lat, 0.5));
    rep.value("serve.open_p90_ms", "ms", open_p90);
    rep.value("serve.cache_hit_ratio", "ratio", hit_ratio);
    let bytes: Vec<f64> = all.iter().filter_map(|d| d.ok()).map(|r| r.bytes as f64).collect();
    if !bytes.is_empty() {
        rep.samples("serve.reply_bytes", "B", bytes);
    }
    for key in ["failed", "rejected_overloaded", "deadline_missed"] {
        rep.value(&format!("serve.{key}"), "count", counter(&after, key) - counter(&before, key));
    }
    // Served ns/edge over every engine that ran, weighted by edges; the
    // engines are named in the context lines.
    let engines = after.json.get("engines").and_then(|e| e.as_arr()).unwrap_or(&[]);
    let (mut ns, mut edges) = (0.0, 0.0);
    for e in engines {
        let field = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        ns += field("ns_per_edge") * field("edges");
        edges += field("edges");
        rep.context("served_engine", e.get("engine").and_then(|v| v.as_str()).unwrap_or("?"));
    }
    if edges > 0.0 {
        rep.value("serve.ns_per_edge", "ns", ns / edges);
    }
    let late: Vec<f64> = open.iter().map(|d| d.late.max(0.0) * 1e3).collect();
    rep.value("loadgen.late_ms", "ms", quantile(&late, 0.95));

    // The `auto` rule's inputs, computed from the same images the server
    // loaded, exactly as the registry computes them.
    let cfg = IhtlConfig::default();
    let (_, llc) = ihtl_parallel::cache_sizes();
    for (i, g) in graphs.iter().enumerate() {
        let name = DATASETS[i].0;
        let f = engine_features_llc(
            g,
            cfg.cache_budget_bytes,
            llc.max(cfg.cache_budget_bytes),
            cfg.vertex_data_bytes,
        );
        let threads = ihtl_parallel::num_threads();
        let pick = pick_engine(&f, threads);
        let idx = EnginePick::ALL.iter().position(|&p| p == pick).unwrap_or(0);
        rep.value(&format!("graph.auto_pick.{name}"), "index", idx as f64);
        for (engine, cost) in engine_costs(&f, threads) {
            if cost.is_finite() {
                rep.value(
                    &format!("graph.auto_cost.{name}.{}", engine.wire_name()),
                    "miss/edge",
                    cost,
                );
            }
        }
    }

    crate::tracing::record_slice_overhead(&slices, rep);
    server.stop();
    let path = ctx.out_dir.join(format!("trace-serve-ppr-seed{}.json", ctx.seed));
    crate::tracing::finish(&path, rep)
}

/// Every connection sends its next request from `reqs` as soon as the
/// previous reply arrives, for `secs` seconds and `min` requests at least.
fn closed_loop(
    port: u16,
    reqs: &[Req],
    next: &AtomicUsize,
    secs: f64,
    min: usize,
) -> Result<Vec<Done>, String> {
    let start = Instant::now();
    let sent = AtomicUsize::new(0);
    phase(port, |conn, out| {
        loop {
            // ORDERING: Relaxed — a work counter; no data is published through it.
            let k = sent.fetch_add(1, Ordering::Relaxed);
            if k >= min && start.elapsed().as_secs_f64() >= secs {
                return;
            }
            // ORDERING: Relaxed — a work counter; no data is published through it.
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let req = reqs[idx % reqs.len()];
            let send = start.elapsed().as_secs_f64();
            let reply = {
                let _s = ihtl_trace::span("serve.request");
                conn.call(&Workload::request(req))
            };
            let recv = start.elapsed().as_secs_f64();
            out.push(Done { idx, req, due: send, send, recv, late: 0.0, reply });
        }
    })
}

/// Runs one client thread per connection and gathers what they completed.
fn phase<F>(port: u16, client: F) -> Result<Vec<Done>, String>
where
    F: Fn(&mut Conn, &mut Vec<Done>) + Sync,
{
    let conns: Vec<Conn> = (0..CONNS).map(|_| Conn::connect(port)).collect::<Result<_, _>>()?;
    let client = &client;
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    client(&mut conn, &mut out);
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
    });
    Ok(all)
}

/// Checks served checksums: every reply for one (dataset, seed) carries the
/// same checksum, and the first `VERIFY` distinct queries of the schedule
/// equal an in-process `pagerank_multi` over the same image with the engine
/// the server reported in `engine_selected`.
fn verify(
    ctx: &Ctx,
    rep: &mut Report,
    graphs: &[ihtl_graph::graph::Graph],
    done: &[Done],
) -> Result<(), String> {
    let mut seen: HashMap<(usize, u32), String> = HashMap::new();
    let mut in_order: Vec<&Done> = done.iter().collect();
    in_order.sort_by_key(|d| d.idx);
    let mut checked: Vec<(Req, String, String)> = Vec::new();
    for d in &in_order {
        let Some(r) = d.ok() else { continue };
        let sum = r.str("checksum").unwrap_or("").to_string();
        let key = (d.req.ds, d.req.seed);
        match seen.get(&key) {
            Some(prev) => {
                rep.check(*prev == sum, || format!("{key:?}: replies disagree ({prev} vs {sum})"))
            }
            None => {
                seen.insert(key, sum.clone());
                if checked.len() < VERIFY {
                    checked.push((d.req, r.str("engine_selected").unwrap_or("").to_string(), sum));
                }
            }
        }
    }
    let cfg = IhtlConfig::default();
    let mut fp = Vec::new();
    for (req, engine, served) in &checked {
        let Ok(EngineChoice::Fixed(kind)) = engine_from_str(engine) else {
            rep.check(false, || format!("reply names unknown engine '{engine}'"));
            continue;
        };
        let mut e = build_engine(kind, &graphs[req.ds], &cfg);
        let expect =
            fnv1a_checksum(&pagerank_multi(e.as_mut(), ITERS as usize, &[Some(req.seed)])[0]);
        let name = DATASETS[req.ds].0;
        rep.check(*served == expect, || {
            format!("{name} seed {}: served {served}, in-process {engine} gives {expect}", req.seed)
        });
        fp.push(format!("{name} seed {} {engine} {expect}", req.seed));
    }
    rep.context("verified_replies", checked.len());
    crate::check_fingerprint(ctx, rep, &fp)
}
