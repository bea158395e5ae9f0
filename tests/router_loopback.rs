//! Loopback integration tests for sharded serving (DESIGN.md §14): a
//! placement router fronting in-process `ihtl-serve` shard workers.
//!
//! The load-bearing property is *bitwise* equality: a job routed across
//! shard workers and merged by ownership selection must produce exactly
//! the single-node result (same FNV checksum over the f64 bit patterns)
//! for every engine whose row fold preserves the full graph's CSC row
//! order (`pull_grind`, `pb`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use ihtl_router::{Router, RouterConfig, RouterHandle};
use ihtl_serve::{Json, Server, ServerConfig, ServerHandle};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let s = TcpStream::connect(addr).unwrap();
        Client { reader: BufReader::new(s.try_clone().unwrap()), writer: s }
    }

    fn call(&mut self, req: &str) -> Json {
        // One write per line, like every client on this wire.
        self.writer.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Json::parse(&line).unwrap_or_else(|e| panic!("unparseable reply to {req}: {e}: {line}"))
    }

    fn ok(&mut self, req: &str) -> Json {
        let reply = self.call(req);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok reply to {req}, got {reply}"
        );
        reply
    }

    fn err(&mut self, req: &str) -> String {
        let reply = self.call(req);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "expected error reply to {req}, got {reply}"
        );
        reply.get("error").and_then(Json::as_str).unwrap().to_string()
    }
}

fn spawn_workers(count: usize) -> Vec<ServerHandle> {
    spawn_workers_with(count, ServerConfig::default())
}

fn spawn_workers_with(count: usize, cfg: ServerConfig) -> Vec<ServerHandle> {
    (0..count).map(|_| Server::bind(cfg.clone()).unwrap().spawn().unwrap()).collect()
}

fn spawn_router(workers: &[ServerHandle]) -> RouterHandle {
    let cfg = RouterConfig {
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        ..RouterConfig::default()
    };
    Router::bind(cfg).unwrap().spawn().unwrap()
}

fn rmat_source(seed: u64) -> String {
    format!("{{\"type\":\"rmat\",\"scale\":9,\"edges\":6000,\"seed\":{seed}}}")
}

/// Checksums from the router (sharded) and from a single worker serving
/// the full dataset must be bitwise identical for order-preserving
/// engines, across analytics and datasets.
#[test]
fn sharded_jobs_match_single_node_bitwise() {
    let workers = spawn_workers(3);
    let router = spawn_router(&workers);
    let mut rc = Client::connect(router.addr());
    // The single-node reference lives on worker 0 under a different name;
    // the exact same wire path computes it, minus the sharding.
    let mut wc = Client::connect(workers[0].addr());
    for (ds, seed) in [("g42", 42u64), ("g7", 7u64)] {
        let reply = rc.ok(&format!(
            "{{\"op\":\"register\",\"name\":\"{ds}\",\"source\":{}}}",
            rmat_source(seed)
        ));
        assert_eq!(reply.get("shards").and_then(Json::as_u64), Some(3), "{reply}");
        assert!(reply.get("n_vertices").and_then(Json::as_u64).unwrap() > 0, "{reply}");
        wc.ok(&format!(
            "{{\"op\":\"register\",\"name\":\"{ds}-full\",\"source\":{}}}",
            rmat_source(seed)
        ));
        for engine in ["pull_grind", "pb"] {
            for job in [
                "\"kind\":\"pagerank\",\"iters\":10",
                "\"kind\":\"pagerank\",\"iters\":10,\"seed\":3",
                "\"kind\":\"spmv\",\"iters\":5",
                "\"kind\":\"sssp\",\"source\":3,\"max_rounds\":64",
                "\"kind\":\"cc\",\"max_rounds\":64",
            ] {
                let routed = rc.ok(&format!(
                    "{{\"op\":\"job\",\"dataset\":\"{ds}\",\"engine\":\"{engine}\",{job}}}"
                ));
                let solo = wc.ok(&format!(
                    "{{\"op\":\"job\",\"dataset\":\"{ds}-full\",\"engine\":\"{engine}\",{job}}}"
                ));
                let routed_sum = routed.get("checksum").and_then(Json::as_str).unwrap();
                let solo_sum = solo.get("checksum").and_then(Json::as_str).unwrap();
                assert_eq!(
                    routed_sum, solo_sum,
                    "checksum mismatch: {ds} {engine} {job}\nrouted: {routed}\nsolo: {solo}"
                );
                assert_eq!(
                    routed.get("rounds").and_then(Json::as_u64),
                    solo.get("rounds").and_then(Json::as_u64),
                    "round mismatch: {ds} {engine} {job}"
                );
            }
        }
    }
    // Top-k rides through the router identically.
    let routed =
        rc.ok("{\"op\":\"job\",\"dataset\":\"g42\",\"engine\":\"pull_grind\",\"kind\":\"pagerank\",\"iters\":10,\"top_k\":5}");
    let solo =
        wc.ok("{\"op\":\"job\",\"dataset\":\"g42-full\",\"engine\":\"pull_grind\",\"kind\":\"pagerank\",\"iters\":10,\"top_k\":5}");
    assert_eq!(
        routed.get("top").map(|t| t.to_string()),
        solo.get("top").map(|t| t.to_string()),
        "top-5 vertices must match"
    );
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// Each worker's `register` reply and `list` carry the shard placement
/// fields, and the shard ranges partition the vertex space.
#[test]
fn workers_report_shard_placement_metadata() {
    let workers = spawn_workers(3);
    let router = spawn_router(&workers);
    let mut rc = Client::connect(router.addr());
    let reply =
        rc.ok(&format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{}}}", rmat_source(42)));
    let n_vertices = reply.get("n_vertices").and_then(Json::as_u64).unwrap();
    let mut next_start = 0u64;
    for (k, w) in workers.iter().enumerate() {
        let mut wc = Client::connect(w.addr());
        let list = wc.ok("{\"op\":\"list\"}");
        let datasets = list.get("datasets").and_then(Json::as_arr).unwrap();
        let ds = datasets
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some("g"))
            .unwrap_or_else(|| panic!("worker {k} has no dataset g: {list}"));
        assert_eq!(ds.get("shard_index").and_then(Json::as_u64), Some(k as u64), "{ds}");
        assert_eq!(ds.get("shard_count").and_then(Json::as_u64), Some(3), "{ds}");
        let start = ds.get("range_start").and_then(Json::as_u64).unwrap();
        let end = ds.get("range_end").and_then(Json::as_u64).unwrap();
        assert_eq!(start, next_start, "ranges must tile the vertex space in order");
        assert!(end >= start, "{ds}");
        next_start = end;
    }
    assert_eq!(next_start, n_vertices, "ranges must cover all vertices");
    // The router's own list mirrors the placement.
    let list = rc.ok("{\"op\":\"list\"}");
    let ds = &list.get("datasets").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(ds.get("shards").and_then(Json::as_u64), Some(3), "{ds}");
    assert_eq!(ds.get("ranges").and_then(Json::as_arr).unwrap().len(), 3, "{ds}");
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// Killing a worker mid-job must surface as a clean `error` reply on the
/// router connection — never a hang, never a half-merged result.
#[test]
fn worker_death_mid_job_yields_clean_error() {
    let mut workers = spawn_workers(2);
    let router = spawn_router(&workers);
    let mut rc = Client::connect(router.addr());
    rc.ok(&format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{}}}", rmat_source(42)));
    // Sanity: the fleet computes while whole.
    rc.ok("{\"op\":\"job\",\"dataset\":\"g\",\"engine\":\"pull_grind\",\"kind\":\"pagerank\",\"iters\":2}");
    // Launch a long job (10k rounds), then kill one worker under it. The
    // round in flight when the worker's scheduler stops gets a worker-side
    // error reply; the router latches it and fails the job.
    let addr = router.addr();
    let job_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        c.call(
            "{\"op\":\"job\",\"dataset\":\"g\",\"engine\":\"pull_grind\",\
             \"kind\":\"pagerank\",\"iters\":10000}",
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    workers.pop().unwrap().shutdown();
    let reply = job_thread.join().unwrap();
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "job against a dead worker must fail cleanly: {reply}"
    );
    let msg = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("worker"), "error must name the worker: {msg}");
    // Later jobs fail fast too (fresh links, connect refused).
    let msg = rc.err(
        "{\"op\":\"job\",\"dataset\":\"g\",\"engine\":\"pull_grind\",\
         \"kind\":\"pagerank\",\"iters\":2}",
    );
    assert!(msg.contains("worker"), "{msg}");
    // Stats double as the fleet health check: one worker is now down.
    let stats = rc.ok("{\"op\":\"stats\"}");
    let health = stats.get("workers").and_then(Json::as_arr).unwrap();
    let up =
        health.iter().filter(|w| w.get("reachable").and_then(Json::as_bool) == Some(true)).count();
    assert_eq!(up, 1, "{stats}");
    assert!(stats.get("jobs_failed").and_then(Json::as_u64).unwrap() >= 1, "{stats}");
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// Router-level admission and vocabulary: validation and unsupported ops
/// come back as clean errors with zero worker traffic.
#[test]
fn router_rejects_bad_and_unsupported_requests() {
    let workers = spawn_workers(2);
    let router = spawn_router(&workers);
    let mut rc = Client::connect(router.addr());
    let ping = rc.ok("{\"op\":\"ping\"}");
    assert_eq!(ping.get("role").and_then(Json::as_str), Some("router"), "{ping}");
    assert_eq!(ping.get("workers").and_then(Json::as_u64), Some(2), "{ping}");
    rc.ok(&format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{}}}", rmat_source(7)));
    // Re-registering the same (name, source) is idempotent…
    let again =
        rc.ok(&format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{}}}", rmat_source(7)));
    assert_eq!(again.get("shards").and_then(Json::as_u64), Some(2), "{again}");
    // …a different source under the same name is not.
    let msg =
        rc.err(&format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{}}}", rmat_source(8)));
    assert!(msg.contains("already registered"), "{msg}");
    // Out-of-range source: rejected at router admission (satellite of the
    // worker-side validation fix), before any worker sees traffic.
    let msg = rc.err("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"source\":99999}");
    assert!(msg.contains("out of range"), "{msg}");
    for (req, needle) in [
        ("{\"op\":\"job\",\"dataset\":\"nope\",\"kind\":\"pagerank\"}", "unknown dataset"),
        ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"bfs\",\"source\":0}", "raw graph"),
        ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"compare\"}", "not supported"),
        ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\"}", "not supported"),
        ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"trace\":true}", "trace"),
        ("{\"op\":\"trace\",\"trace_id\":1}", "not supported"),
        ("{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"add\",\"xbits\":[]}", "worker-side"),
        ("{\"op\":\"degrees\",\"dataset\":\"g\"}", "worker-side"),
        (
            "{\"op\":\"register\",\"name\":\"s\",\"source\":{\"type\":\"shard\",\"index\":0,\
             \"count\":2,\"base\":{\"type\":\"rmat\",\"scale\":9,\"edges\":6000,\"seed\":1}}}",
            "assigns shards itself",
        ),
    ] {
        let msg = rc.err(req);
        assert!(msg.contains(needle), "{req}: {msg}");
    }
    // The connection survives all those errors.
    rc.ok("{\"op\":\"ping\"}");
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// The `sweep` line the router sends for `dataset` when the source vector
/// is all ones (the first sweep of an `spmv` job), newline included.
fn ones_sweep_line_bytes(dataset: &str, engine: &str, n: usize) -> usize {
    let ones = Json::Arr(vec![Json::from(1.0f64.to_bits()); n]);
    let line = Json::obj([
        ("op", Json::from("sweep")),
        ("dataset", Json::from(dataset)),
        ("engine", Json::from(engine)),
        ("monoid", Json::from("add")),
        ("view", Json::from("raw")),
        ("xbits", ones),
    ]);
    line.to_string().len() + 1
}

/// Writes a ring over `n` vertices plus chords `v -> 3v+1 (mod n)` as an
/// edge-list file. Every vertex has in- and out-degree at least one, so
/// every PageRank and SpMV source vector entry is a positive normal f64
/// whose bit pattern prints as 19 digits: each sweep line has the same
/// length as the all-ones line.
fn ring_with_chords(n: usize, tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("ihtl-router-limit-{}-{tag}-{n}.el", std::process::id()));
    let mut text = String::new();
    for v in 0..n {
        text.push_str(&format!("{v} {}\n{v} {}\n", (v + 1) % n, (3 * v + 1) % n));
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn worker_stat(addr: SocketAddr, key: &str) -> u64 {
    let stats = Client::connect(addr).ok("{\"op\":\"stats\"}");
    stats.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("stats lack {key}: {stats}"))
}

/// The worker line limit on both sides of the boundary, seen through the
/// router: a graph whose `sweep` line is exactly the workers' limit is
/// served bitwise-equal to one node; one vertex more and the router
/// refuses the job with the byte counts, before any worker sees a sweep.
#[test]
fn sweep_line_limit_is_enforced_at_the_boundary() {
    const N: usize = 300;
    const ENGINE: &str = "pull_grind";
    // Same-length names, so the two lines differ by one vector entry.
    let limit = ones_sweep_line_bytes("g-lo", ENGINE, N);
    assert_eq!(ones_sweep_line_bytes("g-hi", ENGINE, N + 1), limit + 20);
    let workers =
        spawn_workers_with(2, ServerConfig { max_line_bytes: limit, ..ServerConfig::default() });
    let router = spawn_router(&workers);
    let mut rc = Client::connect(router.addr());
    let mut wc = Client::connect(workers[0].addr());
    let lo = ring_with_chords(N, "lo");
    let hi = ring_with_chords(N + 1, "hi");
    let register = |name: &str, path: &std::path::Path| {
        format!(
            "{{\"op\":\"register\",\"name\":\"{name}\",\"source\":\
             {{\"type\":\"edgelist\",\"path\":\"{}\"}}}}",
            path.display()
        )
    };
    rc.ok(&register("g-lo", &lo));
    rc.ok(&register("g-hi", &hi));
    wc.ok(&register("g-lo-full", &lo));
    for job in ["\"kind\":\"spmv\",\"iters\":1", "\"kind\":\"pagerank\",\"iters\":5"] {
        let routed = rc
            .ok(&format!("{{\"op\":\"job\",\"dataset\":\"g-lo\",\"engine\":\"{ENGINE}\",{job}}}"));
        let solo = wc.ok(&format!(
            "{{\"op\":\"job\",\"dataset\":\"g-lo-full\",\"engine\":\"{ENGINE}\",{job}}}"
        ));
        assert_eq!(
            routed.get("checksum").and_then(Json::as_str),
            solo.get("checksum").and_then(Json::as_str),
            "{job}\nrouted: {routed}\nsolo: {solo}"
        );
    }
    let submitted: Vec<u64> = workers.iter().map(|w| worker_stat(w.addr(), "submitted")).collect();
    let fanned = rc.ok("{\"op\":\"stats\"}").get("sweeps_fanned").and_then(Json::as_u64);
    let msg = rc.err(&format!(
        "{{\"op\":\"job\",\"dataset\":\"g-hi\",\"engine\":\"{ENGINE}\",\"kind\":\"spmv\",\"iters\":1}}"
    ));
    assert!(msg.contains(&format!("{} bytes", limit + 20)), "{msg}");
    assert!(msg.contains(&format!("{limit} bytes")), "{msg}");
    for (w, before) in workers.iter().zip(&submitted) {
        assert_eq!(worker_stat(w.addr(), "submitted"), *before, "no worker may see the sweep");
    }
    let stats = rc.ok("{\"op\":\"stats\"}");
    assert_eq!(stats.get("sweeps_fanned").and_then(Json::as_u64), fanned, "{stats}");
    // The refusal is a job error, not a dead connection.
    rc.ok("{\"op\":\"ping\"}");
    std::fs::remove_file(lo).ok();
    std::fs::remove_file(hi).ok();
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// A routed PageRank on an R-MAT scale-17 graph, whose `sweep` lines are
/// over the old 1 MiB worker limit: a fleet of 1 MiB workers refuses it
/// cleanly, and at the default limit it is bitwise-equal to one node.
#[test]
fn routed_pagerank_past_the_old_line_limit_matches_single_node() {
    const OLD_LIMIT: usize = 1 << 20;
    let register = "{\"op\":\"register\",\"name\":\"s17\",\"source\":\
                    {\"type\":\"rmat\",\"scale\":17,\"edges\":524288,\"seed\":5}}";
    let job = "{\"op\":\"job\",\"dataset\":\"s17\",\"engine\":\"pull_grind\",\
               \"kind\":\"pagerank\",\"iters\":10,\"top_k\":5}";

    let old = spawn_workers_with(
        2,
        ServerConfig { max_line_bytes: OLD_LIMIT, ..ServerConfig::default() },
    );
    let old_router = spawn_router(&old);
    let mut oc = Client::connect(old_router.addr());
    oc.ok(register);
    let msg = oc.err(job);
    assert!(msg.contains(&format!("{OLD_LIMIT} bytes")), "{msg}");
    old_router.shutdown();
    for w in old {
        w.shutdown();
    }

    let workers = spawn_workers(2);
    let router = spawn_router(&workers);
    let mut rc = Client::connect(router.addr());
    rc.ok(register);
    let routed = rc.ok(job);
    let mut wc = Client::connect(workers[0].addr());
    wc.ok(&register.replace("\"s17\"", "\"s17-full\""));
    let solo = wc.ok(&job.replace("\"s17\"", "\"s17-full\""));
    for key in ["checksum", "rounds", "top"] {
        assert_eq!(
            routed.get(key).map(Json::to_string),
            solo.get(key).map(Json::to_string),
            "{key} differs\nrouted: {routed}\nsolo: {solo}"
        );
    }
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}
