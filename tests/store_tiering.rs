//! End-to-end tests of the durable artifact store and the memory-budgeted
//! warm/cold registry tier, over real loopback TCP.
//!
//! Two scenarios, mirroring the acceptance criteria:
//!
//! 1. **Amortization across boots.** Two server processes (sequential, in
//!    one test process) share a store directory. The first boot builds and
//!    persists every preprocessed engine; the second boot must load them
//!    back (`store_hits > 0`, `store_writes == 0`) and serve results that
//!    are bitwise identical to the first boot's — and to a no-store run.
//!
//! 2. **Eviction under a tiny budget.** With `mem_budget_mb = 0` every
//!    checkout demotes the LRU dataset. Alternating queries between two
//!    datasets must report `evictions > 0` in `stats`, flip `warm` in
//!    `list`, and still return bitwise-identical checksums every time.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ihtl_serve::{Json, Server, ServerConfig};

/// A test client: one connection, line-in/line-out.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let writer = stream.try_clone().expect("clone stream");
        Client { writer, reader: BufReader::new(stream) }
    }

    fn ok(&mut self, request: &str) -> Json {
        writeln!(self.writer, "{request}").expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        let reply = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok reply for {request}: {reply}"
        );
        reply
    }

    fn stat(&mut self, key: &str) -> u64 {
        self.ok("{\"op\":\"stats\"}").get(key).and_then(Json::as_u64).unwrap_or_else(|| {
            panic!("stats reply must always carry '{key}'");
        })
    }
}

fn spawn_server(cfg: ServerConfig) -> ihtl_serve::ServerHandle {
    Server::bind(cfg).expect("bind ephemeral port").spawn().expect("spawn server")
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ihtl_tier_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn register(c: &mut Client, name: &str, seed: u64) {
    let req = format!(
        "{{\"op\":\"register\",\"name\":\"{name}\",\"source\":\
         {{\"type\":\"rmat\",\"scale\":9,\"edges\":4000,\"seed\":{seed}}}}}"
    );
    c.ok(&req);
}

/// PageRank through an explicit engine, bypassing the result cache so every
/// call exercises the registry (and therefore the store / eviction path).
fn checksum(c: &mut Client, dataset: &str, engine: &str) -> String {
    let req = format!(
        "{{\"op\":\"job\",\"dataset\":\"{dataset}\",\"kind\":\"pagerank\",\
         \"iters\":8,\"engine\":\"{engine}\",\"nocache\":true}}"
    );
    c.ok(&req).get("checksum").and_then(Json::as_str).expect("checksum").to_string()
}

/// The engines with store-backed preprocessed artifacts: `ihtl` loads the
/// iHTL blocked image; `pb` has its own binned image.
const STORED_ENGINES: &[&str] = &["ihtl", "pb"];

#[test]
fn second_boot_loads_every_engine_from_the_store() {
    let dir = fresh_dir("amortize");
    let cfg = || ServerConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };

    // Reference run with no store at all: the store must never change results.
    let baseline = {
        let handle = spawn_server(ServerConfig::default());
        let mut c = Client::connect(handle.addr());
        register(&mut c, "g", 42);
        let sums: Vec<String> = STORED_ENGINES.iter().map(|e| checksum(&mut c, "g", e)).collect();
        handle.shutdown();
        sums
    };

    // Cold boot: every artifact is built and written back.
    let (cold_sums, cold_writes) = {
        let handle = spawn_server(cfg());
        let mut c = Client::connect(handle.addr());
        register(&mut c, "g", 42);
        let sums: Vec<String> = STORED_ENGINES.iter().map(|e| checksum(&mut c, "g", e)).collect();
        assert_eq!(c.stat("store_hits"), 0, "an empty store has nothing to hit");
        let writes = c.stat("store_writes");
        assert!(writes >= 2, "cold boot must persist the ihtl and pb artifacts, got {writes}");
        handle.shutdown();
        (sums, writes)
    };

    // Warm boot: same dataset, same config — every engine loads, none builds.
    let handle = spawn_server(cfg());
    let mut c = Client::connect(handle.addr());
    register(&mut c, "g", 42);
    let warm_sums: Vec<String> = STORED_ENGINES.iter().map(|e| checksum(&mut c, "g", e)).collect();
    assert!(
        c.stat("store_hits") >= cold_writes,
        "warm boot must reload every artifact the cold boot wrote"
    );
    assert_eq!(c.stat("store_writes"), 0, "a warm boot has nothing new to persist");
    handle.shutdown();

    assert_eq!(cold_sums, baseline, "persisting artifacts must not change results");
    assert_eq!(warm_sums, baseline, "reloaded artifacts must serve bitwise-identical results");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_budget_evicts_lru_but_results_stay_bitwise() {
    let dir = fresh_dir("evict");
    let handle = spawn_server(ServerConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        mem_budget_mb: Some(0),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    register(&mut c, "a", 11);
    register(&mut c, "b", 22);

    // Seeded loop: alternate datasets so each checkout makes the other LRU
    // and (budget 0) demotes it; every reload must reproduce the checksum.
    let first_a = checksum(&mut c, "a", "ihtl");
    let first_b = checksum(&mut c, "b", "ihtl");
    for _ in 0..3 {
        assert_eq!(checksum(&mut c, "a", "ihtl"), first_a, "reloaded 'a' must match");
        assert_eq!(checksum(&mut c, "b", "ihtl"), first_b, "reloaded 'b' must match");
    }
    assert!(c.stat("evictions") >= 1, "a zero budget must demote the LRU dataset");
    assert!(c.stat("store_hits") >= 1, "demoted artifacts must reload from the store");

    // After serving 'b' last, 'a' was the demotion victim: list must show it
    // cold and 'b' warm.
    let list = c.ok("{\"op\":\"list\"}");
    let datasets = list.get("datasets").and_then(Json::as_arr).expect("datasets");
    let warm = |name: &str| -> bool {
        datasets
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|d| d.get("warm").and_then(Json::as_bool))
            .expect("every list item carries 'warm'")
    };
    assert!(!warm("a"), "the LRU dataset must be demoted under a zero budget");
    assert!(warm("b"), "the most recently used dataset stays warm");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent checkouts mid-eviction, over real loopback TCP, permuted by
/// the deterministic shuffle harness: a zero-budget boot where two client
/// connections hammer opposite datasets, so every request's engine checkout
/// races the demotion triggered by the other's. Server worker threads run
/// free (each request round-trip is one shuffle step that completes on its
/// own), while the harness permutes the *order* the clients fire in across
/// seeded interleavings. Every reply must be bitwise identical to the
/// connection's first.
#[test]
fn concurrent_checkouts_mid_eviction_stay_bitwise_under_shuffle() {
    use ihtl_parallel::shuffle::{self, Yield};
    use std::sync::{Arc, Mutex};

    let dir = fresh_dir("shuffle_evict");
    let handle = spawn_server(ServerConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        mem_budget_mb: Some(0),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    {
        let mut c = Client::connect(addr);
        register(&mut c, "a", 11);
        register(&mut c, "b", 22);
    }
    // Solo reference checksums for both datasets.
    let (ref_a, ref_b) = {
        let mut c = Client::connect(addr);
        (checksum(&mut c, "a", "ihtl"), checksum(&mut c, "b", "ihtl"))
    };

    // Loopback round-trips make each seed ~10 requests; keep the TCP sweep
    // narrower than the in-process suites (which take the full 64).
    let seeds = shuffle::seed_count(16).min(16);
    for seed in 0..seeds {
        let sums: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let client = |dataset: &'static str| {
            let sums = Arc::clone(&sums);
            Box::new(move |y: &Yield| {
                let mut c = Client::connect(addr);
                for _ in 0..3 {
                    y.point();
                    sums.lock()
                        .unwrap()
                        .push(format!("{dataset}={}", checksum(&mut c, dataset, "ihtl")));
                }
            }) as Box<dyn FnOnce(&Yield) + Send>
        };
        shuffle::run(seed, 8, vec![client("a"), client("b")]);
        for entry in std::mem::take(&mut *sums.lock().unwrap()) {
            let (ds, sum) = entry.split_once('=').expect("tagged checksum");
            let expect = if ds == "a" { &ref_a } else { &ref_b };
            assert_eq!(&sum, expect, "seed {seed}: dataset '{ds}' diverged mid-eviction");
        }
    }
    {
        let mut c = Client::connect(addr);
        assert!(c.stat("evictions") >= 1, "zero-budget boot must demote under load");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
