//! The TCP server: accept loop, per-connection line protocol, and the glue
//! between registry, scheduler, cache, and stats.
//!
//! Connections are thread-per-client over line-delimited JSON. `ping`,
//! `list`, `stats`, and `shutdown` are answered directly on the connection
//! thread; `register` and `job` requests do their heavy work through the
//! registry/scheduler so the admission queue bounds total in-flight
//! compute. Job replies carry an FNV-1a checksum over the result vector's
//! f64 bit patterns, so clients can assert bitwise determinism without
//! shipping the whole vector.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ihtl_apps::{run_job, run_job_multi, EngineKind, JobSpec};
use ihtl_core::IhtlConfig;

use crate::batch::{BatchMember, BatchTicket, BatchedOutput, Coalescer};
use crate::cache::ResultCache;
use crate::json::Json;
use crate::line::{error_reply, ok_reply, serve_lines, Closed, MAX_LINE_BYTES};
use crate::proto::{
    engine_wire_name, EngineChoice, GraphSource, GraphView, Monoid, Op, Request, WireJob,
};
use crate::registry::{Dataset, Registry};
use crate::sched::{JobError, Scheduler, SubmitError};
use crate::stats::ServeStats;

/// Server tunables. `Default` suits tests and the smoke script.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Admission queue capacity; beyond it, jobs are rejected `overloaded`.
    pub queue_capacity: usize,
    /// Executor threads. One is right for CPU-bound SpMV (the parallel
    /// pool is already machine-wide); more helps only for blocking jobs.
    pub executors: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// iHTL build configuration used for every dataset.
    pub ihtl_cfg: IhtlConfig,
    /// Request lines of this many bytes or more, newline excluded, are
    /// rejected and the connection closed. Reported to the router in shard
    /// `register` replies so it can refuse oversized sweeps itself.
    pub max_line_bytes: usize,
    /// Close a connection whose client sends nothing for this long
    /// (`None` = wait forever). Idle sockets otherwise pin a thread and a
    /// file descriptor each for the life of the client process.
    pub idle_timeout: Option<Duration>,
    /// Largest number of coalesced queries per SpMM edge sweep. Queued
    /// jobs sharing (dataset, engine, analytic, iteration budget) merge
    /// into one K-column execution; `1` disables coalescing.
    pub max_batch: usize,
    /// Root directory of the durable artifact store (`--store-dir`);
    /// `None` disables the store (every preprocessing is rebuilt).
    pub store_dir: Option<String>,
    /// Warm-artifact memory budget in MiB (`--mem-budget-mb`); `None`
    /// keeps every artifact resident forever.
    pub mem_budget_mb: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 16,
            executors: 1,
            cache_capacity: 64,
            ihtl_cfg: IhtlConfig::default(),
            max_line_bytes: MAX_LINE_BYTES,
            idle_timeout: Some(Duration::from_secs(30)),
            max_batch: 8,
            store_dir: None,
            mem_budget_mb: None,
        }
    }
}

/// How many completed job traces the server retains for the `trace` op.
const TRACE_STORE_CAP: usize = 64;

/// Everything the connection handlers share.
struct ServerState {
    registry: Registry,
    scheduler: Scheduler,
    cache: ResultCache,
    coalescer: Coalescer,
    stats: ServeStats,
    shutting_down: AtomicBool,
    cfg: ServerConfig,
    /// Recent traced-job span trees, oldest first, keyed by trace id.
    traces: Mutex<VecDeque<(u64, Json)>>,
    next_trace_id: AtomicU64,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and the scheduler, then joins them.
    pub fn shutdown(mut self) {
        request_shutdown(&self.state, self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn request_shutdown(state: &ServerState, addr: SocketAddr) {
    // ORDERING: SeqCst — shutdown is a once-per-process edge; the accept
    // loop's SeqCst load must see it in total order with the wake-up
    // connection below, and the cost is irrelevant off the hot path.
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake the blocking accept() with a throwaway connection.
    let _ = TcpStream::connect(addr);
}

impl Server {
    /// Binds the listening socket.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // Opening the store is fallible (mkdir) and happens before any
        // connection is accepted — a bad --store-dir fails the boot loudly
        // instead of degrading every job quietly.
        let store = match &cfg.store_dir {
            Some(dir) => Some(Arc::new(ihtl_store::BlockStore::open(dir)?)),
            None => None,
        };
        let state = Arc::new(ServerState {
            registry: Registry::with_store(cfg.ihtl_cfg.clone(), store, cfg.mem_budget_mb),
            scheduler: Scheduler::new(cfg.queue_capacity, cfg.executors),
            cache: ResultCache::new(cfg.cache_capacity),
            coalescer: Coalescer::new(),
            stats: ServeStats::default(),
            shutting_down: AtomicBool::new(false),
            cfg,
            traces: Mutex::new(VecDeque::new()),
            next_trace_id: AtomicU64::new(1),
        });
        Ok(Server { listener, addr, state })
    }

    /// The bound address (resolved once at bind time, so the accept loop
    /// and the shutdown path never need a fallible OS query).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop on the current thread until shutdown.
    pub fn run(self) {
        let addr = self.addr;
        for conn in self.listener.incoming() {
            // ORDERING: SeqCst — pairs with request_shutdown's swap.
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("ihtl-serve-conn".to_string())
                .spawn(move || handle_connection(stream, &state, addr));
        }
        self.state.scheduler.shutdown();
    }

    /// Runs the accept loop on a background thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let accept_thread = std::thread::Builder::new()
            .name("ihtl-serve-accept".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, state, accept_thread: Some(accept_thread) })
    }
}

/// Serves one client connection, then acts on why it closed.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>, addr: SocketAddr) {
    let cfg = &state.cfg;
    let dispatch = |req| dispatch(state, req);
    let on_idle = || {
        // ORDERING: Relaxed — stats counter only.
        state.stats.idle_disconnects.fetch_add(1, Ordering::Relaxed);
    };
    if serve_lines(stream, cfg.max_line_bytes, cfg.idle_timeout, dispatch, on_idle)
        == Closed::Shutdown
    {
        request_shutdown(state, addr);
    }
}

fn dispatch(state: &Arc<ServerState>, req: Request) -> Json {
    let id = req.id;
    match req.op {
        Op::Ping => ok_reply(id, Json::obj([("pong", Json::Bool(true))])),
        Op::Shutdown => ok_reply(id, Json::obj([("bye", Json::Bool(true))])),
        Op::List => {
            let items: Vec<Json> = state
                .registry
                .list()
                .iter()
                .map(|ds| {
                    let mut pairs = vec![
                        ("name".to_string(), Json::from(ds.name.clone())),
                        ("source".to_string(), Json::from(ds.source_desc.clone())),
                        ("n_vertices".to_string(), Json::from(ds.n_vertices)),
                        ("n_edges".to_string(), Json::from(ds.n_edges)),
                        ("load_seconds".to_string(), Json::Num(ds.load_seconds)),
                        ("has_graph".to_string(), Json::Bool(ds.graph().is_some())),
                        ("warm".to_string(), Json::Bool(ds.warm())),
                    ];
                    push_shard_fields(&mut pairs, ds);
                    Json::Obj(pairs)
                })
                .collect();
            ok_reply(id, Json::obj([("datasets", Json::Arr(items))]))
        }
        Op::Stats => {
            let mut body = state.stats.to_json(state.scheduler.queue_depth(), state.cache.stats());
            if let Json::Obj(pairs) = &mut body {
                // Memoised `auto` picks, one entry per dataset that has
                // resolved at least one (datasets never asked for `auto`
                // are omitted rather than forcing a feature computation).
                let autos: Vec<Json> = state
                    .registry
                    .list()
                    .iter()
                    .filter_map(|ds| {
                        let [plain, sym] = ds.auto_decisions();
                        if plain.is_none() && sym.is_none() {
                            return None;
                        }
                        let mut p = vec![("dataset".to_string(), Json::from(ds.name.clone()))];
                        if let Some(k) = plain {
                            p.push((
                                "engine_selected".to_string(),
                                Json::from(engine_wire_name(k)),
                            ));
                        }
                        if let Some(k) = sym {
                            p.push((
                                "engine_selected_symmetrized".to_string(),
                                Json::from(engine_wire_name(k)),
                            ));
                        }
                        Some(Json::Obj(p))
                    })
                    .collect();
                pairs.push(("auto_engines".to_string(), Json::Arr(autos)));
                // Durable-store and warm-tier counters. Always present
                // (zeros without a store) so the wire shape is stable.
                let sc = state.registry.store_counters();
                pairs.push(("store_hits".to_string(), Json::from(sc.hits)));
                pairs.push(("store_misses".to_string(), Json::from(sc.misses)));
                pairs.push(("store_writes".to_string(), Json::from(sc.writes)));
                pairs.push(("store_quarantined".to_string(), Json::from(sc.quarantined)));
                pairs.push(("evictions".to_string(), Json::from(state.registry.evictions())));
                pairs.push((
                    "resident_artifact_bytes".to_string(),
                    Json::from(state.registry.resident_bytes()),
                ));
            }
            ok_reply(id, body)
        }
        Op::Register { name, source } => match handle_register(state, &name, &source) {
            Ok(body) => ok_reply(id, body),
            Err(msg) => error_reply(id, &msg),
        },
        Op::Job { dataset, engine, job, timeout_ms, nocache, top_k, include_values, trace } => {
            match handle_job(
                state,
                &dataset,
                engine,
                &job,
                timeout_ms,
                nocache,
                top_k,
                include_values,
                trace,
            ) {
                Ok(body) => ok_reply(id, body),
                Err(msg) => error_reply(id, &msg),
            }
        }
        Op::Trace { trace_id } => {
            let traces = lock_traces(state);
            match traces.iter().find(|(tid, _)| *tid == trace_id) {
                Some((_, tree)) => ok_reply(id, tree.clone()),
                None => error_reply(
                    id,
                    &format!("unknown trace_id {trace_id} (expired or never recorded)"),
                ),
            }
        }
        Op::Sweep { dataset, engine, monoid, view, xbits } => {
            match handle_sweep(state, &dataset, engine, monoid, view, xbits) {
                Ok(body) => ok_reply(id, body),
                Err(msg) => error_reply(id, &msg),
            }
        }
        Op::Degrees { dataset, view } => match handle_degrees(state, &dataset, view) {
            Ok(body) => ok_reply(id, body),
            Err(msg) => error_reply(id, &msg),
        },
    }
}

/// Appends the shard placement fields to a reply body when the dataset is
/// a destination-range shard — the router builds its placement table from
/// the `register` reply, and `list` mirrors the same fields.
fn push_shard_fields(pairs: &mut Vec<(String, Json)>, ds: &Dataset) {
    let Some(meta) = ds.shard() else {
        return;
    };
    pairs.push(("shard_index".to_string(), Json::from(meta.index)));
    pairs.push(("shard_count".to_string(), Json::from(meta.count)));
    pairs.push(("range_start".to_string(), Json::from(meta.info.range.start)));
    pairs.push(("range_end".to_string(), Json::from(meta.info.range.end)));
    pairs.push(("shard_edges".to_string(), Json::from(meta.info.n_edges)));
    pairs.push(("boundary_sources".to_string(), Json::from(meta.info.boundary_sources)));
}

/// Locks the trace store, recovering from poisoning (R3: a panicking
/// executor must not take the trace endpoint down with it).
fn lock_traces(state: &ServerState) -> std::sync::MutexGuard<'_, VecDeque<(u64, Json)>> {
    state.traces.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn handle_register(
    state: &Arc<ServerState>,
    name: &str,
    source: &GraphSource,
) -> Result<Json, String> {
    let ds = state.registry.register(name, source)?;
    let mut pairs = vec![
        ("name".to_string(), Json::from(ds.name.clone())),
        ("n_vertices".to_string(), Json::from(ds.n_vertices)),
        ("n_edges".to_string(), Json::from(ds.n_edges)),
        ("load_seconds".to_string(), Json::Num(ds.load_seconds)),
    ];
    push_shard_fields(&mut pairs, &ds);
    if ds.shard().is_some() {
        // The router sizes its `sweep` lines against the smallest limit.
        pairs.push(("max_line_bytes".to_string(), Json::from(state.cfg.max_line_bytes)));
    }
    Ok(Json::Obj(pairs))
}

/// One monoid-typed edge sweep `y = A ⊙ x` — the router's per-round
/// primitive. Vectors travel as f64 *bit patterns* (u64s): JSON has no
/// NaN/∞ literals and SSSP/CC sweeps legitimately carry +∞, and bit
/// patterns exceed 2^53, so the exact-integer `Json` representation is
/// load-bearing here. The sweep runs through the scheduler like any job,
/// so the admission queue still bounds total in-flight compute. Engines
/// run in their internal vertex order; the wire carries original order,
/// converted on both edges — a shard worker therefore folds exactly its
/// shard's CSC rows and returns the monoid identity everywhere else.
fn handle_sweep(
    state: &Arc<ServerState>,
    dataset: &str,
    engine: EngineChoice,
    monoid: Monoid,
    view: GraphView,
    xbits: Vec<u64>,
) -> Result<Json, String> {
    let ds = state
        .registry
        .get(dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (register it first)"))?;
    let symmetrized = view == GraphView::Sym;
    let engine: EngineKind = match engine {
        EngineChoice::Fixed(kind) => kind,
        EngineChoice::Auto => ds.auto_engine(symmetrized, state.registry.cfg())?,
    };
    if xbits.len() != ds.n_vertices {
        return Err(format!(
            "xbits has {} entries; dataset '{dataset}' has {} vertices",
            xbits.len(),
            ds.n_vertices
        ));
    }
    // ORDERING: Relaxed — stats counter only.
    state.stats.submitted.fetch_add(1, Ordering::Relaxed);
    let state_for_exec = Arc::clone(state);
    let ds_for_exec = Arc::clone(&ds);
    let handle = state
        .scheduler
        .submit(
            None,
            Box::new(move |_cancel| {
                let _span = ihtl_trace::span("sweep").with_arg(xbits.len() as u64);
                let x: Vec<f64> = xbits.iter().map(|&b| f64::from_bits(b)).collect();
                let y = ds_for_exec
                    .with_engine(engine, symmetrized, &state_for_exec.registry, |e| {
                        let xe = e.from_original_order(&x);
                        let mut ye = vec![monoid_identity(monoid); xe.len()];
                        match monoid {
                            Monoid::Add => e.spmv_add(&xe, &mut ye),
                            Monoid::Min => e.spmv_min(&xe, &mut ye),
                        }
                        e.to_original_order(&ye)
                    })
                    .map_err(JobError::Failed)?;
                Ok(Json::obj([(
                    "ybits",
                    Json::Arr(y.iter().map(|v| Json::from(v.to_bits())).collect()),
                )]))
            }),
        )
        .map_err(|e| match e {
            SubmitError::Overloaded => {
                // ORDERING: Relaxed — stats counter only.
                state.stats.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                "overloaded".to_string()
            }
            SubmitError::ShuttingDown => "server shutting down".to_string(),
        })?;
    match handle.wait() {
        Ok(mut body) => {
            // ORDERING: Relaxed — stats counter only.
            state.stats.completed.fetch_add(1, Ordering::Relaxed);
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("dataset".to_string(), Json::from(ds.name.clone())));
                pairs.push(("engine".to_string(), Json::from(engine_wire_name(engine))));
                pairs.push(("monoid".to_string(), Json::from(monoid.wire_name())));
                pairs.push(("view".to_string(), Json::from(view.wire_name())));
                pairs.push(("n_vertices".to_string(), Json::from(ds.n_vertices)));
            }
            Ok(body)
        }
        Err(err) => {
            // ORDERING: Relaxed — stats counter only.
            state.stats.failed.fetch_add(1, Ordering::Relaxed);
            Err(err.message())
        }
    }
}

/// The monoid's identity element — what a sweep leaves in rows with no
/// in-edges, and what makes cross-shard merges exact (a non-owner's entry
/// is *exactly* the identity, so the owner's fold is the full fold).
fn monoid_identity(monoid: Monoid) -> f64 {
    match monoid {
        Monoid::Add => 0.0,
        Monoid::Min => f64::INFINITY,
    }
}

/// The dataset's per-vertex out-degree vector. A shard reports only the
/// degrees of edges it kept, so a router sums these across shards to
/// recover the global vector PageRank normalises by — integer addition,
/// hence exact.
fn handle_degrees(
    state: &Arc<ServerState>,
    dataset: &str,
    view: GraphView,
) -> Result<Json, String> {
    let ds = state
        .registry
        .get(dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (register it first)"))?;
    let g = match view {
        GraphView::Raw => ds.graph().ok_or_else(|| {
            format!(
                "dataset '{dataset}' was registered from an iHTL image; degrees need the raw graph"
            )
        })?,
        GraphView::Sym => ds.sym_graph()?,
    };
    let degrees: Vec<Json> =
        (0..g.n_vertices() as u32).map(|v| Json::from(g.out_degree(v) as u64)).collect();
    Ok(Json::obj([
        ("dataset", Json::from(ds.name.clone())),
        ("view", Json::from(view.wire_name())),
        ("n_vertices", Json::from(g.n_vertices())),
        ("degrees", Json::Arr(degrees)),
    ]))
}

#[allow(clippy::too_many_arguments)]
fn handle_job(
    state: &Arc<ServerState>,
    dataset: &str,
    engine: EngineChoice,
    job: &WireJob,
    timeout_ms: Option<u64>,
    nocache: bool,
    top_k: usize,
    include_values: bool,
    trace: bool,
) -> Result<Json, String> {
    let ds = state
        .registry
        .get(dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (register it first)"))?;
    // Reject bad job parameters (e.g. an sssp/bfs source beyond the vertex
    // count) at admission — before the submission counter, the latency
    // timer, and the batching path — so the reply is a clear wire error
    // with zero reported seconds, not a failure deep in the executor.
    if let WireJob::Analytic(spec) = job {
        if let Err(msg) = spec.validate(ds.n_vertices, ds.graph().as_deref()) {
            // A rejected job still counts as a failed one for fleet health.
            // ORDERING: Relaxed — stats counter only.
            state.stats.failed.fetch_add(1, Ordering::Relaxed);
            return Err(msg);
        }
    }
    // Resolve `auto` to a concrete engine *before* cache-keying, so an
    // auto request and an explicit request for the engine it picks share
    // one cache entry (and the memoised decision makes this resolution a
    // single atomic load after the first job).
    let engine: EngineKind = match engine {
        EngineChoice::Fixed(kind) => kind,
        EngineChoice::Auto => {
            let symmetrized = match job {
                WireJob::Analytic(spec) => spec.needs_symmetrized(),
                _ => false,
            };
            ds.auto_engine(symmetrized, state.registry.cfg())?
        }
    };
    let cache_key = ResultCache::key(
        dataset,
        engine_wire_name(engine),
        &job.canonical(),
        top_k,
        include_values,
    );
    // A traced request must actually execute (a cached reply has no spans),
    // and its reply must not be cached (the trace_id is call-specific).
    let use_cache = job.cacheable() && !nocache && !trace && state.cfg.cache_capacity > 0;
    if use_cache {
        if let Some(mut body) = state.cache.get(&cache_key) {
            if let Json::Obj(pairs) = &mut body {
                pairs.retain(|(k, _)| k != "cached");
                pairs.push(("cached".to_string(), Json::Bool(true)));
            }
            return Ok(body);
        }
    }

    // ORDERING: Relaxed — stats counter only.
    state.stats.submitted.fetch_add(1, Ordering::Relaxed);
    // lint:allow(R4): admission timestamp feeds the latency histogram only
    let submitted_at = Instant::now();
    let deadline = timeout_ms.map(|ms| submitted_at + Duration::from_millis(ms));
    // Coalescible analytics park on a batch slot instead of a private
    // scheduler job, so queued lookalikes share one SpMM edge sweep.
    // Traced jobs stay solo: their span tree must describe exactly one
    // execution, not whatever batch they landed in.
    if !trace && state.cfg.max_batch > 1 {
        if let WireJob::Analytic(spec) = job {
            if let Some(group) = spec.batch_group_key() {
                return finish_batched_job(
                    state,
                    &ds,
                    dataset,
                    engine,
                    spec,
                    &group,
                    deadline,
                    submitted_at,
                    use_cache,
                    cache_key,
                    top_k,
                    include_values,
                );
            }
        }
    }
    // ORDERING: Relaxed — only uniqueness of the trace id matters.
    let trace_id = trace.then(|| state.next_trace_id.fetch_add(1, Ordering::Relaxed));
    let job_for_exec = job.clone();
    let state_for_exec = Arc::clone(state);
    let ds_for_exec = Arc::clone(&ds);
    let handle = state
        .scheduler
        .submit(
            deadline,
            Box::new(move |cancel| {
                // Tracing turns on for exactly this job's execution window:
                // the guard + mark are taken on the executor thread, so the
                // `job` root span and everything `run_job` opens nest under
                // it, and pool-worker spans land in the collected window.
                let traced = trace_id.map(|tid| (tid, ihtl_trace::enable(), ihtl_trace::mark()));
                let root = ihtl_trace::span("job");
                let result = execute_job(
                    &state_for_exec,
                    &ds_for_exec,
                    engine,
                    &job_for_exec,
                    top_k,
                    include_values,
                    cancel,
                )
                .map_err(JobError::Failed);
                drop(root);
                if let Some((tid, guard, mark)) = traced {
                    let capture = mark.collect();
                    drop(guard);
                    store_trace(&state_for_exec, tid, &capture);
                }
                result
            }),
        )
        .map_err(|e| match e {
            SubmitError::Overloaded => {
                // ORDERING: Relaxed — stats counter only.
                state.stats.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                "overloaded".to_string()
            }
            SubmitError::ShuttingDown => "server shutting down".to_string(),
        })?;

    let result = handle.wait();
    let latency = submitted_at.elapsed().as_secs_f64();
    state.stats.record_latency(latency);
    match result {
        Ok(mut body) => {
            // ORDERING: Relaxed — stats counter only.
            state.stats.completed.fetch_add(1, Ordering::Relaxed);
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("latency_seconds".to_string(), Json::Num(latency)));
            }
            if use_cache {
                state.cache.put(cache_key, body.clone());
            }
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("cached".to_string(), Json::Bool(false)));
                if let Some(tid) = trace_id {
                    pairs.push(("trace_id".to_string(), Json::from(tid)));
                }
            }
            Ok(body)
        }
        Err(err) => {
            // ORDERING: Relaxed — stats counters only.
            if err == JobError::DeadlineExceeded {
                state.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
            }
            // ORDERING: Relaxed — stats counter only.
            state.stats.failed.fetch_add(1, Ordering::Relaxed);
            Err(err.message())
        }
    }
}

/// Finishes a coalescible job on the batching path: enlist with the
/// coalescer, lead (submit the one batch closure) if this request opened
/// the group, then park on the member slot until the sweep demuxes this
/// column — or the member's own deadline passes.
#[allow(clippy::too_many_arguments)]
fn finish_batched_job(
    state: &Arc<ServerState>,
    ds: &Arc<Dataset>,
    dataset: &str,
    engine: EngineKind,
    spec: &JobSpec,
    group: &str,
    deadline: Option<Instant>,
    submitted_at: Instant,
    use_cache: bool,
    cache_key: String,
    top_k: usize,
    include_values: bool,
) -> Result<Json, String> {
    let key = format!("{dataset}|{}|{group}", engine_wire_name(engine));
    let (slot, ticket) = state.coalescer.enlist(key, spec.clone());
    if let Some(ticket) = ticket {
        let state_for_exec = Arc::clone(state);
        let ds_for_exec = Arc::clone(ds);
        let max_batch = state.cfg.max_batch;
        // The batch closure carries no deadline of its own: each member
        // enforces its deadline on its slot, and a closure purged from the
        // queue would strand every member. On submit failure the dropped
        // ticket fails all enlisted slots, so nobody hangs.
        state
            .scheduler
            .submit(
                None,
                Box::new(move |_cancel| {
                    run_batch(&state_for_exec, &ds_for_exec, engine, ticket, max_batch);
                    Ok(Json::Null)
                }),
            )
            .map_err(|e| match e {
                SubmitError::Overloaded => {
                    // ORDERING: Relaxed — stats counter only.
                    state.stats.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                    "overloaded".to_string()
                }
                SubmitError::ShuttingDown => "server shutting down".to_string(),
            })?;
    }
    let result = slot.wait(deadline);
    let latency = submitted_at.elapsed().as_secs_f64();
    state.stats.record_latency(latency);
    match result {
        Ok(b) => {
            // ORDERING: Relaxed — stats counter only.
            state.stats.completed.fetch_add(1, Ordering::Relaxed);
            let mut body = job_body(ds, engine, spec, &b.output, top_k, include_values);
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("latency_seconds".to_string(), Json::Num(latency)));
            }
            if use_cache {
                state.cache.put(cache_key, body.clone());
            }
            // Appended after the cache put (like `cached`): occupancy is a
            // property of this call's sweep, not of the cached result.
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("cached".to_string(), Json::Bool(false)));
                pairs.push(("batch_k".to_string(), Json::from(b.batch_k)));
            }
            Ok(body)
        }
        Err(err) => {
            // ORDERING: Relaxed — stats counters only.
            if err == JobError::DeadlineExceeded {
                state.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
            }
            // ORDERING: Relaxed — stats counter only.
            state.stats.failed.fetch_add(1, Ordering::Relaxed);
            Err(err.message())
        }
    }
}

/// Executor-side batch driver: claims the group's members, runs them, and
/// guarantees every member slot is filled even if execution panics.
fn run_batch(
    state: &Arc<ServerState>,
    ds: &Dataset,
    engine: EngineKind,
    ticket: BatchTicket,
    max_batch: usize,
) {
    let members = ticket.drain();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_batch(state, ds, engine, &members, max_batch);
    }));
    // Backstop (first writer wins, so this is a no-op for filled slots):
    // any slot a panic left unfilled fails instead of hanging its client.
    for m in &members {
        m.fill(Err(JobError::Panicked));
    }
    drop(ran);
}

/// Runs a drained batch in chunks of at most `max_batch` columns, demuxing
/// each chunk's result columns into the members' slots. A member whose
/// parameters are rejected fails alone; the surviving columns still share
/// the sweep.
fn execute_batch(
    state: &ServerState,
    ds: &Dataset,
    engine: EngineKind,
    members: &[BatchMember],
    max_batch: usize,
) {
    let live: Vec<&BatchMember> = members.iter().filter(|m| !m.is_abandoned()).collect();
    for chunk in live.chunks(max_batch.max(1)) {
        let _span = ihtl_trace::span("batch").with_arg(chunk.len() as u64);
        let specs: Vec<JobSpec> = chunk.iter().map(|m| m.spec().clone()).collect();
        let ran = ds.with_engine(engine, false, &state.registry, |e| run_job_multi(e, &specs));
        let results = match ran {
            Ok(results) => results,
            Err(msg) => {
                for m in chunk {
                    m.fill(Err(JobError::Failed(msg.clone())));
                }
                continue;
            }
        };
        // Occupancy counts the columns that actually executed; rejected
        // members consumed no sweep capacity.
        let executed = results.iter().filter(|r| r.is_ok()).count();
        if executed > 0 {
            // One record per sweep over the summed work: per-engine
            // ns/edge in `stats` stays amortized per query. Recorded before
            // any slot is filled, so a client that asks for `stats` after
            // its reply sees the sweep that produced it.
            let mut chunk_seconds = 0.0;
            let mut chunk_edges = 0u64;
            for out in results.iter().flatten() {
                chunk_seconds += out.seconds;
                chunk_edges = chunk_edges
                    .saturating_add((ds.n_edges as u64).saturating_mul(out.rounds as u64));
            }
            state.stats.record_engine(engine, chunk_seconds, chunk_edges);
            state.stats.record_batch(executed);
        }
        for (m, r) in chunk.iter().zip(results) {
            match r {
                Ok(out) => m.fill(Ok(BatchedOutput { output: out, batch_k: executed })),
                Err(msg) => m.fill(Err(JobError::Failed(msg))),
            }
        }
    }
}

/// Runs the job body on an executor thread.
fn execute_job(
    state: &ServerState,
    ds: &Dataset,
    engine: EngineKind,
    job: &WireJob,
    top_k: usize,
    include_values: bool,
    cancel: &AtomicBool,
) -> Result<Json, String> {
    // ORDERING: Relaxed — advisory cancellation flag: a stale false only
    // wastes compute; the result hand-off is mutex-ordered elsewhere.
    if cancel.load(Ordering::Relaxed) {
        return Err("cancelled".to_string());
    }
    match job {
        WireJob::Sleep { ms } => {
            // Sleep in slices so cancellation/deadline abandonment is cheap.
            // lint:allow(R4): the sleep job is wall-clock by definition
            let end = Instant::now() + Duration::from_millis(*ms);
            // ORDERING: Relaxed — advisory cancellation poll.
            // lint:allow(R4): the sleep job is wall-clock by definition
            while Instant::now() < end && !cancel.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5.min(*ms).max(1)));
            }
            Ok(Json::obj([("slept_ms", Json::from(*ms))]))
        }
        WireJob::Analytic(spec) => {
            let out = run_analytic(state, ds, engine, spec)?;
            Ok(job_body(ds, engine, spec, &out, top_k, include_values))
        }
        WireJob::Compare { iters } => {
            let spec = JobSpec::PageRank { iters: *iters, seed: None };
            let mut per_engine = Vec::new();
            let mut reference: Option<(EngineKind, Vec<f64>)> = None;
            let mut max_abs_diff = 0.0f64;
            for kind in EngineKind::all() {
                // ORDERING: Relaxed — advisory cancellation poll.
                if cancel.load(Ordering::Relaxed) {
                    return Err("cancelled".to_string());
                }
                if ds.graph().is_none() && kind != EngineKind::Ihtl {
                    continue; // iHTL-image datasets can only run iHTL
                }
                let out = run_analytic(state, ds, kind, &spec)?;
                match &reference {
                    None => reference = Some((kind, out.values.clone())),
                    Some((_, r)) => {
                        for (a, b) in r.iter().zip(&out.values) {
                            max_abs_diff = max_abs_diff.max((a - b).abs());
                        }
                    }
                }
                per_engine.push(Json::obj([
                    ("engine", Json::from(engine_wire_name(kind))),
                    ("seconds", Json::Num(out.seconds)),
                    (
                        "ns_per_edge",
                        Json::Num(out.seconds * 1e9 / (ds.n_edges.max(1) * iters) as f64),
                    ),
                    ("checksum", Json::from(fnv1a_checksum(&out.values))),
                ]));
            }
            Ok(Json::obj([
                ("job", Json::from(spec.canonical())),
                ("engines", Json::Arr(per_engine)),
                ("max_abs_diff", Json::Num(max_abs_diff)),
            ]))
        }
    }
}

/// Renders one thread's flat span list as a forest of
/// `{name, start_ns, dur_ns, arg, children}` nodes, children ordered by
/// start time. Parent links only ever point at earlier ids on the same
/// thread (they come from the tracer's per-thread open-span stack), so the
/// recursion is acyclic and its depth is bounded by the tracer's stack cap.
fn span_forest(spans: &[ihtl_trace::SpanInfo]) -> Json {
    // Sorted (id, index) pairs let children find parents by binary search —
    // no hash map (rule R4a keeps wire-facing files to plain collections).
    let mut by_id: Vec<(u64, usize)> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    by_id.sort_unstable();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match by_id.binary_search_by_key(&s.parent, |&(id, _)| id) {
            Ok(p) if s.parent != 0 && by_id[p].1 != i => children[by_id[p].1].push(i),
            _ => roots.push(i), // orphan: parent span fell out of the ring
        }
    }
    let by_start = |list: &mut Vec<usize>| {
        list.sort_by_key(|&i| spans[i].start_ns);
    };
    by_start(&mut roots);
    for list in &mut children {
        by_start(list);
    }
    fn node(spans: &[ihtl_trace::SpanInfo], children: &[Vec<usize>], i: usize, depth: u32) -> Json {
        let s = &spans[i];
        let kids = if depth > 128 {
            Vec::new() // unreachable with well-formed data; guards the stack
        } else {
            children[i].iter().map(|&c| node(spans, children, c, depth + 1)).collect()
        };
        Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("dur_ns", Json::from(s.dur_ns())),
            ("arg", Json::from(s.arg)),
            ("children", Json::Arr(kids)),
        ])
    }
    Json::Arr(roots.iter().map(|&i| node(spans, &children, i, 0)).collect())
}

/// Renders a job's [`ihtl_trace::Capture`] as the `trace` reply body and
/// files it in the bounded store (oldest traces fall out first).
fn store_trace(state: &ServerState, trace_id: u64, capture: &ihtl_trace::Capture) {
    let mut threads = Vec::with_capacity(1 + capture.remote.len());
    let thread_json = |t: &ihtl_trace::ThreadTrace| {
        Json::obj([
            ("label", Json::from(t.label.clone())),
            ("serial", Json::from(t.serial)),
            ("dropped", Json::from(t.dropped)),
            ("spans", span_forest(&t.spans)),
        ])
    };
    threads.push(thread_json(&capture.local));
    threads.extend(capture.remote.iter().map(thread_json));
    let (start, end) = capture.window_ns;
    let tree = Json::obj([
        ("trace_id", Json::from(trace_id)),
        ("window_ns", Json::Arr(vec![Json::from(start), Json::from(end)])),
        ("threads", Json::Arr(threads)),
    ]);
    let mut traces = lock_traces(state);
    if traces.len() >= TRACE_STORE_CAP {
        traces.pop_front();
    }
    traces.push_back((trace_id, tree));
}

/// Runs one analytic through the dataset's engine pool, recording engine
/// time into stats.
fn run_analytic(
    state: &ServerState,
    ds: &Dataset,
    engine: EngineKind,
    spec: &JobSpec,
) -> Result<ihtl_apps::JobOutput, String> {
    let graph = ds.graph();
    if spec.needs_raw_graph() && graph.is_none() {
        return Err(format!(
            "job '{}' needs the raw graph, which dataset '{}' (iHTL image) lacks",
            spec.name(),
            ds.name
        ));
    }
    let out = ds.with_engine(engine, spec.needs_symmetrized(), &state.registry, |e| {
        run_job(e, graph.as_deref(), spec)
    })??;
    // Attribute traversal work: each round touches every edge once.
    let edges = (ds.n_edges as u64).saturating_mul(out.rounds as u64);
    state.stats.record_engine(engine, out.seconds, edges);
    Ok(out)
}

/// Renders an analytic's output as the reply body.
fn job_body(
    ds: &Dataset,
    engine: EngineKind,
    spec: &JobSpec,
    out: &ihtl_apps::JobOutput,
    top_k: usize,
    include_values: bool,
) -> Json {
    let mut pairs = vec![
        ("dataset".to_string(), Json::from(ds.name.clone())),
        ("engine".to_string(), Json::from(engine_wire_name(engine))),
        // Always the *resolved* engine: under `engine: "auto"` this is the
        // scoring rule's pick; for a fixed request it echoes the request.
        // Cache-safe because auto resolves before the cache key is formed.
        ("engine_selected".to_string(), Json::from(engine_wire_name(engine))),
        ("job".to_string(), Json::from(spec.canonical())),
        ("n_vertices".to_string(), Json::from(out.values.len())),
        ("rounds".to_string(), Json::from(out.rounds)),
        ("compute_seconds".to_string(), Json::Num(out.seconds)),
        ("checksum".to_string(), Json::from(fnv1a_checksum(&out.values))),
    ];
    if top_k > 0 {
        pairs.push(("top".to_string(), top_k_json(&out.values, top_k)));
    }
    if include_values {
        pairs.push((
            "values".to_string(),
            Json::Arr(out.values.iter().map(|&v| Json::Num(v)).collect()),
        ));
    }
    Json::Obj(pairs)
}

/// A reply's `top` array: the `k` highest-valued vertices as `{vertex,
/// value}` objects, value descending, ties by vertex ascending — exactly
/// the first `k` of a full sort of every vertex.
pub fn top_k_json(values: &[f64], k: usize) -> Json {
    let top = top_k_vertices(values, k)
        .into_iter()
        .map(|i| Json::obj([("vertex", Json::from(i)), ("value", Json::Num(values[i]))]))
        .collect();
    Json::Arr(top)
}

/// The first `k` vertices in (value descending, vertex ascending) order,
/// found in O(n + k log k): a selection moves the `k` winners to the front,
/// and only they are sorted. On NaN-free values the vertex tie-break makes
/// the order total, so the winners and their order equal a full sort's.
fn top_k_vertices(values: &[f64], k: usize) -> Vec<usize> {
    let by_rank = |&a: &usize, &b: &usize| {
        values[b].partial_cmp(&values[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    };
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, by_rank);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_rank);
    idx
}

/// FNV-1a over the little-endian bit patterns of the vector, rendered as
/// 16 hex digits. Equal checksums across runs ⇒ bitwise-equal results.
pub fn fnv1a_checksum(values: &[f64]) -> String {
    let mut h = ihtl_graph::io::Fnv1a::new();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_bit_sensitive() {
        let a = fnv1a_checksum(&[1.0, 2.0, 3.0]);
        let b = fnv1a_checksum(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_ne!(a, fnv1a_checksum(&[1.0, 2.0, 3.0000000000000004]));
        assert_ne!(a, fnv1a_checksum(&[1.0, 2.0]));
        assert_eq!(a.len(), 16);
        // 0.0 and -0.0 differ in bits, so they must differ in checksum.
        assert_ne!(fnv1a_checksum(&[0.0]), fnv1a_checksum(&[-0.0]));
    }

    #[test]
    fn top_k_selection_equals_the_full_sort() {
        let full_sort = |values: &[f64], k: usize| {
            let mut idx: Vec<usize> = (0..values.len()).collect();
            idx.sort_by(|&a, &b| {
                values[b]
                    .partial_cmp(&values[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            idx.truncate(k);
            idx
        };
        let inf = f64::INFINITY;
        let cases: [&[f64]; 5] = [
            // Ties straddling every cut, so the vertex tie-break decides.
            &[0.5, 0.25, 0.5, 0.5, 0.125, 0.25, 0.5, 0.25],
            &[-inf, 1.0, inf, 0.0, -0.0, inf, -inf, 1.0, -2.5],
            &[3.0; 7],
            &[7.0],
            &[],
        ];
        for values in cases {
            let n = values.len();
            for k in [0, 1, n.saturating_sub(1), n, n + 5].into_iter().chain(2..n) {
                let label = format!("values {values:?} k={k}");
                let want = full_sort(values, k);
                assert_eq!(top_k_vertices(values, k), want, "{label}");
                let expect = Json::Arr(
                    want.iter()
                        .map(|&i| {
                            Json::obj([("vertex", Json::from(i)), ("value", Json::Num(values[i]))])
                        })
                        .collect(),
                );
                assert_eq!(top_k_json(values, k).to_string(), expect.to_string(), "{label}");
            }
        }
    }
}
