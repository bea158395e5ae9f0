//! End-to-end and per-layer benchmark of the iHTL workspace.
//!
//! ```text
//! ihtl-perfbench --workload W --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR \
//!     --manifest BENCHMARK.json
//! ```
//!
//! Runs one workload (`solve-powerlaw`, `serve-ppr` or `routed-pagerank`;
//! see README.md), prints every metric with its median, quartiles and
//! sample count, and ends with one JSON result line. With `--trace 0` the
//! result holds every `end_to_end` metric of the manifest; with `--trace 1`
//! it holds every `per_layer` metric, from a separate traced pass. Any
//! wrong output makes the exit code 1.

mod inputs;
mod report;
mod routed;
mod serve;
mod solve;
mod tracing;
mod wire;

use std::path::{Path, PathBuf};

use ihtl_serve::Json;

use report::Report;

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 5;

/// What every workload needs to know about its run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    pub trace: bool,
    /// Where `ihtl-serve` and `ihtl-router` were built.
    pub bin_dir: PathBuf,
    /// Cached input images and output fingerprints.
    pub cache_dir: PathBuf,
    /// Full reports and trace files.
    pub out_dir: PathBuf,
    /// Scratch files of running servers (port files).
    pub run_dir: PathBuf,
    /// `BENCHMARK.json`, which declares the metrics of the result line.
    pub manifest: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["solve-powerlaw", "serve-ppr", "routed-pagerank"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let bin_dir = PathBuf::from(get("--bin-dir")?);
    let work = PathBuf::from(get("--work-dir")?);
    let manifest = PathBuf::from(get("--manifest")?);
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        bin_dir,
        cache_dir: work.join("cache"),
        out_dir: work.join("out"),
        run_dir: work.join("run"),
        manifest,
    })
}

/// Host and build context stamped on every result.
fn stamp(ctx: &Ctx) -> Json {
    let (l2, llc) = ihtl_parallel::cache_sizes();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Json::obj([
        ("workload", Json::from(ctx.workload.as_str())),
        ("seed", Json::from(ctx.seed)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("nproc", Json::from(nproc)),
        (
            "ihtl_threads_env",
            Json::from(std::env::var("IHTL_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("pool_threads", Json::from(ihtl_parallel::num_threads())),
        ("l2_bytes", Json::from(l2)),
        ("llc_bytes", Json::from(llc)),
        (
            "revision",
            Json::from(std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into())),
        ),
    ])
}

/// Compares this run's output checksums with those an earlier run of the
/// same build, workload, seed and thread count stored; stores them on
/// first use. Results are a pure function of input and thread count, so
/// any difference is a determinism failure. The build is identified by a
/// hash of this executable, which links the program's crates.
pub fn check_fingerprint(ctx: &Ctx, rep: &mut Report, lines: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading own executable: {e}"))?;
    let build = ihtl_graph::io::fnv1a_64(&exe);
    let dir = ctx.cache_dir.join("fingerprints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let name = format!(
        "{}-seed{}-t{}-{build:016x}.txt",
        ctx.workload,
        ctx.seed,
        ihtl_parallel::num_threads()
    );
    let file = dir.join(name);
    let now = lines.join("\n") + "\n";
    match std::fs::read_to_string(&file) {
        Ok(before) => rep.check(before == now, || {
            format!(
                "outputs differ from an earlier run with the same seed and threads ({})",
                file.display()
            )
        }),
        Err(_) => {
            std::fs::write(&file, &now).map_err(|e| format!("writing {}: {e}", file.display()))?
        }
    }
    rep.context("fingerprint", Json::Arr(lines.iter().map(|l| Json::from(l.as_str())).collect()));
    Ok(())
}

/// The metrics the manifest declares under `key`, as (name, unit).
fn declared(manifest: &Path, key: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("{} has no '{key}' list", manifest.display()))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a '{key}' entry has no '{k}'"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn write_report(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .map_err(|e| format!("creating report directory: {e}"))?;
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    let ctx = parse_args(args)?;
    std::fs::create_dir_all(&ctx.run_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.run_dir.display()))?;
    let metrics = declared(&ctx.manifest, if ctx.trace { "per_layer" } else { "end_to_end" })?;
    let stamp = stamp(&ctx);
    println!("# stamp {stamp}");
    let mut rep = Report::default();
    match ctx.workload.as_str() {
        "solve-powerlaw" => solve::run(&ctx, &mut rep)?,
        "serve-ppr" => serve::run(&ctx, &mut rep)?,
        _ => routed::run(&ctx, &mut rep)?,
    }
    if rep.attempted == 0 {
        return Err("the workload attempted no operation".to_string());
    }
    // Every workload measures every end-to-end metric. A per-layer metric
    // of a layer the workload does not exercise reads 0.
    let absent = rep.absent(&metrics)?;
    if !ctx.trace && !absent.is_empty() {
        return Err(format!("end-to-end metrics not measured: {}", absent.join(", ")));
    }
    rep.context(
        "not_exercised",
        Json::Arr(absent.iter().map(|m| Json::from(m.as_str())).collect()),
    );
    rep.print_lines();
    let name = format!("{}-seed{}-trace{}.json", ctx.workload, ctx.seed, u8::from(ctx.trace));
    write_report(&ctx.out_dir.join(name), &rep.to_json(stamp))?;
    println!("{}", rep.result_line(&metrics));
    Ok(rep.correct())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen") {
        if let Err(e) = inputs::gen_main(&args[1..]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("error: output mismatch (see MISMATCH lines)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
