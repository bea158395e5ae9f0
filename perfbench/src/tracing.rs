//! The traced pass: per-layer self time from `ihtl_trace` spans, and the
//! Chrome trace-event file.
//!
//! The benchmark opens its own spans around each call into a layer, named
//! `<layer>.<call>`; the program's spans (recorded by the crates
//! themselves) are assigned to the layer that records them.

use std::collections::HashMap;
use std::path::Path;

use ihtl_trace::ThreadTrace;

use crate::report::{quantile, Report};

/// The layer a span belongs to.
fn layer_of(name: &str) -> &'static str {
    if let Some((layer, _)) = name.split_once('.') {
        return match layer {
            "graph" => "graph",
            "core" => "core",
            "traversal" => "traversal",
            "apps" => "apps",
            "serve" => "serve",
            "router" => "router",
            "loadgen" => "loadgen",
            _ => "other",
        };
    }
    match name {
        "auto_select" | "shard_extract" => "graph",
        "ihtl_build" | "hub_candidates" | "classify" | "relabel" | "flipped_blocks"
        | "block_accept" | "sparse_block" | "task_build" | "ihtl_spmv" | "ihtl_spmm"
        | "fb_push" | "fb_merge" | "sparse_pull" | "push_task" | "merge_task" | "hybrid_spmv" => {
            "core"
        }
        "pull_spmv" | "pull_spmm" | "pull_task" | "pull_segmented" | "pull_chunked" | "pb_spmv"
        | "pb_bin" | "pb_merge" | "bin_task" | "push_buffered" | "push_atomic"
        | "push_partitioned" => "traversal",
        "pagerank" | "spmv" | "sssp" | "cc" | "bfs" => "apps",
        "job" | "batch" | "evict" | "store_load" | "store_write" | "sweep" => "serve",
        "router_job" | "router_register" => "router",
        "worker_busy" | "worker_idle" => "parallel",
        _ => "other",
    }
}

/// Self time of every span (its duration minus the part its same-thread
/// children cover), summed per layer, in milliseconds. Pool-worker spans
/// sit on their own threads, so parallel work counts once per worker.
pub fn self_ms_by_layer(threads: &[ThreadTrace]) -> Vec<(&'static str, f64)> {
    let mut by_layer: HashMap<&'static str, f64> = HashMap::new();
    for t in threads {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &t.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        for s in &t.spans {
            // Idle time is waiting, not work in any layer.
            if s.name == "worker_idle" {
                continue;
            }
            let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *by_layer.entry(layer_of(s.name)).or_default() += own as f64 / 1e6;
        }
    }
    let mut out: Vec<_> = by_layer.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Snapshots every thread's spans, writes them as a Chrome trace-event
/// file to `path`, and records per-layer self time and span counts.
pub fn finish(path: &Path, rep: &mut Report) -> Result<(), String> {
    let threads = ihtl_trace::snapshot();
    let doc = ihtl_trace::chrome::export(&threads);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    rep.context("trace_file", path.display().to_string());
    for (layer, ms) in self_ms_by_layer(&threads) {
        rep.value(&format!("trace.self_ms.{layer}"), "ms", ms);
    }
    let spans: usize = threads.iter().map(|t| t.spans.len()).sum();
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    rep.value("trace.spans", "count", spans as f64);
    rep.value("trace.dropped", "count", dropped as f64);
    Ok(())
}

/// Percentage by which `traced` exceeds `untraced` (both medians of the
/// same operation, alternated in one process).
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// Turns this process's tracing on or off.
pub fn set(guard: &mut Option<ihtl_trace::EnabledGuard>, on: bool) {
    if !on {
        drop(guard.take());
    } else if guard.is_none() {
        *guard = Some(ihtl_trace::enable());
    }
}

/// A stretch of a closed loop run with tracing on or off: (traced,
/// completed operations, seconds).
pub type Slice = (bool, usize, f64);

/// Records `trace_overhead_pct` from alternating traced and untraced
/// slices: the median time per completed operation of each kind.
pub fn record_slice_overhead(slices: &[Slice], rep: &mut Report) {
    let per_op = |traced: bool| -> Vec<f64> {
        slices.iter().filter(|s| s.0 == traced && s.1 > 0).map(|s| s.2 / s.1 as f64).collect()
    };
    let (on, off) = (per_op(true), per_op(false));
    if !on.is_empty() && !off.is_empty() {
        let pct = overhead_pct(quantile(&off, 0.5), quantile(&on, 0.5));
        rep.value("trace_overhead_pct", "%", pct);
    }
}
