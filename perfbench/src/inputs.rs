//! Workload inputs: R-MAT social graphs generated from the run seed and
//! cached as `IHTLGRPH` images, so a repeated seed skips generation.
//!
//! Generation runs in a child process (`ihtl-perfbench gen ...`): its
//! memory peak and time stay out of every measured process, and the
//! program under test only ever receives the image.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_graph::edgelist::EdgeList;
use ihtl_graph::graph::Graph;

/// Images of one size kept in the cache; older ones are deleted first.
const CACHE_KEEP_PER_SIZE: usize = 4;

/// A generated (or cached) graph image.
pub struct Image {
    pub path: PathBuf,
    /// Seconds the generator took when the image was made (context only;
    /// never part of any set-up time).
    pub gen_s: f64,
}

/// Derives an independent generator seed for one input of a run.
pub fn derive_seed(run_seed: u64, tag: &str) -> u64 {
    let mut h = ihtl_graph::io::Fnv1a::new();
    h.write(&run_seed.to_le_bytes());
    h.write(tag.as_bytes());
    h.finish()
}

/// The R-MAT social-profile graph with `2^scale` vertices before
/// compaction and `edges` edges, generated with `seed`, as an image under
/// `cache_dir`. Built the way `ihtl-serve` builds an `rmat` source:
/// zero-degree vertices are compacted away.
pub fn rmat_image(cache_dir: &Path, scale: u32, edges: usize, seed: u64) -> Result<Image, String> {
    let stem = format!("rmat-social-s{scale}-e{edges}");
    let path = cache_dir.join(format!("{stem}-g{seed:016x}.ihtlgrph"));
    let gen_file = path.with_extension("gen_s");
    if path.is_file() {
        let gen_s = std::fs::read_to_string(&gen_file)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0);
        return Ok(Image { path, gen_s });
    }
    std::fs::create_dir_all(cache_dir)
        .map_err(|e| format!("creating {}: {e}", cache_dir.display()))?;
    evict(cache_dir, &stem);
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let t = Instant::now();
    let status = Command::new(exe)
        .args(["gen", &scale.to_string(), &edges.to_string(), &seed.to_string()])
        .arg(&path)
        .status()
        .map_err(|e| format!("spawning generator: {e}"))?;
    let gen_s = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("generator failed for {}", path.display()));
    }
    std::fs::write(&gen_file, format!("{gen_s}\n"))
        .map_err(|e| format!("writing {}: {e}", gen_file.display()))?;
    Ok(Image { path, gen_s })
}

/// Keeps at most `CACHE_KEEP_PER_SIZE - 1` images of one size before a new
/// one is added, deleting the least recently modified first.
fn evict(cache_dir: &Path, stem: &str) {
    let Ok(dir) = std::fs::read_dir(cache_dir) else { return };
    let mut found: Vec<(std::time::SystemTime, PathBuf)> = dir
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "ihtlgrph")
                && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(stem))
        })
        .filter_map(|p| Some((p.metadata().ok()?.modified().ok()?, p)))
        .collect();
    found.sort();
    while found.len() >= CACHE_KEEP_PER_SIZE {
        let (_, p) = found.remove(0);
        let _ = std::fs::remove_file(p.with_extension("gen_s"));
        let _ = std::fs::remove_file(&p);
    }
}

/// Entry point of the generator child: `gen SCALE EDGES SEED OUT`.
pub fn gen_main(args: &[String]) -> Result<(), String> {
    let [scale, edges, seed, out] = args else {
        return Err("usage: gen SCALE EDGES SEED OUT".to_string());
    };
    let scale: u32 = scale.parse().map_err(|_| format!("bad scale '{scale}'"))?;
    let edges: usize = edges.parse().map_err(|_| format!("bad edge count '{edges}'"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let raw = rmat_edges(scale, edges, RmatParams::social(), seed);
    let mut el = EdgeList::from_edges(1usize << scale, raw);
    el.compact_zero_degree();
    let g = Graph::from_edge_list(&el);
    drop(el);
    ihtl_graph::io::save_graph(&g, Path::new(out)).map_err(|e| format!("writing {out}: {e}"))
}
