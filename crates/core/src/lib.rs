//! # iHTL — in-Hub Temporal Locality
//!
//! The primary contribution of *"Exploiting in-Hub Temporal Locality in
//! SpMV-based Graph Processing"* (Koohi Esfahani, Kilpatrick,
//! Vandierendonck — ICPP 2021): a structure-aware SpMV that mixes push and
//! pull **in one traversal**, choosing the direction per *vertex type*.
//!
//! The observation: in a pull traversal the cache holds *source* data, and
//! an in-hub has far more distinct sources than the cache can hold — so
//! pulling a hub misses on almost every edge. But the set of *hubs* is tiny.
//! Traversing the incoming edges of hubs in **push** direction turns those
//! misses into random writes to a hub-sized buffer that fits in L2.
//!
//! ## Pipeline
//!
//! 1. [`IhtlGraph::build`] selects in-hubs (highest in-degree), sizes
//!    *flipped blocks* to the cache budget, accepts additional blocks by the
//!    paper's structural 50 % rule, relabels vertices into
//!    `hubs | VWEH | FV`, and materialises the blocked adjacency structure
//!    (paper §3.1–3.3, Figures 3–6).
//! 2. [`IhtlGraph::spmv`] executes Algorithm 3: parallel buffered push over
//!    the flipped blocks, buffer merge, parallel pull over the sparse block.
//!
//! ```
//! use ihtl_core::{IhtlConfig, IhtlGraph};
//! use ihtl_graph::graph::paper_example_graph;
//! use ihtl_traversal::Add;
//!
//! let g = paper_example_graph();
//! // Cache budget of 2 vertices — the worked example of the paper's Fig. 2.
//! let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
//! let ih = IhtlGraph::build(&g, &cfg);
//! assert_eq!(ih.n_blocks(), 1);
//! assert_eq!(ih.n_hubs(), 2);
//!
//! let x_new = ih.to_new_order(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
//! let mut y_new = vec![0.0; 8];
//! let mut bufs = ih.new_buffers();
//! ih.spmv::<Add>(&x_new, &mut y_new, &mut bufs);
//! let y = ih.to_old_order(&y_new);
//! // y[2] = sum of x over in-neighbours {1,4,5,6,7} of vertex 2.
//! assert_eq!(y[2], 2.0 + 5.0 + 6.0 + 7.0 + 8.0);
//! ```

pub mod build;
pub mod config;
pub mod exec;
pub mod graph;
pub mod io;
pub mod stats;

pub use config::{BlockCountMode, IhtlConfig};
pub use exec::{ExecBreakdown, ThreadBuffers};
pub use graph::{FlippedBlock, IhtlGraph, VertexClass};
pub use stats::BuildStats;
