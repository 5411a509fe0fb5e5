//! # lbm-core
//!
//! The paper's primary contribution: a GPU-optimized multi-resolution
//! (grid-refinement) lattice Boltzmann engine (Mahmoud, Salehipour,
//! Meneghin — *Optimized GPU Implementation of Grid Refinement in Lattice
//! Boltzmann Method*, IPDPS 2024).
//!
//! Structure:
//! - [`spec`]: octree grid specification (ownership, refinement, solids);
//! - [`boundary`]: boundary-condition assignment;
//! - [`multigrid`]: construction of the level stack with precomputed
//!   interface links (§V-B);
//! - [`flags`] / [`links`] / [`level`]: the per-level data structure;
//! - [`kernels`]: the C/S/E/O/A kernels, separate and fused (§III–IV);
//! - [`variant`]: the fusion configurations of Fig. 4/Fig. 9;
//! - [`program`]: the unified step program (launch sequence + declared
//!   accesses), shared by execution and the graphs;
//! - [`engine`]: the nonuniform time stepper (Algorithm 1, restructured),
//!   executing the program eagerly or wave-scheduled from the graph;
//! - [`graphs`]: Fig.-2 dependency-graph generators;
//! - [`checkpoint`]: crash-safe snapshot format and runtime health guards
//!   (checkpoint/restart, as in the waLBerla/Palabos production codes);
//! - [`memory_report`]: ghost-layer and capacity accounting (§IV-A, §VI-B).

#![warn(missing_docs)]

pub mod boundary;
pub mod checkpoint;
pub mod engine;
pub mod flags;
pub mod graphs;
pub mod kernels;
pub mod level;
pub mod links;
pub mod memory_report;
pub mod multigrid;
pub mod program;
pub mod spec;
pub mod variant;

pub use boundary::{AllWalls, Boundary, BoundarySpec};
pub use checkpoint::{
    CheckpointError, HealthAction, HealthCause, HealthEvent, HealthGuard, HealthPolicy,
};
pub use engine::{Engine, EngineBuilder, ExecMode};
pub use graphs::{alg1_graph, step_graph, step_graph_for};
pub use kernels::InteriorPath;
pub use level::Level;
pub use memory_report::{plan_hypothetical, report, MemoryReport};
pub use multigrid::MultiGrid;
pub use spec::{census, presets, GridSpec, LevelCensus};
pub use variant::{FusionConfig, Variant};
