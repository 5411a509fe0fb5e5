//! # lbm-runtime
//!
//! Neon-style programming-model runtime (paper §V-C): kernels declare which
//! fields they read/write/atomically-accumulate; the runtime extracts the
//! data-dependency graph, groups independent kernels into waves, and
//! places synchronization points only between waves.
//!
//! - [`graph`]: field ids, kernel nodes, dependency extraction, Fig. 2 DOT
//!   export, kernel/sync counting;
//! - [`schedule`]: ASAP wave schedule replayed on the virtual GPU executor.

#![warn(missing_docs)]

pub mod graph;
pub mod schedule;

pub use graph::{FieldId, KernelNode, TaskGraph};
pub use schedule::Schedule;
