//! # lbm-gpu
//!
//! The **virtual GPU** substrate. The paper's contribution is a set of
//! GPU-execution decisions — which kernels exist, what each loads and
//! stores, where synchronization happens, where atomics replace gathers.
//! This crate reproduces that execution model on CPU hardware:
//!
//! - [`exec::Executor`]: kernel launches mapping one sparse-grid block to
//!   one "CUDA block" (a work item claimed from the in-crate
//!   [`exec::ThreadPool`]), with a configurable thread count;
//! - [`atomic::AtomicF64Field`]: the shared `f64` slots the scatter
//!   Accumulate step deposits into (CUDA's `atomicAdd(double*)` targets);
//! - [`counters::Profiler`]: per-kernel launch / traffic / sync metering;
//! - [`device::DeviceModel`]: an A100-40GB analytic cost model turning the
//!   metered traffic into modeled GPU time (LBM is bandwidth-bound, so
//!   `time ≈ launches·overhead + syncs·overhead + bytes/bandwidth`);
//! - [`memory::MemoryPlan`]: allocation planning against the 40 GB budget
//!   for the paper's capacity claims (Fig. 1, §VI-B).
//!
//! See DESIGN.md §2 for why this substitution preserves the paper's
//! experimental shape.

#![warn(missing_docs)]

pub mod atomic;
pub mod counters;
pub mod device;
pub mod exec;
pub mod memory;

pub use atomic::AtomicF64Field;
pub use counters::{
    with_span_context, KernelSpan, KernelStats, LaunchCost, LaunchCostBuilder, Profiler,
};
pub use device::DeviceModel;
pub use exec::{Executor, ThreadPool, THREADS_ENV};
pub use memory::{max_uniform_cube, MemoryPlan};
