//! # lbm-sparse
//!
//! Block-sparse voxel grid and AoSoA field storage (paper §V-A, Fig. 5),
//! the single-level data structure underneath the multi-resolution stack of
//! `lbm-core`.
//!
//! - [`coords`]: integer cell/block coordinates and boxes;
//! - [`bitmask`]: per-block active-cell masks;
//! - [`sfc`]: Sweep / Morton / Hilbert block ordering;
//! - [`grid`]: the block-sparse grid topology with 27-slot neighbor tables;
//! - [`field`]: per-block component-major field storage and double
//!   buffering;
//! - [`offsets`]: precomputed per-direction streaming source decompositions
//!   (the copy-run plans every block's streaming gather replays);
//! - [`partition`]: block partitioning for intra-kernel parallelism —
//!   work-stealing chunk granularity.

#![warn(missing_docs)]

pub mod bitmask;
pub mod coords;
pub mod field;
pub mod grid;
pub mod offsets;
pub mod partition;
pub mod sfc;

pub use bitmask::BitMask;
pub use coords::{Box3, Coord};
pub use field::{DoubleBuffer, Field};
pub use grid::{dir_slot, Block, BlockIdx, CellRef, GridBuilder, SparseGrid, INVALID_BLOCK};
pub use offsets::{CopyRun, DirOffsets, DirRegion, StreamOffsets, CENTER_SLOT};
pub use partition::chunk_granularity;
pub use sfc::SpaceFillingCurve;
