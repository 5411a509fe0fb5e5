//! # lbm-compare
//!
//! The Palabos-like comparator of the paper's §VI-A comparisons
//! ([`palabos`]): a conventional multi-pass, serial, dense-AoS CPU solver
//! of the same nonuniform LBM (an *independent* implementation — its
//! agreement with `lbm-core` cross-validates both).
//!
//! The waLBerla-like comparator needs no code of its own: it is the main
//! engine with 2³ blocks (`GridSpec::with_block_size(2)`) and the unfused
//! `Variant::ModifiedBaseline`, which is how `report -- compare` builds
//! it.

#![warn(missing_docs)]

pub mod palabos;

pub use palabos::PalabosLike;
