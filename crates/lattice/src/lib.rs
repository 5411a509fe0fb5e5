//! # lbm-lattice
//!
//! Mathematical substrate for the lattice Boltzmann method, as used by the
//! grid-refinement engine in `lbm-core` (reproduction of Mahmoud et al.,
//! *Optimized GPU Implementation of Grid Refinement in Lattice Boltzmann
//! Method*, IPDPS 2024).
//!
//! Contents (paper §II):
//! - [`velocity_set`]: D2Q9 / D3Q19 / D3Q27 discrete velocity sets;
//! - [`equilibrium`](mod@equilibrium): second-order Maxwellian equilibrium (Eq. 5);
//! - [`moments`]: density, velocity, pressure, stress (Eqs. 6–8);
//! - [`collision`]: BGK (Eq. 3) and entropic KBC operators;
//! - [`scaling`]: per-level relaxation rates under acoustic scaling (Eq. 9);
//! - [`units`]: physical ↔ lattice unit conversion and Reynolds sizing;
//! - [`real`]: `f64`/`f32` scalar abstraction.
//!
//! Everything here is *local* cell math with no knowledge of grids or
//! neighbors; storage and streaming live in `lbm-sparse` / `lbm-core`.

#![warn(missing_docs)]

#[macro_use]
mod lanes;

pub mod collision;
pub mod equilibrium;
pub mod moments;
pub mod real;
pub mod scaling;
pub mod units;
pub mod velocity_set;

pub use collision::{Bgk, Collision, Kbc};
pub use equilibrium::{equilibrium, equilibrium_dir};
pub use moments::{density, density_velocity, momentum, pressure, second_moment};
pub use real::Real;
pub use scaling::{omega0_from_level, omega_at_level, substeps_at_level};
pub use units::{relaxation_for_reynolds, relaxation_for_reynolds_multilevel, UnitConverter};
pub use velocity_set::{VelocitySet, D2Q9, D3Q19, D3Q27, MAX_Q};
