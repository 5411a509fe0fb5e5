//! # lbm-problems
//!
//! The paper's benchmark problems (§VI) plus analytic validation flows:
//!
//! - [`cavity`]: lid-driven cavity with near-wall refinement and Ghia
//!   validation (Figs. 6–7);
//! - [`sphere`]: flow over a sphere in a virtual wind tunnel, KBC/D3Q27,
//!   three refinement levels (Fig. 8, Table I);
//! - [`airplane`]: the Fig.-1 airplane tunnel — procedural geometry,
//!   full-scale memory census, runnable scaled version;
//! - [`tgv`]: Taylor–Green vortex accuracy benchmark (beyond paper);
//! - [`geometry`]: signed-distance shapes, voxelization, distance-band
//!   refinement;
//! - [`ghia`]: the Ghia et al. (1982) reference tables of Fig. 7;
//! - [`windtunnel`]: shared inlet/outflow/wall boundary assignment;
//! - [`diagnostics`]: kinetic-energy monitor, steady-state driver,
//!   profile CSV.

#![warn(missing_docs)]

pub mod airplane;
pub mod cavity;
pub mod diagnostics;
pub mod geometry;
pub mod ghia;
pub mod sphere;
pub mod tgv;
pub mod vtk;
pub mod windtunnel;

pub use airplane::{airplane_sdf, AirplaneConfig, AirplaneEngine, AirplaneFlow};
pub use cavity::{Cavity, CavityConfig, CavityEngine};
pub use diagnostics::SteadyOutcome;
pub use geometry::{band_refinement, solid_at_finest, Capsule, Sdf, Sphere, Union};
pub use ghia::ProfileError;
pub use sphere::{SphereConfig, SphereEngine, SphereFlow};
pub use tgv::{Tgv, TgvConfig, TgvEngine};
pub use windtunnel::tunnel_boundary;
