//! A waLBerla-like comparator (paper §VI-A): the same physics executed the
//! way the paper diagnoses a fresh, unoptimized GPU port of a
//! block-structured CPU framework would run —
//!
//! - memory blocks equal to the octree branching factor, 2³ cells
//!   (paper §V-B: "2³ memory blocks provide low locality for stencil
//!   operations, and 2³ CUDA blocks do not declare enough threads to fill
//!   up an entire CUDA warp");
//! - no kernel fusion: the modified-baseline pipeline with separate
//!   Collision, Streaming, Explosion, Coalescence and Accumulate kernels.
//!
//! Implemented as a configuration of the main engine, so the comparison
//! isolates exactly those two decisions.

use lbm_core::{BoundarySpec, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::Executor;
use lbm_lattice::{Bgk, Collision, Real, VelocitySet};

/// Rebuilds `spec` with the waLBerla-like 2³ block granularity.
pub fn with_tiny_blocks(spec: GridSpec) -> GridSpec {
    spec.with_block_size(2)
}

/// Builds the waLBerla-like engine: 2³ blocks + unfused kernels.
pub fn engine<T, V, C>(
    spec: GridSpec,
    bc: &dyn BoundarySpec,
    omega0: f64,
    base_op: C,
    exec: Executor,
) -> Engine<T, V, C>
where
    T: Real,
    V: VelocitySet,
    C: Collision<T, V>,
{
    let grid = MultiGrid::<T, V>::build(with_tiny_blocks(spec), bc, omega0);
    Engine::builder(grid)
        .collision(base_op)
        .variant(Variant::ModifiedBaseline)
        .build(exec)
}

/// Convenience: BGK/D3Q19 f64 engine.
pub fn engine_bgk_d3q19(
    spec: GridSpec,
    bc: &dyn BoundarySpec,
    omega0: f64,
    exec: Executor,
) -> Engine<f64, lbm_lattice::D3Q19, Bgk<f64>> {
    engine(spec, bc, omega0, Bgk::new(omega0), exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::AllWalls;
    use lbm_gpu::DeviceModel;
    use lbm_sparse::Box3;

    #[test]
    fn uses_tiny_blocks_and_baseline_variant() {
        let spec = GridSpec::new(2, Box3::from_dims(16, 16, 16), |l, p| {
            l == 0 && (2..6).contains(&p.x) && (2..6).contains(&p.y) && (2..6).contains(&p.z)
        });
        let mut eng = engine_bgk_d3q19(
            spec,
            &AllWalls,
            1.5,
            Executor::new(DeviceModel::a100_40gb()),
        );
        assert_eq!(eng.variant(), Variant::ModifiedBaseline);
        assert_eq!(eng.grid.levels[0].grid.block_size(), 2);
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.01, 0.0, 0.0]);
        let m0 = eng.grid.total_mass();
        eng.run(3);
        // Cubic refined region ⇒ corner-bounded drift (see lbm-core's
        // conservation tests), far below 1e-7 over three steps.
        assert!(((eng.grid.total_mass() - m0) / m0).abs() < 1e-7);
    }

    #[test]
    fn tiny_blocks_launch_many_more_blocks() {
        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
        let ours = MultiGrid::<f64, lbm_lattice::D3Q19>::build(
            spec,
            &AllWalls,
            1.0,
        );
        let spec2 = GridSpec::uniform(Box3::from_dims(16, 16, 16)).with_block_size(2);
        let theirs = MultiGrid::<f64, lbm_lattice::D3Q19>::build(spec2, &AllWalls, 1.0);
        assert_eq!(ours.levels[0].grid.num_blocks(), 64);
        assert_eq!(theirs.levels[0].grid.num_blocks(), 512);
    }
}
