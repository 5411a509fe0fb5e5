//! Shared harness for the integration suites: seeded random 2-level
//! geometries, the refined lid-driven cavity of the golden-digest tests,
//! engine construction over every execution knob (mode, thread count,
//! health guard), bit-level field comparison, and the canonical FNV-1a
//! state digest the determinism suite pins on.
//!
//! Everything here is deterministic by construction — no ambient RNG, no
//! wall-clock — so any two engines built from the same seed start from the
//! exact same bits.
#![allow(dead_code)]

use lbm_refinement::core::{AllWalls, Engine, ExecMode, GridSpec, HealthGuard, MultiGrid, Variant};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, VelocitySet};
use lbm_refinement::problems::cavity::{Cavity, CavityConfig};
use lbm_refinement::sparse::Box3;

/// Deterministic xorshift64*: the tests must not depend on ambient RNG.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// A random but valid 2-level nested-box refinement in a 24³ finest
/// domain (coarse level is 12³; the box keeps ≥ 2 cells of margin).
pub fn random_box(seed: u64) -> ([i32; 3], [i32; 3]) {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut pick = |lo: i32, hi: i32| lo + (xorshift(&mut s) % (hi - lo) as u64) as i32;
    let lo = [pick(2, 5), pick(2, 5), pick(2, 5)];
    let hi = [
        (lo[0] + pick(2, 5)).min(10),
        (lo[1] + pick(2, 5)).min(10),
        (lo[2] + pick(2, 5)).min(10),
    ];
    (lo, hi)
}

/// The quasi-2D lid-driven cavity with `n` finest cells per side, refined
/// to 2 levels in a 4-cell wall band, 8 cells deep: the workload of the
/// golden-digest thread-sweep and snapshot-file restart tests.
pub fn refined_cavity(n: usize) -> Cavity {
    Cavity::new(CavityConfig {
        n_finest: n,
        levels: 2,
        wall_band: 4,
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    })
}

/// Execution knobs for [`seeded_engine_with`]; `Default` reproduces the
/// original single-thread sequential configuration.
#[derive(Copy, Clone, Debug, Default)]
pub struct EngineOpts {
    /// Eager or wave-scheduled graph execution.
    pub mode: ExecMode,
    /// Kernel-pool width (`None`: one thread, the sequential executor).
    pub threads: Option<usize>,
    /// Periodic health checks (`None`: no checks, the historical default).
    pub health: Option<HealthGuard>,
}

/// Builds an engine over the seeded geometry with a deterministic,
/// spatially varying initial velocity, honoring every knob in `opts`.
pub fn seeded_engine_with<V: VelocitySet>(
    seed: u64,
    variant: Variant,
    opts: EngineOpts,
) -> Engine<f64, V, Bgk<f64>> {
    let (lo, hi) = random_box(seed);
    let spec = GridSpec::new(2, Box3::from_dims(24, 24, 24), move |l, p| {
        l == 0
            && (lo[0]..hi[0]).contains(&p.x)
            && (lo[1]..hi[1]).contains(&p.y)
            && (lo[2]..hi[2]).contains(&p.z)
    });
    let grid = MultiGrid::<f64, V>::build(spec, &AllWalls, 1.6);
    let mut b = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .variant(variant)
        .exec_mode(opts.mode);
    if let Some(g) = opts.health {
        b = b.health(g);
    }
    let mut eng = b.build(Executor::with_threads(
        DeviceModel::a100_40gb(),
        opts.threads.unwrap_or(1),
    ));
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        move |l, p| {
            let k = (seed as i32 + l as i32 + 3 * p.x + 5 * p.y + 7 * p.z) as f64;
            [
                0.02 * (k * 0.37).sin(),
                0.015 * (k * 0.61).cos(),
                0.01 * (k * 0.23).sin(),
            ]
        },
    );
    eng
}

/// Sequential-executor engine in the given execution mode.
pub fn mode_engine<V: VelocitySet>(
    seed: u64,
    variant: Variant,
    mode: ExecMode,
) -> Engine<f64, V, Bgk<f64>> {
    seeded_engine_with(
        seed,
        variant,
        EngineOpts {
            mode,
            ..EngineOpts::default()
        },
    )
}

/// Asserts bit-for-bit equality of every population slot in both halves of
/// every level's double buffer.
pub fn assert_bits_identical<V: VelocitySet>(
    a: &Engine<f64, V, Bgk<f64>>,
    b: &Engine<f64, V, Bgk<f64>>,
    what: &str,
) {
    for (l, (la, lb)) in a.grid.levels.iter().zip(&b.grid.levels).enumerate() {
        for h in 0..2 {
            let fa = la.f.half(h).as_slice();
            let fb = lb.f.half(h).as_slice();
            assert_eq!(fa.len(), fb.len(), "{what}: level {l} half {h} size");
            for (i, (x, y)) in fa.iter().zip(fb).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{what}: level {l} half {h} slot {i}: {x:e} vs {y:e}"
                );
            }
        }
    }
}

/// FNV-1a digest of every active population of every level, folded in
/// canonical `(level, block, component, cell)` accessor order over the
/// source half. Golden digests are pinned as its 16-digit hex rendering.
pub fn grid_digest<V: VelocitySet>(grid: &MultiGrid<f64, V>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for level in &grid.levels {
        let f = level.f.src();
        for (r, _) in level.grid.iter_active() {
            for i in 0..V::Q {
                for b in f.get(r.block, i, r.cell).to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}
