//! The engine builder's setters commute with `.collision(op)`: a setting
//! made before the collision operator is chosen reaches the built engine
//! exactly as the same setting made after it, down to the last bit of state.

use lbm_core::{
    AllWalls, Engine, EngineBuilder, ExecMode, GridSpec, HealthGuard, HealthPolicy, InteriorPath,
    MultiGrid, Variant,
};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, D3Q19};
use lbm_sparse::{Box3, Layout};

type Eng = Engine<f64, D3Q19, Bgk<f64>>;

/// Every builder setting, each set away from its default.
#[derive(Copy, Clone, Debug)]
struct Settings {
    variant: Variant,
    path: InteriorPath,
    mode: ExecMode,
    layout: Layout,
    threads: Option<usize>,
    staged: Option<bool>,
    health: Option<HealthGuard>,
}

fn apply<C>(s: Settings, b: EngineBuilder<f64, D3Q19, C>) -> EngineBuilder<f64, D3Q19, C> {
    let mut b = b
        .variant(s.variant)
        .interior_path(s.path)
        .exec_mode(s.mode)
        .layout(s.layout);
    if let Some(n) = s.threads {
        b = b.threads(n);
    }
    if let Some(on) = s.staged {
        b = b.staged_accumulate(on);
    }
    if let Some(g) = s.health {
        b = b.health(g);
    }
    b
}

fn grid() -> MultiGrid<f64, D3Q19> {
    let spec = GridSpec::new(2, Box3::from_dims(24, 24, 24), |l, p| {
        l == 0 && (3..9).contains(&p.x) && (3..9).contains(&p.y) && (3..9).contains(&p.z)
    });
    MultiGrid::build(spec, &AllWalls, 1.6)
}

/// Seeds a spatially varying state and runs four coarse steps.
fn run(mut eng: Eng) -> Eng {
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let k = (l as i32 + 3 * p.x + 5 * p.y + 7 * p.z) as f64;
            [
                0.02 * (k * 0.37).sin(),
                0.015 * (k * 0.61).cos(),
                0.01 * (k * 0.23).sin(),
            ]
        },
    );
    eng.run(4);
    eng
}

fn assert_carried(s: Settings, eng: &Eng, what: &str) {
    assert_eq!(eng.variant, s.variant, "{what}: variant");
    assert_eq!(eng.interior_path(), s.path, "{what}: interior path");
    assert_eq!(eng.exec_mode(), s.mode, "{what}: exec mode");
    assert_eq!(eng.layout(), s.layout, "{what}: layout");
    let threads = s.threads.unwrap_or(1);
    assert_eq!(eng.thread_count(), threads, "{what}: threads");
    assert_eq!(
        eng.staged_accumulate(),
        s.staged.unwrap_or(threads > 1),
        "{what}: staged Accumulate"
    );
    // The guard reports every 2 steps against an unreachable speed bound,
    // so 4 steps record exactly 2 events when it was installed.
    let events = if s.health.is_some() { 2 } else { 0 };
    assert_eq!(eng.health_events().len(), events, "{what}: health guard");
}

#[test]
fn setters_before_and_after_collision_build_the_same_engine() {
    let guard = HealthGuard::new(2)
        .max_speed(1e-12)
        .policy(HealthPolicy::Report);
    let cases = [
        Settings {
            variant: Variant::ModifiedBaseline,
            path: InteriorPath::General,
            mode: ExecMode::Graph,
            layout: Layout::Tiled { width: 32 },
            threads: Some(2),
            staged: None,
            health: Some(guard),
        },
        Settings {
            variant: Variant::FullyFused,
            path: InteriorPath::DirMajor,
            mode: ExecMode::Eager,
            layout: Layout::CellAoS,
            threads: None,
            staged: Some(true),
            health: None,
        },
    ];
    for s in cases {
        let exec = || Executor::sequential(DeviceModel::a100_40gb());
        let before = run(apply(s, Engine::builder(grid()))
            .collision(Bgk::new(1.6))
            .build(exec()));
        let after = run(apply(s, Engine::builder(grid()).collision(Bgk::new(1.6))).build(exec()));
        assert_carried(s, &before, "set before .collision");
        assert_carried(s, &after, "set after .collision");
        // The snapshot is layout-independent and carries a checksum of the
        // whole state, so equal snapshots mean bit-identical engines.
        assert!(
            before.checkpoint() == after.checkpoint(),
            "{s:?}: states differ"
        );
    }
}
