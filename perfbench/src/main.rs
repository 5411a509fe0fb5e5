//! Measurement side of the refined-LBM benchmark (metric dictionary:
//! `METRICS.md`).
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 --out DIR
//! ```
//!
//! Builds one named workload through the engine's public API, measures it,
//! runs the output checks and prints one JSON record of raw samples as the
//! last line of stdout; `run.py` reduces the record to the reported
//! metrics. Every time is taken from outside the engine — around
//! `MultiGrid::build`, `init_equilibrium`, `Engine::step`, the checkpoint
//! and probe calls — or read from the executor's profiler.
//!
//! `--trace 0` is the timed run: interleaved rounds of the `nproc`-thread
//! engine and a 1-thread twin, tracing off, each step followed by a stretch
//! of the fixed reference kernel (`reference.rs`) on the same thread count,
//! so that `run.py` can divide out the shared host's drifting speed.
//! `--trace 1` is the separate
//! per-layer run: a profiled window, a short span-traced window (its chrome
//! trace goes to `DIR`), and isolated timings of the schedule, collision,
//! checkpoint, probe and host-bandwidth layers.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use lbm_refinement::core::{
    AllWalls, BoundarySpec, Engine, ExecMode, GridSpec, HealthGuard, HealthPolicy, MultiGrid,
    Variant,
};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, Collision, Kbc, VelocitySet, D3Q19, D3Q27, MAX_Q};
use lbm_refinement::problems::{tunnel_boundary, Cavity, CavityConfig, SphereConfig, SphereFlow};
use lbm_refinement::sparse::Box3;

mod reference;
use reference::Reference;

/// Engine builds per run; `setup_s` and the `core.*` build times are their
/// medians.
const SETUP_REPEATS: usize = 9;
/// Coarse steps each engine takes before anything is timed.
const WARMUP_STEPS: usize = 5;
/// Coarse steps per timed round and engine. Equal to the cavity's
/// health-check period, and the steps taken before the first round (warm-up
/// and the reference sizing round) are a multiple of it, so every round
/// carries the same guard work, on its last step.
const ROUND_STEPS: usize = 5;
const _: () = assert!(WARMUP_STEPS % ROUND_STEPS == 0);
/// Time of the reference stretch after each timed step, as a share of the
/// step's own time.
const REF_SHARE: f64 = 0.5;
/// Coarse steps of the span-traced window.
const TRACED_STEPS: usize = 10;
/// Repeats of each isolated layer timing (schedule, checkpoint, probes).
const LAYER_REPEATS: usize = 5;
/// Cells of the finest level fed to the isolated collision loop.
const COLLIDE_CELLS: usize = 4096;
/// Timed passes of the host streaming copy.
const COPY_PASSES: usize = 5;
/// Amplitude of the seeded initial-velocity perturbation (lattice units).
const PERTURBATION: f64 = 2e-3;

// ---------------------------------------------------------------------------
// Workloads

/// One named workload: the grid, boundaries, operator and execution
/// settings, and the unperturbed initial velocity.
trait Workload {
    type V: VelocitySet;
    type C: Collision<f64, Self::V>;
    /// Relative mass drift allowed over a run; `None` for an open domain
    /// (inlet and outlet), whose mass is not conserved.
    const MASS_DRIFT: Option<f64>;
    fn spec(&self) -> GridSpec;
    fn boundary(&self) -> Box<dyn BoundarySpec + '_>;
    fn omega0(&self) -> f64;
    fn op(&self) -> Self::C;
    fn mode(&self) -> ExecMode {
        ExecMode::Eager
    }
    fn guard(&self) -> Option<HealthGuard> {
        None
    }
    /// Initial velocity at a point given in finest-level coordinates.
    fn velocity(&self, x: [f64; 3]) -> [f64; 3];
}

/// The quickstart box: 64³, centre refined once, BGK D3Q19, all walls.
struct Box2Bgk;

impl Workload for Box2Bgk {
    type V = D3Q19;
    type C = Bgk<f64>;
    // Interface corners leak ~1e-8 per coarse step; a run takes < 1000.
    const MASS_DRIFT: Option<f64> = Some(1e-4);
    fn spec(&self) -> GridSpec {
        GridSpec::new(2, Box3::from_dims(64, 64, 64), |level, p| {
            level == 0 && (8..24).contains(&p.x) && (8..24).contains(&p.y) && (8..24).contains(&p.z)
        })
    }
    fn boundary(&self) -> Box<dyn BoundarySpec + '_> {
        Box::new(AllWalls)
    }
    fn omega0(&self) -> f64 {
        1.6
    }
    fn op(&self) -> Bgk<f64> {
        Bgk::new(self.omega0())
    }
    fn velocity(&self, x: [f64; 3]) -> [f64; 3] {
        // The quickstart's gentle vortex across the interface.
        let (dx, dy) = (x[0] - 32.0, x[1] - 32.0);
        let w = 0.05 * (-(dx * dx + dy * dy) / 200.0).exp();
        [-w * dy / 16.0, w * dx / 16.0, 0.0]
    }
}

/// The smallest Table-I sphere at 1/4 scale: KBC D3Q27, three levels.
struct Sphere3Kbc(SphereFlow);

impl Workload for Sphere3Kbc {
    type V = D3Q27;
    type C = Kbc<f64>;
    const MASS_DRIFT: Option<f64> = None;
    fn spec(&self) -> GridSpec {
        self.0.spec()
    }
    fn boundary(&self) -> Box<dyn BoundarySpec + '_> {
        let c = &self.0.config;
        Box::new(tunnel_boundary(c.size, c.levels, c.u_inlet))
    }
    fn omega0(&self) -> f64 {
        self.0.omega0
    }
    fn op(&self) -> Kbc<f64> {
        Kbc::new(self.0.omega0)
    }
    fn velocity(&self, _x: [f64; 3]) -> [f64; 3] {
        [self.0.config.u_inlet, 0.0, 0.0]
    }
}

/// The §VI-A cavity, n = 48, full 3D, three levels, graph execution and a
/// rollback health guard every 5 coarse steps.
struct Cavity3Guarded(Cavity);

impl Workload for Cavity3Guarded {
    type V = D3Q19;
    type C = Bgk<f64>;
    // The moving lid's edges exchange mass with the walls; the drift stays
    // near 1e-4 over the ~130 coarse steps of a run.
    const MASS_DRIFT: Option<f64> = Some(1e-3);
    fn spec(&self) -> GridSpec {
        self.0.spec()
    }
    fn boundary(&self) -> Box<dyn BoundarySpec + '_> {
        Box::new(self.0.boundary())
    }
    fn omega0(&self) -> f64 {
        self.0.omega0
    }
    fn op(&self) -> Bgk<f64> {
        Bgk::new(self.0.omega0)
    }
    fn mode(&self) -> ExecMode {
        ExecMode::Graph
    }
    fn guard(&self) -> Option<HealthGuard> {
        Some(HealthGuard::new(5).policy(HealthPolicy::RollbackToLastCheckpoint(1)))
    }
    fn velocity(&self, _x: [f64; 3]) -> [f64; 3] {
        [0.0; 3]
    }
}

// ---------------------------------------------------------------------------
// Seeded inputs

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A smooth seeded perturbation of the initial velocity: three Fourier
/// modes with seed-drawn wave numbers, phases and directions.
struct Perturbation {
    modes: Vec<([f64; 3], f64, [f64; 3])>,
}

impl Perturbation {
    fn new(seed: u64, extent: [f64; 3]) -> Self {
        let mut rng = Rng::new(seed);
        let tau = std::f64::consts::TAU;
        let modes = (0..3)
            .map(|_| {
                let k = extent.map(|e| tau * (1 + rng.next_u64() % 3) as f64 / e);
                let phase = tau * rng.unit();
                let dir = [0; 3].map(|_: i32| PERTURBATION * (2.0 * rng.unit() - 1.0));
                (k, phase, dir)
            })
            .collect();
        Self { modes }
    }

    fn at(&self, x: [f64; 3]) -> [f64; 3] {
        let mut u = [0.0; 3];
        for (k, phase, dir) in &self.modes {
            let s = (k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + phase).sin();
            for a in 0..3 {
                u[a] += dir[a] * s;
            }
        }
        u
    }
}

// ---------------------------------------------------------------------------
// Set-up

/// The engine type a workload builds.
type Eng<W> = Engine<f64, <W as Workload>::V, <W as Workload>::C>;

struct Built<W: Workload> {
    eng: Eng<W>,
    build_s: f64,
    assemble_s: f64,
    init_s: f64,
}

/// Builds the grid, assembles the engine on a `threads`-wide executor and
/// initialises it to equilibrium at the workload's velocity plus the
/// seeded perturbation, timing each stage.
fn set_up<W: Workload>(w: &W, threads: usize, pert: &Perturbation) -> Built<W> {
    let t0 = Instant::now();
    let grid = MultiGrid::<f64, W::V>::build(w.spec(), &*w.boundary(), w.omega0());
    let t1 = Instant::now();
    let mut builder = Engine::builder(grid)
        .collision(w.op())
        .variant(Variant::FusedAll)
        .exec_mode(w.mode());
    if let Some(guard) = w.guard() {
        builder = builder.health(guard);
    }
    let mut eng = builder.build(Executor::with_threads(DeviceModel::a100_40gb(), threads));
    let t2 = Instant::now();
    let finest = eng.grid.num_levels() as u32 - 1;
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let s = (1 << (finest - l)) as f64;
            let x = [
                (p.x as f64 + 0.5) * s,
                (p.y as f64 + 0.5) * s,
                (p.z as f64 + 0.5) * s,
            ];
            let (u, du) = (w.velocity(x), pert.at(x));
            [u[0] + du[0], u[1] + du[1], u[2] + du[2]]
        },
    );
    let t3 = Instant::now();
    Built {
        eng,
        build_s: (t1 - t0).as_secs_f64(),
        assemble_s: (t2 - t1).as_secs_f64(),
        init_s: (t3 - t2).as_secs_f64(),
    }
}

fn extent(spec: &GridSpec) -> [f64; 3] {
    spec.finest_domain.extent().map(|e| e as f64)
}

// ---------------------------------------------------------------------------
// Output checks

/// FNV-1a over every active population of every level (source half), in
/// canonical `(level, block, component, cell)` accessor order — independent
/// of layout and thread count.
fn digest<V: VelocitySet, C>(eng: &Engine<f64, V, C>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for level in &eng.grid.levels {
        let f = level.f.src();
        for (r, _) in level.grid.iter_active() {
            for i in 0..V::Q {
                for b in f.get(r.block, i, r.cell).to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// The output checks of one run: `en` is the `nproc`-thread engine, `e1`
/// its 1-thread twin after the same number of coarse steps, `mass0` the
/// initial mass.
fn checks<W: Workload>(w: &W, en: &Eng<W>, e1: &Eng<W>, mass0: f64) -> Vec<Check> {
    let mut out = Vec::new();
    for (name, eng) in [("finite_nproc", en), ("finite_1t", e1)] {
        out.push(Check {
            name,
            ok: eng.grid.is_finite(),
            detail: String::new(),
        });
    }
    let speed = en.grid.max_speed();
    out.push(Check {
        name: "max_speed_below_cs",
        ok: speed < 1.0 / 3f64.sqrt(),
        detail: format!("{speed:.6}"),
    });
    if let Some(bound) = W::MASS_DRIFT {
        let drift = (en.grid.total_mass() - mass0).abs() / mass0;
        out.push(Check {
            name: "mass_drift",
            ok: drift <= bound,
            detail: format!("{drift:.3e}"),
        });
    }
    let (dn, d1) = (digest(en), digest(e1));
    out.push(Check {
        name: "digest_nproc_eq_1t",
        ok: dn == d1 && en.coarse_steps() == e1.coarse_steps(),
        detail: format!(
            "{dn:016x}/{d1:016x} after {}/{} steps",
            en.coarse_steps(),
            e1.coarse_steps()
        ),
    });
    if w.guard().is_some() {
        let events = en.health_events().len() + e1.health_events().len();
        out.push(Check {
            name: "no_health_events",
            ok: events == 0 && !en.halted() && !e1.halted(),
            detail: format!("{events} events"),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Host bandwidth ceiling

/// Size of the largest last-level cache reported under sysfs, in bytes.
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .ok()?
        .flatten()
    {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let (Ok(level), size) = (level.trim().parse::<u32>(), size.trim()) else {
            continue;
        };
        let (digits, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        if let Ok(n) = digits.parse::<u64>() {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, n * mult));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Streaming copy between two arrays of at least 4× the last-level cache,
/// split over `threads` threads. Returns `(llc_bytes, array_bytes,
/// GB/s per pass)`, counting the bytes read plus the bytes written.
fn host_bandwidth(threads: usize) -> (u64, u64, Vec<f64>) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let len = ((4 * llc).max(64 << 20) / 8) as usize;
    let src: Vec<u64> = (0..len as u64).collect();
    let mut dst = vec![0u64; len];
    let chunk = len.div_ceil(threads);
    let mut copy = || {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
        t0.elapsed().as_secs_f64()
    };
    copy(); // faults the destination pages in
    let gbps = (0..COPY_PASSES)
        .map(|_| 2.0 * (len * 8) as f64 / copy() / 1e9)
        .collect();
    black_box(&dst);
    (llc, (len * 8) as u64, gbps)
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// JSON record

/// A flat JSON object written field by field (the record `run.py` reads).
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) -> &mut String {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
        &mut self.0
    }
    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }
    fn int(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }
    fn text(&mut self, k: &str, v: &str) -> &mut Self {
        let _ = write!(
            self.key(k),
            "\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
        self
    }
    fn nums(&mut self, k: &str, v: &[f64]) -> &mut Self {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        let _ = write!(self.key(k), "[{}]", items.join(","));
        self
    }
    fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k).push_str(json);
        self
    }
    fn finish(&mut self) -> String {
        format!("{}}}", self.0)
    }
}

fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            Obj::default()
                .text("name", c.name)
                .raw("ok", if c.ok { "true" } else { "false" })
                .text("detail", &c.detail)
                .finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

// ---------------------------------------------------------------------------
// Runs

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `steps` coarse steps, pushing each step's wall time (ms).
fn timed_steps<V: VelocitySet, C: Collision<f64, V>>(
    eng: &mut Engine<f64, V, C>,
    steps: usize,
    out: &mut Vec<f64>,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..steps {
        let t = Instant::now();
        eng.step();
        let dt = ms(t);
        out.push(dt);
        total += dt;
    }
    total
}

/// Builds the engine `SETUP_REPEATS` times (keeping the last) plus its
/// 1-thread twin, and records the stage timings.
fn set_up_all<W: Workload>(
    w: &W,
    threads: usize,
    pert: &Perturbation,
    rec: &mut Obj,
) -> (Eng<W>, Eng<W>) {
    let (mut setup, mut build, mut init) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take()); // release the previous engine before building the next
        let b = set_up(w, threads, pert);
        setup.push(b.build_s + b.assemble_s + b.init_s);
        build.push(b.build_s * 1e3);
        init.push(b.init_s * 1e3);
        last = Some(b.eng);
    }
    let en = last.expect("SETUP_REPEATS > 0");
    let e1 = set_up(w, 1, pert).eng;
    rec.nums("setup_s", &setup)
        .nums("build_ms", &build)
        .nums("init_ms", &init);
    (en, e1)
}

/// Engine steps timed in lockstep with the reference kernel.
struct Paired {
    reference: Reference,
    /// Reference steps run after each engine step, chosen so that they take
    /// about `REF_SHARE` of a mean step.
    ref_steps: usize,
    /// Wall time of each engine coarse step, ms.
    step_ms: Vec<f64>,
    /// Wall time of the reference stretch run right after each step, ms.
    ref_ms: Vec<f64>,
}

impl Paired {
    /// Warms the reference kernel on `threads` threads and sizes its
    /// stretch from one round of `eng` (which takes those steps).
    fn new<V: VelocitySet, C: Collision<f64, V>>(
        eng: &mut Engine<f64, V, C>,
        threads: usize,
    ) -> Self {
        let mut reference = Reference::new(threads);
        reference.run(1);
        let t = Instant::now();
        eng.run(ROUND_STEPS);
        let step = ms(t) / ROUND_STEPS as f64;
        let ref_steps = ((REF_SHARE * step / reference.run(1)).round() as usize).max(1);
        Self {
            reference,
            ref_steps,
            step_ms: Vec::new(),
            ref_ms: Vec::new(),
        }
    }

    /// Runs `steps` coarse steps of `eng`, each followed by the reference
    /// stretch.
    fn steps<V: VelocitySet, C: Collision<f64, V>>(
        &mut self,
        eng: &mut Engine<f64, V, C>,
        steps: usize,
    ) {
        for _ in 0..steps {
            let t = Instant::now();
            eng.step();
            self.step_ms.push(ms(t));
            self.ref_ms.push(self.reference.run(self.ref_steps));
        }
    }

    /// The yardstick's own output check: its kernel conserves mass.
    fn check(&self, name: &'static str) -> Check {
        let drift = self.reference.mass_drift();
        Check {
            name,
            ok: drift < 1e-9,
            detail: format!("{drift:.3e}"),
        }
    }

    fn record(&self, rec: &mut Obj, suffix: &str) {
        rec.nums(&format!("step_ms{suffix}"), &self.step_ms)
            .nums(&format!("ref_ms{suffix}"), &self.ref_ms)
            .int(&format!("ref_steps{suffix}"), self.ref_steps as u64);
    }
}

/// The timed run: rounds of `ROUND_STEPS` coarse steps on the `nproc`-thread
/// engine and then on its 1-thread twin until `seconds` elapse, each step
/// paired with a stretch of the reference kernel on the same thread count.
fn timed_run<W: Workload>(w: &W, args: &Args, threads: usize, rec: &mut Obj) -> Vec<Check> {
    let pert = Perturbation::new(args.seed, extent(&w.spec()));
    let (mut en, mut e1) = set_up_all(w, threads, &pert, rec);
    let mass0 = en.grid.total_mass();
    en.run(WARMUP_STEPS);
    e1.run(WARMUP_STEPS);
    let (mut pn, mut p1) = (Paired::new(&mut en, threads), Paired::new(&mut e1, 1));
    en.exec.profiler().reset();

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        pn.steps(&mut en, ROUND_STEPS);
        p1.steps(&mut e1, ROUND_STEPS);
    }
    pn.record(rec, "");
    p1.record(rec, "_1t");
    let steps = pn.step_ms.len() as u64;
    rec.int("round_steps", ROUND_STEPS as u64)
        .num("work_per_step", en.work_per_coarse_step() as f64)
        .int("ref_cells", pn.reference.cells() as u64)
        .num("modeled_mlups", en.mlups_modeled(steps))
        .num("peak_rss_mib", peak_rss_mib());
    let mut out = checks(w, &en, &e1, mass0);
    out.push(pn.check("reference_mass_nproc"));
    out.push(p1.check("reference_mass_1t"));
    out
}

/// Median of a non-empty sample (the Rust side only needs it to pick
/// window sizes; reported statistics are computed by `run.py`).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times `f` `LAYER_REPEATS` times, in ms.
fn repeat_ms(mut f: impl FnMut()) -> Vec<f64> {
    (0..LAYER_REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t)
        })
        .collect()
}

/// The per-layer run: profiled window, span-traced window, and isolated
/// timings of every other layer.
fn traced_run<W: Workload>(w: &W, args: &Args, threads: usize, rec: &mut Obj) -> Vec<Check> {
    // The copy arrays are freed before any engine exists.
    let (llc, buf, gbps) = host_bandwidth(threads);
    rec.int("llc_bytes", llc)
        .int("copy_array_bytes", buf)
        .nums("host_gbps", &gbps);

    let pert = Perturbation::new(args.seed, extent(&w.spec()));
    let (mut en, mut e1) = set_up_all(w, threads, &pert, rec);
    let mass0 = en.grid.total_mass();
    let mut warm = Vec::new();
    timed_steps(&mut en, WARMUP_STEPS, &mut warm);
    e1.run(WARMUP_STEPS);

    // Profiled window, tracing off: about a third of the run's budget.
    let est_ms = median(warm).max(1e-3);
    let rounds = ((args.seconds * 1e3 / 3.0 / est_ms) as usize / ROUND_STEPS).clamp(2, 80);
    let window = rounds * ROUND_STEPS;
    // A second handle on the engine's executor shares its profiler.
    let exec = en.exec.clone();
    let prof = exec.profiler();
    prof.reset();
    let mut untraced = Vec::new();
    let wall_ms = timed_steps(&mut en, window, &mut untraced);
    let kernels: Vec<String> = prof
        .per_kernel()
        .iter()
        .map(|(name, s)| {
            Obj::default()
                .text("name", name)
                .int("launches", s.launches)
                .int("cells", s.cells)
                .int("bytes", s.bytes_read + s.bytes_written + s.atomic_bytes)
                .num("wall_us", s.wall_us)
                .finish()
        })
        .collect();
    let blocks: Vec<f64> = prof.thread_blocks().iter().map(|&b| b as f64).collect();
    rec.int("window_steps", window as u64)
        .num("window_wall_ms", wall_ms)
        .num("work_per_step", en.work_per_coarse_step() as f64)
        .nums("untraced_step_ms", &untraced)
        .raw("kernels", &format!("[{}]", kernels.join(",")))
        .num("profiler_wall_us", prof.total().wall_us)
        .int("syncs", prof.syncs())
        .int("waves", prof.waves())
        .nums("thread_blocks", &blocks)
        .num("modeled_us", prof.modeled_us(exec.device()))
        .text(
            "mode",
            if en.exec_mode() == ExecMode::Graph {
                "graph"
            } else {
                "eager"
            },
        );

    // Span-traced window of the same engine.
    prof.set_tracing(true);
    prof.reset();
    let mut traced = Vec::new();
    timed_steps(&mut en, TRACED_STEPS, &mut traced);
    prof.set_tracing(false);
    let trace_path = args
        .out
        .join(format!("{}_seed{}_trace.json", args.workload, args.seed));
    if let Err(e) = std::fs::write(&trace_path, prof.chrome_trace_json()) {
        eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
        std::process::exit(1);
    }
    prof.reset();
    rec.nums("traced_step_ms", &traced)
        .text("trace_file", &trace_path.to_string_lossy());

    // runtime: wave scheduling of the step graph.
    let schedule = repeat_ms(|| {
        black_box(en.step_task_graph());
    });
    // lattice: the workload's finest-level operator over its own cell states.
    let collide = collide_loop(&en, w.op());
    // checkpoint: save and restore of the current state.
    let mut blob = Vec::new();
    let save = repeat_ms(|| blob = en.checkpoint());
    let restore = repeat_ms(|| en.restore(&blob).expect("own snapshot restores"));
    // probes: the scans health guards and reports use.
    let finite = repeat_ms(|| {
        black_box(en.grid.is_finite());
    });
    let speed = repeat_ms(|| {
        black_box(en.grid.max_speed());
    });
    let mass = repeat_ms(|| {
        black_box(en.grid.total_mass());
    });
    rec.nums("schedule_ms", &schedule)
        .nums("collide_ns_per_cell", &collide)
        .nums("checkpoint_save_ms", &save)
        .nums("checkpoint_restore_ms", &restore)
        .int("checkpoint_bytes", blob.len() as u64)
        .nums("is_finite_ms", &finite)
        .nums("max_speed_ms", &speed)
        .nums("total_mass_ms", &mass);

    // The 1-thread twin catches up (untimed) for the digest check.
    let lag = en.coarse_steps() - e1.coarse_steps();
    e1.run(lag as usize);
    checks(w, &en, &e1, mass0)
}

/// ns per cell of `Collision::collide` over up to `COLLIDE_CELLS` real
/// cells of the finest level, one sample per pass over the cells.
fn collide_loop<V: VelocitySet, C: Collision<f64, V>>(eng: &Engine<f64, V, C>, op: C) -> Vec<f64> {
    let level = eng.grid.levels.last().expect("at least one level");
    let op = op.with_omega(level.omega);
    let f = level.f.src();
    let cells: Vec<[f64; MAX_Q]> = level
        .iter_real()
        .take(COLLIDE_CELLS)
        .map(|(r, _)| {
            let mut p = [0.0; MAX_Q];
            for (i, v) in p.iter_mut().enumerate().take(V::Q) {
                *v = f.get(r.block, i, r.cell);
            }
            p
        })
        .collect();
    let passes = 50;
    (0..passes)
        .map(|_| {
            let t = Instant::now();
            for c in &cells {
                let mut p = *black_box(c);
                op.collide(&mut p);
                black_box(&p);
            }
            t.elapsed().as_secs_f64() * 1e9 / cells.len() as f64
        })
        .collect()
}

fn run<W: Workload>(w: &W, args: &Args) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rec = Obj::default();
    rec.text("workload", &args.workload)
        .int("seed", args.seed)
        .int("threads", threads as u64);
    let checks = if args.trace {
        traced_run(w, args, threads, &mut rec)
    } else {
        timed_run(w, args, threads, &mut rec)
    };
    for c in checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check {} failed ({})", c.name, c.detail);
    }
    rec.raw("checks", &checks_json(&checks));
    println!("{}", rec.finish());
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let (mut seed, mut seconds, mut trace, mut out) = (1u64, 10.0, false, PathBuf::from("."));
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--seed" => seed = val.parse().map_err(|_| bad)?,
            "--seconds" => seconds = val.parse().map_err(|_| bad)?,
            "--trace" => trace = val == "1",
            "--out" => out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match args.workload.as_str() {
        "box2_bgk" => run(&Box2Bgk, &args),
        "sphere3_kbc" => run(
            &Sphere3Kbc(SphereFlow::new(SphereConfig::scaled_small())),
            &args,
        ),
        "cavity3_guarded" => run(
            &Cavity3Guarded(Cavity::new(CavityConfig {
                n_finest: 48,
                levels: 3,
                quasi_2d: false,
                ..CavityConfig::default()
            })),
            &args,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
}
