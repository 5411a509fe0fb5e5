//! Crash-safe checkpoint/restart for the multi-resolution grid, plus the
//! runtime health-guard policies and the raw in-memory recovery point their
//! rollback restores (DESIGN.md §11).
//!
//! # Snapshot format (version 2)
//!
//! A snapshot is a single binary blob, little-endian throughout:
//!
//! ```text
//! magic          8 B   "LBMCKPT\0"
//! version        u32   2
//! value_bits     u32   bit width of the population scalar: 64; any
//!                      other value is refused as a mismatch
//! q              u32   velocity-set size
//! name_len/name  u32 + bytes   velocity-set tag ("D3Q19", "D3Q27")
//! coarse_steps   u64   coarsest-level steps taken when the snapshot was cut
//! num_levels     u32
//! per level:
//!   num_blocks   u64   ┐ structural echo, validated against the target
//!   cells/block  u32   │ grid on restore: counts equal, flags equal
//!   parity       u8    │ which double-buffer half is the source
//!   flags        num_blocks·B³ bytes (memory order)
//!   half 0       num_blocks·q·B³ × u64 value bit patterns (memory order)
//!   half 1       likewise
//!   acc_len/acc  u64 + acc_len × u64 accumulator f64 bit patterns,
//!                acc_len = ghost cells × q (the compact layout)
//! checksum       u64   FNV-1a over every preceding byte
//! ```
//!
//! Field payloads are the fields' backing slices in memory order, which is
//! `(block, comp, cell)` ascending ([`lbm_sparse::Field::index`]); the
//! accumulators are `(ghost, comp)` ascending, ghosts numbered in
//! `(block, cell)` order ([`crate::Level::acc`]). Values travel as raw
//! IEEE-754 bit patterns ([`lbm_lattice::Real::to_bits64`]), never through
//! a float conversion, so restore is a bit-level identity even for
//! non-finite values. Any other version, 1 included, is refused as
//! [`CheckpointError::UnsupportedVersion`].
//!
//! The grid's *structure* (octree spec, links, gather tables, ghost
//! numbering) is **not** serialized — [`crate::GridSpec`] holds closures
//! and every table is deterministically rebuilt by [`MultiGrid::build`].
//! Restore targets an already-built, structurally identical grid and
//! validates the structural echo (level count, blocks per level, cells per
//! block, every cell's flags, accumulator slots, velocity set, scalar
//! width) before touching any state; the flags are compared, never
//! written. A mismatched or corrupted snapshot returns a
//! [`CheckpointError`] and leaves the target untouched.

use std::fmt;

use lbm_gpu::Executor;
use lbm_lattice::{Real, VelocitySet};

use crate::multigrid::MultiGrid;

/// Magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"LBMCKPT\0";
/// Current snapshot format version.
pub const VERSION: u32 = 2;

/// Why a snapshot could not be loaded. Loading never panics: every failure
/// mode — truncation, corruption, wrong solver configuration — surfaces as
/// a variant here, and the target grid is left exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob ends before the format says it should.
    Truncated,
    /// The blob does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The blob is a snapshot, but of a format version this build does not
    /// read.
    UnsupportedVersion(u32),
    /// The FNV-1a trailer does not match the body: bit rot or truncation.
    ChecksumMismatch,
    /// The snapshot is intact but describes a different solver
    /// configuration (velocity set, scalar width, grid structure) than the
    /// restore target.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot is truncated"),
            Self::BadMagic => write!(f, "not a checkpoint snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            Self::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupted)"),
            Self::Mismatch(why) => write!(f, "snapshot does not match this engine: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over a byte slice — the same hash family as the state digests in
/// the determinism tests, applied here to the serialized blob.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serializes the full simulation state of `grid` — every level's flags,
/// both population halves, accumulators and buffer parity — plus the
/// engine's `coarse_steps`, into a self-contained checksummed blob.
pub fn save<T: Real, V: VelocitySet>(grid: &MultiGrid<T, V>, coarse_steps: u64) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.bytes(&MAGIC);
    w.u32(VERSION);
    w.u32(T::BITS);
    w.u32(V::Q as u32);
    w.u32(V::NAME.len() as u32);
    w.bytes(V::NAME.as_bytes());
    w.u64(coarse_steps);
    w.u32(grid.levels.len() as u32);
    for lv in &grid.levels {
        w.u64(lv.grid.num_blocks() as u64);
        w.u32(lv.grid.cells_per_block() as u32);
        w.u8(lv.f.parity() as u8);
        w.bytes(lv.flags.as_slice());
        for h in 0..2 {
            for v in lv.f.half(h).as_slice() {
                w.u64(v.to_bits64());
            }
        }
        w.u64(lv.acc.len() as u64);
        for i in 0..lv.acc.len() {
            w.u64(lv.acc.load(i).to_bits());
        }
    }
    let ck = fnv1a(&w.buf);
    w.u64(ck);
    w.buf
}

/// Decodes a snapshot produced by [`save`] for `grid` into a
/// [`RecoveryPoint`], which [`RecoveryPoint::apply`] then writes
/// ([`crate::Engine::restore`]). `grid` must be structurally identical to
/// the snapshot's source (same spec / build inputs): equal block counts
/// alone do not make it so, so every cell's flags must match too. Decoding
/// reads `grid` and writes nothing, so on `Err` the target is untouched.
pub(crate) fn decode<T: Real, V: VelocitySet>(
    grid: &MultiGrid<T, V>,
    bytes: &[u8],
) -> Result<RecoveryPoint<T>, CheckpointError> {
    if bytes.len() < MAGIC.len() + 8 {
        return if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            Err(CheckpointError::BadMagic)
        } else {
            Err(CheckpointError::Truncated)
        };
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if body[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }

    let mut r = Reader { buf: body, pos: MAGIC.len() };
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let bits = r.u32()?;
    if bits != T::BITS {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot holds {bits}-bit values, engine runs {}-bit",
            T::BITS
        )));
    }
    let q = r.u32()?;
    let name_len = r.u32()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CheckpointError::Mismatch("velocity-set tag is not UTF-8".into()))?;
    if q != V::Q as u32 || name != V::NAME {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot velocity set {name} (q={q}), engine uses {} (q={})",
            V::NAME,
            V::Q
        )));
    }
    let coarse_steps = r.u64()?;
    let num_levels = r.u32()? as usize;
    if num_levels != grid.levels.len() {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot has {num_levels} levels, grid has {}",
            grid.levels.len()
        )));
    }

    let mut levels = Vec::with_capacity(num_levels);
    for (l, lv) in grid.levels.iter().enumerate() {
        let num_blocks = r.u64()? as usize;
        let cpb = r.u32()? as usize;
        if num_blocks != lv.grid.num_blocks() || cpb != lv.grid.cells_per_block() {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: snapshot geometry {num_blocks} blocks × {cpb} cells/block, \
                 grid has {} × {}",
                lv.grid.num_blocks(),
                lv.grid.cells_per_block()
            )));
        }
        let parity = r.u8()?;
        if parity > 1 {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: parity byte {parity} is not 0 or 1"
            )));
        }
        let flags = r.take(num_blocks * cpb)?;
        if flags != lv.flags.as_slice() {
            let differ = flags.iter().zip(lv.flags.as_slice()).filter(|(a, b)| a != b);
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: {} cell flags differ from the grid's (another geometry)",
                differ.count()
            )));
        }
        let n = num_blocks * V::Q * cpb;
        let mut halves: [Vec<T>; 2] = [Vec::with_capacity(n), Vec::with_capacity(n)];
        for half in &mut halves {
            for _ in 0..n {
                half.push(T::from_bits64(r.u64()?));
            }
        }
        let acc_len = r.u64()? as usize;
        if acc_len != lv.acc.len() {
            return Err(CheckpointError::Mismatch(format!(
                "level {l}: snapshot has {acc_len} accumulator slots, grid has {} \
                 (ghost cells × q)",
                lv.acc.len()
            )));
        }
        let mut acc = Vec::with_capacity(acc_len);
        for _ in 0..acc_len {
            acc.push(f64::from_bits(r.u64()?));
        }
        levels.push(LevelCopy {
            parity: parity as usize,
            halves,
            acc,
        });
    }
    if !r.exhausted() {
        return Err(CheckpointError::Mismatch(format!(
            "{} trailing bytes after the last level payload",
            body.len() - r.pos
        )));
    }
    Ok(RecoveryPoint {
        coarse_steps,
        levels,
    })
}

/// The rollback guard's in-memory recovery point: preallocated raw copies
/// of everything a step writes — both population halves, the ghost
/// accumulators and the parity of every level — plus the coarse step
/// count. Allocated on the first healthy check, refreshed on each later
/// one, and applied on rollback, all with plain copies: no encoding, no
/// checksum, and nothing that can fail. The halves are copied one
/// `block_stride` chunk per block on the executor's pool
/// ([`Executor::run_blocks_mut`], no kernel launch). Per-cell flags are
/// not copied, because only [`MultiGrid::build`] writes them (DESIGN.md
/// §11). The serialized format above stays the one for files and
/// [`crate::Engine::checkpoint`]; [`decode`] turns a snapshot into a
/// recovery point, so a restore writes the state exactly as a rollback
/// does.
pub(crate) struct RecoveryPoint<T> {
    coarse_steps: u64,
    levels: Vec<LevelCopy<T>>,
}

/// One level's share of a [`RecoveryPoint`].
struct LevelCopy<T> {
    parity: usize,
    halves: [Vec<T>; 2],
    acc: Vec<f64>,
}

impl<T: Real> RecoveryPoint<T> {
    /// Allocates a recovery point holding `grid`'s current state.
    pub(crate) fn capture<V: VelocitySet>(
        grid: &MultiGrid<T, V>,
        exec: &Executor,
        coarse_steps: u64,
    ) -> Self {
        let levels = grid
            .levels
            .iter()
            .map(|lv| LevelCopy {
                parity: 0,
                halves: [0, 1].map(|h| vec![T::ZERO; lv.f.half(h).as_slice().len()]),
                acc: vec![0.0; lv.acc.len()],
            })
            .collect();
        let mut point = Self {
            coarse_steps,
            levels,
        };
        point.refresh(grid, exec, coarse_steps);
        point
    }

    /// Overwrites the copies with `grid`'s current state, reusing their
    /// allocations.
    pub(crate) fn refresh<V: VelocitySet>(
        &mut self,
        grid: &MultiGrid<T, V>,
        exec: &Executor,
        coarse_steps: u64,
    ) {
        for (copy, lv) in self.levels.iter_mut().zip(&grid.levels) {
            copy.parity = lv.f.parity();
            for (h, half) in copy.halves.iter_mut().enumerate() {
                let src = lv.f.half(h);
                exec.run_blocks_mut(half, src.block_stride(), |b, chunk| {
                    chunk.copy_from_slice(src.block(b))
                });
            }
            lv.acc.copy_to_slice(&mut copy.acc);
        }
        self.coarse_steps = coarse_steps;
    }

    /// Writes the copies back into `grid` (the grid they were taken from)
    /// and returns the coarse step count they were taken at.
    pub(crate) fn apply<V: VelocitySet>(&self, grid: &mut MultiGrid<T, V>, exec: &Executor) -> u64 {
        for (copy, lv) in self.levels.iter().zip(&mut grid.levels) {
            for (h, half) in copy.halves.iter().enumerate() {
                let dst = lv.f.half_mut(h);
                let stride = dst.block_stride();
                exec.run_blocks_mut(dst.as_mut_slice(), stride, |b, chunk| {
                    chunk.copy_from_slice(&half[b as usize * stride..][..stride])
                });
            }
            lv.f.set_parity(copy.parity);
            lv.acc.copy_from_slice(&copy.acc);
        }
        self.coarse_steps
    }
}

/// What a failed health check triggers (see [`HealthGuard::policy`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthPolicy {
    /// Halt the engine: [`crate::Engine::run`] stops at the failing step.
    Abort,
    /// Record the event and keep stepping (monitoring only).
    Report,
    /// Restore the recovery point of the last healthy check and keep going,
    /// at most `n` times over the engine's lifetime; with no recovery point
    /// yet, or once the budget is spent, the engine halts instead. After a
    /// rollback the caller can adjust parameters (e.g.
    /// [`crate::Engine::set_omega0`]) before resuming.
    RollbackToLastCheckpoint(u32),
}

/// What an unhealthy check found.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum HealthCause {
    /// A non-finite value (NaN/inf) in either half of some level's
    /// populations.
    NonFinite,
    /// Finite state, but the maximum flow speed exceeded the guard's bound
    /// (the recorded value is the observed speed).
    SpeedExceeded(f64),
}

/// What the engine did about an unhealthy check.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthAction {
    /// Policy [`HealthPolicy::Abort`]: the engine halted.
    Aborted,
    /// Policy [`HealthPolicy::Report`]: recorded, stepping continues.
    Reported,
    /// Rolled back to the recovery point taken at `to_step`.
    RolledBack {
        /// Coarse step the restored recovery point was taken at.
        to_step: u64,
    },
    /// Rollback was requested but impossible (no recovery point yet, or the
    /// rollback budget is exhausted): the engine halted.
    Halted,
}

/// One recorded health incident (see [`crate::Engine::health_events`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Coarse step count at which the check fired.
    pub step: u64,
    /// What the check found.
    pub cause: HealthCause,
    /// What the engine did.
    pub action: HealthAction,
}

/// Periodic engine health checks: every `check_every` coarse steps the
/// engine runs one probe pass ([`crate::Engine::probe`]) that scans both
/// halves of every level for non-finite values and (when finite) checks the
/// maximum flow speed against a bound, then applies the configured
/// [`HealthPolicy`]. Under the rollback policy, each *healthy* check also
/// refreshes the engine's raw in-memory recovery point — the state the next
/// unhealthy check rolls back to. Both passes run block-parallel on the
/// engine's executor pool without recording kernel launches, and give the
/// same bits at every pool width: the probe's per-block records are folded
/// serially in `(level, block)` order, exactly as [`MultiGrid::probe`]
/// folds them.
///
/// ```
/// # use lbm_core::{AllWalls, Engine, GridSpec, HealthGuard, HealthPolicy, MultiGrid};
/// # use lbm_gpu::{DeviceModel, Executor};
/// # use lbm_lattice::{Bgk, D3Q19};
/// # use lbm_sparse::Box3;
/// # let omega0 = 1.6;
/// # let spec = GridSpec::uniform(Box3::from_dims(8, 8, 8));
/// # let mut grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, omega0);
/// # grid.init_equilibrium(|_, _| 1.0, |_, _| [0.01, 0.0, 0.0]);
/// # let exec = Executor::with_threads(DeviceModel::a100_40gb(), 1);
/// let mut eng = Engine::builder(grid)
///     .health(HealthGuard::new(10).policy(HealthPolicy::RollbackToLastCheckpoint(1)))
///     .collision(Bgk::new(omega0))
///     .build(exec);
/// eng.run(20); // healthy checks at steps 10 and 20
/// assert!(eng.health_events().is_empty() && !eng.halted());
/// ```
#[derive(Copy, Clone, Debug)]
pub struct HealthGuard {
    check_every: u64,
    max_speed: f64,
    policy: HealthPolicy,
}

impl HealthGuard {
    /// A guard checking every `check_every` coarse steps, with the default
    /// speed bound (the lattice sound speed, `1/√3` — any resolved LBM flow
    /// must stay well below it) and policy [`HealthPolicy::Abort`].
    ///
    /// # Panics
    /// If `check_every == 0` (a zero period would mean never checking —
    /// the same class of bug as the `run_to_steady` hang this crate's
    /// diagnostics guard against).
    pub fn new(check_every: u64) -> Self {
        assert!(check_every > 0, "health check period must be positive");
        Self {
            check_every,
            max_speed: 1.0 / 3f64.sqrt(),
            policy: HealthPolicy::Abort,
        }
    }

    /// Overrides the maximum-speed bound (lattice units).
    pub fn max_speed(mut self, v: f64) -> Self {
        self.max_speed = v;
        self
    }

    /// Sets the policy applied when a check fails.
    pub fn policy(mut self, p: HealthPolicy) -> Self {
        self.policy = p;
        self
    }

    /// The check period in coarse steps.
    pub fn check_every(&self) -> u64 {
        self.check_every
    }

    /// The speed bound.
    pub fn speed_bound(&self) -> f64 {
        self.max_speed
    }

    /// The configured policy.
    pub fn configured_policy(&self) -> HealthPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::AllWalls;
    use crate::spec::GridSpec;
    use lbm_gpu::DeviceModel;
    use lbm_lattice::D3Q19;
    use lbm_sparse::Box3;

    type MG = MultiGrid<f64, D3Q19>;

    fn two_level_grid() -> MG {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
            l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
        });
        let mut mg = MG::build(spec, &AllWalls, 1.5);
        mg.init_equilibrium(|_, _| 1.0, |l, c| {
            [0.01 + 0.001 * l as f64, 1e-4 * c.x as f64, -1e-4 * c.y as f64]
        });
        mg
    }

    #[test]
    fn save_restore_round_trips_bit_exactly() {
        let src = two_level_grid();
        let blob = save(&src, 7);
        let mut dst = two_level_grid();
        // Perturb the target so the restore provably overwrites it.
        dst.init_equilibrium(|_, _| 0.5, |_, _| [0.0; 3]);
        dst.levels[0].f.swap();
        let exec = Executor::with_threads(DeviceModel::a100_40gb(), 1);
        let steps = decode(&dst, &blob).expect("restore").apply(&mut dst, &exec);
        assert_eq!(steps, 7);
        for (a, b) in src.levels.iter().zip(&dst.levels) {
            assert_eq!(a.f.parity(), b.f.parity());
            for h in 0..2 {
                let (fa, fb) = (a.f.half(h), b.f.half(h));
                for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            assert_eq!(a.flags.as_slice(), b.flags.as_slice());
        }
    }

    #[test]
    fn restore_rejects_truncation_and_corruption_cleanly() {
        let src = two_level_grid();
        let blob = save(&src, 3);
        let dst = two_level_grid();
        // Truncations at every interesting boundary fail cleanly.
        for cut in [0, 4, MAGIC.len(), blob.len() / 2, blob.len() - 1] {
            let err = refused(&dst, &blob[..cut]);
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch
                ),
                "cut at {cut}: {err:?}"
            );
        }
        // Single-bit corruption anywhere in the body is caught.
        let mut bad = blob.clone();
        bad[MAGIC.len() + 20] ^= 0x40;
        assert_eq!(
            refused(&dst, &bad),
            CheckpointError::ChecksumMismatch
        );
        // Garbage is not a snapshot.
        assert_eq!(
            refused(&dst, b"definitely not a checkpoint blob"),
            CheckpointError::BadMagic
        );
        // An unknown future version is refused by name.
        assert_eq!(
            refused(&dst, &with_version(&blob, VERSION + 1)),
            CheckpointError::UnsupportedVersion(VERSION + 1)
        );
    }

    /// Why `decode` refuses `blob` for `grid`.
    fn refused<V: VelocitySet>(grid: &MultiGrid<f64, V>, blob: &[u8]) -> CheckpointError {
        match decode(grid, blob) {
            Ok(_) => panic!("the snapshot decoded"),
            Err(e) => e,
        }
    }

    /// `blob` relabelled as format `version`, its checksum recomputed.
    fn with_version(blob: &[u8], version: u32) -> Vec<u8> {
        let mut out = blob.to_vec();
        out[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        let body_len = out.len() - 8;
        let ck = fnv1a(&out[..body_len]);
        out[body_len..].copy_from_slice(&ck.to_le_bytes());
        out
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let src = two_level_grid();
        let blob = save(&src, 1);
        // A different geometry refuses the snapshot.
        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
        let other = MG::build(spec, &AllWalls, 1.0);
        match refused(&other, &blob) {
            CheckpointError::Mismatch(why) => assert!(why.contains("levels"), "{why}"),
            e => panic!("expected Mismatch, got {e:?}"),
        }
        // A different velocity set refuses the snapshot.
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
            l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
        });
        let q27 = MultiGrid::<f64, lbm_lattice::D3Q27>::build(spec, &AllWalls, 1.5);
        match refused(&q27, &blob) {
            CheckpointError::Mismatch(why) => assert!(why.contains("velocity set"), "{why}"),
            e => panic!("expected Mismatch, got {e:?}"),
        }
    }

    #[test]
    fn a_version_1_snapshot_is_refused_and_the_grid_kept() {
        let src = two_level_grid();
        let v1 = with_version(&save(&src, 5), 1);
        let mut dst = two_level_grid();
        dst.init_equilibrium(|_, _| 2.0, |_, _| [0.0; 3]);
        let before = save(&dst, 0);
        assert_eq!(
            refused(&dst, &v1),
            CheckpointError::UnsupportedVersion(1)
        );
        assert_eq!(save(&dst, 0), before);
    }

    #[test]
    fn health_guard_defaults_and_builders() {
        let g = HealthGuard::new(25);
        assert_eq!(g.check_every(), 25);
        assert_eq!(g.configured_policy(), HealthPolicy::Abort);
        assert!((g.speed_bound() - 1.0 / 3f64.sqrt()).abs() < 1e-15);
        let g = g.max_speed(0.1).policy(HealthPolicy::RollbackToLastCheckpoint(2));
        assert_eq!(g.speed_bound(), 0.1);
        assert_eq!(
            g.configured_policy(),
            HealthPolicy::RollbackToLastCheckpoint(2)
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn health_guard_rejects_zero_period() {
        let _ = HealthGuard::new(0);
    }
}
