//! The host-speed yardstick: a plain uniform-grid D3Q19 BGK kernel written
//! against no engine code.
//!
//! A shared host's speed drifts by tens of percent over seconds to minutes
//! (co-tenants on sibling hyper-threads, in the last-level cache and on the
//! memory bus). The benchmark times this kernel interleaved with the engine,
//! on the same thread count, and reports the engine's throughput relative to
//! it, which that drift leaves nearly unchanged. The kernel never changes
//! with the engine, so any move in the ratio is the engine's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// D3Q19 velocities.
const C: [[i32; 3]; 19] = [
    [0, 0, 0],
    [1, 0, 0],
    [-1, 0, 0],
    [0, 1, 0],
    [0, -1, 0],
    [0, 0, 1],
    [0, 0, -1],
    [1, 1, 0],
    [-1, -1, 0],
    [1, -1, 0],
    [-1, 1, 0],
    [1, 0, 1],
    [-1, 0, -1],
    [1, 0, -1],
    [-1, 0, 1],
    [0, 1, 1],
    [0, -1, -1],
    [0, 1, -1],
    [0, -1, 1],
];

/// D3Q19 weights, in the order of `C`.
const W: [f64; 19] = {
    let mut w = [1.0 / 36.0; 19];
    w[0] = 1.0 / 3.0;
    let mut i = 1;
    while i < 7 {
        w[i] = 1.0 / 18.0;
        i += 1;
    }
    w
};

/// Edge of the periodic cube. 40³ cells × 19 × 8 B × 2 halves = 19.5 MB,
/// the same footprint as the engine's `box2_bgk` populations.
const N: usize = 40;
const CELLS: usize = N * N * N;
const OMEGA: f64 = 1.6;

/// A periodic 40³ D3Q19 BGK lattice in cell-major layout, advanced by a
/// fused pull-stream + collide on `threads` threads.
pub struct Reference {
    f: [Vec<f64>; 2],
    src: usize,
    threads: usize,
}

impl Reference {
    /// At rest, except for a gentle shear so the collision does real work.
    pub fn new(threads: usize) -> Self {
        let mut f = vec![0.0; CELLS * 19];
        for z in 0..N {
            for y in 0..N {
                for x in 0..N {
                    let phase = std::f64::consts::TAU * z as f64 / N as f64;
                    let u = [0.02 * phase.sin(), 0.0, 0.0];
                    let cell = &mut f[((z * N + y) * N + x) * 19..][..19];
                    for (i, v) in cell.iter_mut().enumerate() {
                        *v = equilibrium(i, 1.0, u);
                    }
                }
            }
        }
        Self {
            f: [f.clone(), f],
            src: 0,
            threads: threads.max(1),
        }
    }

    /// Lattice updates per step.
    pub fn cells(&self) -> usize {
        CELLS
    }

    /// Advances `steps` steps; returns the wall time in ms.
    pub fn run(&mut self, steps: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..steps {
            self.step();
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    fn step(&mut self) {
        let (a, b) = self.f.split_at_mut(1);
        let (src, dst) = if self.src == 0 {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        };
        let plane = N * N * 19;
        if self.threads == 1 {
            update(src, dst, 0);
        } else {
            // z-planes claimed one at a time by whichever thread is free,
            // the calling thread included, as the engine's pool claims
            // blocks: a thread the host slows down then costs both alike.
            let planes: Vec<Mutex<&mut [f64]>> = dst.chunks_mut(plane).map(Mutex::new).collect();
            let next = AtomicUsize::new(0);
            let work = || loop {
                let z = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = planes.get(z) else { break };
                let mut p = p.lock().unwrap_or_else(|e| e.into_inner());
                update(src, &mut p, z * N * N);
            };
            std::thread::scope(|s| {
                for _ in 1..self.threads {
                    s.spawn(work);
                }
                work();
            });
        }
        self.src ^= 1;
    }

    /// Relative drift of the total mass from its initial value (one per
    /// cell). The kernel conserves mass, so a drift beyond round-off means
    /// the yardstick did not run correctly.
    pub fn mass_drift(&self) -> f64 {
        let mass: f64 = self.f[self.src].iter().sum();
        (mass / CELLS as f64 - 1.0).abs()
    }
}

fn equilibrium(i: usize, rho: f64, u: [f64; 3]) -> f64 {
    let c = C[i];
    let cu = c[0] as f64 * u[0] + c[1] as f64 * u[1] + c[2] as f64 * u[2];
    let uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    W[i] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * uu)
}

/// Pull-streams and collides the cells of `dst`, which start at cell index
/// `first` of the lattice.
fn update(src: &[f64], dst: &mut [f64], first: usize) {
    let n = N as i64;
    for (k, out) in dst.chunks_exact_mut(19).enumerate() {
        let cell = first + k;
        let (x, y, z) = (
            (cell % N) as i64,
            (cell / N % N) as i64,
            (cell / (N * N)) as i64,
        );
        let mut p = [0.0; 19];
        for (i, c) in C.iter().enumerate() {
            let xs = (x - c[0] as i64).rem_euclid(n);
            let ys = (y - c[1] as i64).rem_euclid(n);
            let zs = (z - c[2] as i64).rem_euclid(n);
            p[i] = src[(((zs * n + ys) * n + xs) as usize) * 19 + i];
        }
        let rho: f64 = p.iter().sum();
        let mut u = [0.0; 3];
        for (pi, c) in p.iter().zip(&C) {
            for a in 0..3 {
                u[a] += pi * c[a] as f64;
            }
        }
        u = u.map(|m| m / rho);
        for (i, o) in out.iter_mut().enumerate() {
            *o = p[i] + OMEGA * (equilibrium(i, rho, u) - p[i]);
        }
    }
}
