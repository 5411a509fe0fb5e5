//! Atomic floating-point accumulation buffers.
//!
//! The optimized Accumulate step (paper §IV-A) scatters fine post-collision
//! populations into a coarse ghost layer with atomic adds ("scatter atomic
//! write operation from the fine level ... the contention is not too high as
//! every ghost cell will be written by a maximum of 8 other fine cells").
//! CUDA provides `atomicAdd(double*)`; on the CPU we emulate it with a
//! compare-exchange loop over the bit pattern.
//!
//! **Path gating.** The CAS accumulator ([`AtomicF64Field::fetch_add`]) is
//! the *serial-path* scatter primitive: with one executor thread the adds
//! arrive in the fixed block/cell/direction program order, so the result is
//! deterministic. A multi-thread pool makes the arrival order — and hence
//! the float sum — a race, exactly like real GPU `atomicAdd`. Parallel
//! engines therefore route Accumulate through the staged-slab + ordered
//! merge path in `lbm_core` (which uses only [`AtomicF64Field::store`] /
//! [`AtomicF64Field::load_flat`] on this type), and the engine keeps both
//! paths wired: serial scatter stays the reference the staged path is
//! pinned against.

use std::sync::atomic::{AtomicU64, Ordering};

/// A flat array of atomically-addressable `f64` accumulators with the
/// population fields' component-major indexing
/// `block · q·B³ + comp · B³ + cell`.
#[derive(Debug)]
pub struct AtomicF64Field {
    q: usize,
    cells_per_block: usize,
    data: Vec<AtomicU64>,
}

impl AtomicF64Field {
    /// Allocates zeroed accumulators for `num_blocks` blocks of
    /// `cells_per_block` cells with `q` components each.
    pub fn new(num_blocks: usize, q: usize, cells_per_block: usize) -> Self {
        assert!(q >= 1);
        let mut data = Vec::new();
        data.resize_with(num_blocks * q * cells_per_block, || {
            AtomicU64::new(0f64.to_bits())
        });
        Self {
            q,
            cells_per_block,
            data,
        }
    }

    /// Components per cell.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Elements per block.
    pub fn block_stride(&self) -> usize {
        self.q * self.cells_per_block
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline(always)]
    fn idx(&self, block: u32, comp: usize, cell: u32) -> usize {
        debug_assert!(comp < self.q);
        debug_assert!((cell as usize) < self.cells_per_block);
        (block as usize) * self.block_stride() + comp * self.cells_per_block + cell as usize
    }

    /// Atomically adds `v` (emulating CUDA `atomicAdd(double*)`).
    #[inline(always)]
    pub fn add(&self, block: u32, comp: usize, cell: u32, v: f64) {
        self.fetch_add(block, comp, cell, v);
    }

    /// Atomically adds `v` and returns the slot's previous value — the
    /// same contract as CUDA's `atomicAdd(double*)`.
    ///
    /// # Memory-ordering audit
    ///
    /// Every operation in the CAS loop is `Relaxed`, and that is sound
    /// here because the accumulators are used *only* for commutative,
    /// associative accumulation within one kernel launch:
    ///
    /// - **Per-slot atomicity is ordering-free.** The read-modify-write
    ///   below is a single-location update; atomicity (no lost updates)
    ///   is guaranteed by `compare_exchange_weak` itself regardless of
    ///   ordering, and the modification order of one atomic location is
    ///   total even under `Relaxed`. Since `a + b + c` is independent of
    ///   arrival order (up to the float non-associativity that real GPU
    ///   atomics exhibit identically), no writer needs to observe another
    ///   writer's effect in any particular order.
    /// - **No cross-location publication.** A `Release`/`Acquire` pair is
    ///   only needed when an atomic write *publishes* other (non-atomic)
    ///   memory to a reader. Accumulate never does that: writers touch
    ///   nothing the subsequent reader consumes except the slot itself.
    /// - **Readers are synchronized by the kernel boundary.** Coalescence
    ///   reads accumulators only in a *later* launch; the executor joins
    ///   all worker threads between launches (`std::thread` join provides
    ///   the happens-before edge), so readers see every contribution
    ///   without any ordering on the loads — which is also why
    ///   [`Self::load`]/[`Self::store`] are `Relaxed`.
    ///
    /// Using `AcqRel` here would add fence traffic on weakly-ordered
    /// hardware for no additional guarantee.
    #[inline(always)]
    pub fn fetch_add(&self, block: u32, comp: usize, cell: u32, v: f64) -> f64 {
        let slot = &self.data[self.idx(block, comp, cell)];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Non-atomic read (valid once writers have been joined).
    #[inline(always)]
    pub fn load(&self, block: u32, comp: usize, cell: u32) -> f64 {
        f64::from_bits(self.data[self.idx(block, comp, cell)].load(Ordering::Relaxed))
    }

    /// Overwrites a slot.
    #[inline(always)]
    pub fn store(&self, block: u32, comp: usize, cell: u32, v: f64) {
        self.data[self.idx(block, comp, cell)].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Flat element index of `(block, comp, cell)` — the inverse is stable
    /// because the indexing is fixed component-major (see the type docs).
    /// Used by the staged Accumulate merge to precompute contribution
    /// addresses into a slab.
    #[inline(always)]
    pub fn flat_index(&self, block: u32, comp: usize, cell: u32) -> usize {
        self.idx(block, comp, cell)
    }

    /// Non-atomic read by flat element index (valid once writers have been
    /// joined; see [`Self::flat_index`]).
    #[inline(always)]
    pub fn load_flat(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Copies every slot, in flat order, into `out` (valid once writers have
    /// been joined).
    ///
    /// # Panics
    /// If `out.len() != self.len()`.
    pub fn copy_to_slice(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.data.len(), "accumulator image size");
        for (o, a) in out.iter_mut().zip(&self.data) {
            *o = f64::from_bits(a.load(Ordering::Relaxed));
        }
    }

    /// Overwrites every slot, in flat order, from `src` — the inverse of
    /// [`Self::copy_to_slice`].
    ///
    /// # Panics
    /// If `src.len() != self.len()`.
    pub fn copy_from_slice(&mut self, src: &[f64]) {
        assert_eq!(src.len(), self.data.len(), "accumulator image size");
        for (a, v) in self.data.iter_mut().zip(src) {
            *a.get_mut() = v.to_bits();
        }
    }

    /// Resets every slot to zero.
    pub fn reset(&self) {
        let zero = 0f64.to_bits();
        for a in &self.data {
            a.store(zero, Ordering::Relaxed);
        }
    }

    /// Heap bytes (memory-model accounting).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_load() {
        let f = AtomicF64Field::new(2, 3, 8);
        f.add(1, 2, 5, 1.5);
        f.add(1, 2, 5, 2.25);
        assert_eq!(f.load(1, 2, 5), 3.75);
        assert_eq!(f.load(0, 0, 0), 0.0);
        f.store(0, 0, 0, -4.0);
        assert_eq!(f.load(0, 0, 0), -4.0);
        f.reset();
        assert_eq!(f.load(1, 2, 5), 0.0);
        assert_eq!(f.load(0, 0, 0), 0.0);
    }

    #[test]
    fn slice_copies_round_trip_bit_patterns() {
        let mut f = AtomicF64Field::new(2, 2, 4);
        let mut image: Vec<f64> = (0..f.len()).map(|i| i as f64 - 3.5).collect();
        image[5] = f64::NAN;
        f.copy_from_slice(&image);
        // Flat index 5 is block 0, component 1, cell 1.
        assert!(f.load(0, 1, 1).is_nan());
        assert_eq!(f.load(1, 0, 2), image[10]);
        let mut out = vec![0.0; f.len()];
        f.copy_to_slice(&mut out);
        for (a, b) in out.iter().zip(&image) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fetch_add_returns_previous_value() {
        let f = AtomicF64Field::new(1, 1, 2);
        assert_eq!(f.fetch_add(0, 0, 0, 1.5), 0.0);
        assert_eq!(f.fetch_add(0, 0, 0, 2.0), 1.5);
        assert_eq!(f.load(0, 0, 0), 3.5);
    }

    #[test]
    fn concurrent_fetch_add_observes_distinct_previous_values() {
        // With a constant increment, the set of returned previous values
        // must be exactly {0, d, 2d, …, (N−1)d} — each CAS publishes one
        // unique point on the slot's modification order.
        let f = AtomicF64Field::new(1, 1, 1);
        let n = 512;
        let seen = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    for _ in 0..n {
                        local.push(f.fetch_add(0, 0, 0, 1.0));
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
        });
        let mut all = seen.into_inner().unwrap();
        all.sort_by(f64::total_cmp);
        let expect: Vec<f64> = (0..8 * n).map(|i| i as f64).collect();
        assert_eq!(all, expect);
        assert_eq!(f.load(0, 0, 0), (8 * n) as f64);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        // The whole point of the CAS loop: 8 writers per slot (the paper's
        // worst case) must never drop a contribution.
        let f = AtomicF64Field::new(1, 1, 4);
        let n = 1000;
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..n {
                        f.add(0, 0, 0, 0.5);
                        f.add(0, 0, 2, 1.0);
                    }
                });
            }
        });
        assert_eq!(f.load(0, 0, 0), 8.0 * n as f64 * 0.5);
        assert_eq!(f.load(0, 0, 2), 8.0 * n as f64);
        assert_eq!(f.load(0, 0, 1), 0.0);
    }

    #[test]
    fn indexing_matches_field_layout() {
        let f = AtomicF64Field::new(3, 2, 8);
        assert_eq!(f.block_stride(), 16);
        assert_eq!(f.len(), 48);
        // Write through (block, comp, cell) and confirm slot uniqueness by
        // writing distinct values everywhere.
        let mut v = 0.0;
        for b in 0..3u32 {
            for c in 0..2 {
                for i in 0..8u32 {
                    f.store(b, c, i, v);
                    v += 1.0;
                }
            }
        }
        let mut expect = 0.0;
        for b in 0..3u32 {
            for c in 0..2 {
                for i in 0..8u32 {
                    assert_eq!(f.load(b, c, i), expect);
                    expect += 1.0;
                }
            }
        }
    }

    #[test]
    fn flat_indexing_round_trips() {
        let f = AtomicF64Field::new(3, 2, 8);
        for b in 0..3u32 {
            for c in 0..2 {
                for i in 0..8u32 {
                    f.store(b, c, i, (b as f64) * 100.0 + (c as f64) * 10.0 + i as f64);
                    let flat = f.flat_index(b, c, i);
                    assert!(flat < f.len());
                    assert_eq!(f.load_flat(flat), f.load(b, c, i));
                }
            }
        }
    }

    #[test]
    fn heap_accounting() {
        let f = AtomicF64Field::new(4, 19, 64);
        assert_eq!(f.heap_bytes(), 4 * 19 * 64 * 8);
        assert!(!f.is_empty());
    }
}
