//! Floating-point accumulation buffers.
//!
//! The optimized Accumulate step (paper §IV-A) scatters fine post-collision
//! populations into a coarse ghost layer with atomic adds ("scatter atomic
//! write operation from the fine level ... the contention is not too high as
//! every ghost cell will be written by a maximum of 8 other fine cells").
//! CUDA needs `atomicAdd(double*)` because those 8 fine cells run as
//! different threads. On this substrate one launch item runs a whole block
//! on one thread, and a ghost cell's 8 children lie in one fine block, so
//! each slot has a single writer per launch: `lbm_core` deposits with a
//! relaxed [`AtomicF64Field::load_flat`], an add and an
//! [`AtomicF64Field::store_flat`]. The slots stay atomics so that shared
//! (`&self`) access from the pool's threads is sound without `unsafe`.

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

    /// Relaxed read by flat element index
    /// `block · q·B³ + comp · B³ + cell` (see the type docs).
    #[inline(always)]
    pub fn load_flat(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Relaxed overwrite by flat element index (see
    /// [`Self::load_flat`]). Readers in a later launch see it: the executor
    /// joins every thread between launches.
    #[inline(always)]
    pub fn store_flat(&self, i: usize, v: f64) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
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
    fn store_and_load() {
        let f = AtomicF64Field::new(2, 3, 8);
        f.store(1, 2, 5, 3.75);
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
                    let flat = (b as usize * 2 + c) * 8 + i as usize;
                    f.store_flat(flat, (b as f64) * 100.0 + (c as f64) * 10.0 + i as f64);
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
