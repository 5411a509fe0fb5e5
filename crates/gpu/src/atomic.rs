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
//! relaxed [`AtomicF64Field::load`], an add and an
//! [`AtomicF64Field::store`]. The slots stay atomics so that shared
//! (`&self`) access from the pool's threads is sound without `unsafe`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A flat array of `f64` slots shared between the pool's threads, read and
/// written with relaxed loads and stores. The caller owns the layout
/// (`lbm_core` numbers one level's ghost cells and gives each `q` slots).
#[derive(Debug)]
pub struct AtomicF64Field {
    data: Vec<AtomicU64>,
}

impl AtomicF64Field {
    /// Allocates `len` slots holding `0.0`.
    pub fn zeroed(len: usize) -> Self {
        Self {
            data: (0..len).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field holds no slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed read of slot `i`.
    #[inline(always)]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Relaxed overwrite of slot `i`. Readers in a later launch see it: the
    /// executor joins every thread between launches.
    #[inline(always)]
    pub fn store(&self, i: usize, v: f64) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the slots of `range` to `0.0`.
    pub fn zero(&self, range: Range<usize>) {
        for a in &self.data[range] {
            a.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }

    /// Copies every slot, in order, into `out` (valid once writers have
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

    /// Overwrites every slot, in order, from `src` — the inverse of
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

    /// Heap bytes of the slots.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_and_zero() {
        let f = AtomicF64Field::zeroed(6);
        f.store(4, 3.75);
        f.store(1, -4.0);
        assert_eq!((f.load(4), f.load(1), f.load(0)), (3.75, -4.0, 0.0));
        f.zero(2..6);
        assert_eq!((f.load(4), f.load(1)), (0.0, -4.0));
        assert_eq!(f.heap_bytes(), 48);
        assert!(AtomicF64Field::zeroed(0).is_empty());
    }

    #[test]
    fn slice_copies_round_trip_bit_patterns() {
        let mut f = AtomicF64Field::zeroed(12);
        let mut image: Vec<f64> = (0..f.len()).map(|i| i as f64 - 3.5).collect();
        image[5] = f64::NAN;
        f.copy_from_slice(&image);
        assert!(f.load(5).is_nan());
        assert_eq!(f.load(10), image[10]);
        let mut out = vec![0.0; f.len()];
        f.copy_to_slice(&mut out);
        for (a, b) in out.iter().zip(&image) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
