//! Block-sparse field storage over a [`crate::grid::SparseGrid`]
//! (paper §V-A, Fig. 5).
//!
//! Storage is the paper's component-major block layout
//! `data[block · q·B³ + comp · B³ + cell]`. Blocks are contiguous
//! (`block_stride = q·B³` elements each), which lets the executor hand
//! kernels disjoint per-block chunks; within a block each component's cells
//! are contiguous, which guarantees coalesced accesses on real hardware and
//! cache-line-friendly sweeps here.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicIsize, Ordering};

use crate::grid::{BlockIdx, SparseGrid};

/// A `q`-component field over the active blocks of a sparse grid.
///
/// Storage is dense per block: inactive cells inside an allocated block
/// occupy slots (exactly as on the GPU) but are never touched by kernels.
#[derive(Clone, Debug)]
pub struct Field<T> {
    q: usize,
    cells_per_block: usize,
    data: Vec<T>,
}

impl<T: Copy> Field<T> {
    /// Allocates the field for `grid`, filling every slot with `init`.
    pub fn new(grid: &SparseGrid, q: usize, init: T) -> Self {
        assert!(q >= 1, "field needs at least one component");
        let cpb = grid.cells_per_block();
        Self {
            q,
            cells_per_block: cpb,
            data: vec![init; grid.num_blocks() * q * cpb],
        }
    }

    /// Number of components per cell.
    #[inline(always)]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Cells per block (`B³`).
    #[inline(always)]
    pub fn cells_per_block(&self) -> usize {
        self.cells_per_block
    }

    /// Elements per block (`q · B³`): the chunk size for per-block parallel
    /// mutation.
    #[inline(always)]
    pub fn block_stride(&self) -> usize {
        self.q * self.cells_per_block
    }

    /// Number of blocks covered.
    #[inline(always)]
    pub fn num_blocks(&self) -> usize {
        self.data.len() / self.block_stride()
    }

    /// Flat index of `(block, comp, cell)`:
    /// `block · q·B³ + comp · B³ + cell`.
    #[inline(always)]
    pub fn index(&self, block: BlockIdx, comp: usize, cell: u32) -> usize {
        debug_assert!(comp < self.q);
        debug_assert!((cell as usize) < self.cells_per_block);
        (block as usize) * self.block_stride() + comp * self.cells_per_block + cell as usize
    }

    /// Reads one value.
    #[inline(always)]
    pub fn get(&self, block: BlockIdx, comp: usize, cell: u32) -> T {
        self.data[self.index(block, comp, cell)]
    }

    /// Writes one value.
    #[inline(always)]
    pub fn set(&mut self, block: BlockIdx, comp: usize, cell: u32, v: T) {
        let i = self.index(block, comp, cell);
        self.data[i] = v;
    }

    /// Read-only view of one block's storage (`q · B³` values).
    #[inline(always)]
    pub fn block(&self, block: BlockIdx) -> &[T] {
        let s = self.block_stride();
        &self.data[(block as usize) * s..(block as usize + 1) * s]
    }

    /// Mutable view of one block's storage.
    #[inline(always)]
    pub fn block_mut(&mut self, block: BlockIdx) -> &mut [T] {
        let s = self.block_stride();
        &mut self.data[(block as usize) * s..(block as usize + 1) * s]
    }

    /// Read-only view of one component within one block (`B³` values).
    #[inline(always)]
    pub fn component(&self, block: BlockIdx, comp: usize) -> &[T] {
        let base = (block as usize) * self.block_stride() + comp * self.cells_per_block;
        &self.data[base..base + self.cells_per_block]
    }

    /// Whole backing slice (read).
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Whole backing slice (write): callers chunk it by
    /// [`Field::block_stride`] for per-block parallel kernels.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Fills every slot with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Heap bytes held by the field (memory-model accounting).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

/// Swappable double buffer of fields (pre-/post-streaming populations).
#[derive(Clone, Debug)]
pub struct DoubleBuffer<T> {
    a: Field<T>,
    b: Field<T>,
    flipped: bool,
}

impl<T: Copy> DoubleBuffer<T> {
    /// Allocates two identical fields.
    pub fn new(grid: &SparseGrid, q: usize, init: T) -> Self {
        Self {
            a: Field::new(grid, q, init),
            b: Field::new(grid, q, init),
            flipped: false,
        }
    }

    /// Current source (read) field.
    #[inline(always)]
    pub fn src(&self) -> &Field<T> {
        if self.flipped {
            &self.b
        } else {
            &self.a
        }
    }

    /// Current destination (write) field.
    #[inline(always)]
    pub fn dst_mut(&mut self) -> &mut Field<T> {
        if self.flipped {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Both buffers at once: `(src, dst)`, for kernels that read the source
    /// of all blocks while writing their own block of the destination.
    #[inline(always)]
    pub fn pair_mut(&mut self) -> (&Field<T>, &mut Field<T>) {
        if self.flipped {
            (&self.b, &mut self.a)
        } else {
            (&self.a, &mut self.b)
        }
    }

    /// Read-only view of the destination-side buffer — after a swap this is
    /// the *previous* source (used by temporal-interpolation schemes that
    /// need the last two states without extra storage).
    #[inline(always)]
    pub fn peek_dst(&self) -> &Field<T> {
        if self.flipped {
            &self.a
        } else {
            &self.b
        }
    }

    /// Mutable access to the source buffer (in-place kernels: collision).
    #[inline(always)]
    pub fn src_mut(&mut self) -> &mut Field<T> {
        if self.flipped {
            &mut self.b
        } else {
            &mut self.a
        }
    }

    /// Swaps source and destination.
    #[inline(always)]
    pub fn swap(&mut self) {
        self.flipped = !self.flipped;
    }

    /// Current parity: the *half index* (see [`DoubleBuffer::half`]) of the
    /// source buffer. 0 before the first [`DoubleBuffer::swap`],
    /// alternating thereafter.
    #[inline(always)]
    pub fn parity(&self) -> usize {
        self.flipped as usize
    }

    /// Read-only access to half `h` (0 or 1) irrespective of parity —
    /// half `parity()` is the current source.
    #[inline(always)]
    pub fn half(&self, h: usize) -> &Field<T> {
        if h == 0 {
            &self.a
        } else {
            &self.b
        }
    }

    /// Mutable access to half `h` (0 or 1) irrespective of parity — the
    /// restore-side counterpart of [`DoubleBuffer::half`].
    #[inline(always)]
    pub fn half_mut(&mut self, h: usize) -> &mut Field<T> {
        if h == 0 {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Forces the parity to `parity` (0 or 1), so a restored buffer resumes
    /// with the same source/destination orientation the snapshot recorded.
    ///
    /// # Panics
    /// If `parity` is not 0 or 1.
    #[inline(always)]
    pub fn set_parity(&mut self, parity: usize) {
        assert!(parity < 2, "parity must be 0 or 1, got {parity}");
        self.flipped = parity == 1;
    }

    /// Splits the buffer into independently borrowable halves for
    /// executors that dispatch kernels touching specific halves
    /// concurrently (graph waves). The returned handle borrows the buffer
    /// exclusively; within it, [`SplitHalves::read`] and
    /// [`SplitHalves::write`] hand out per-half guards with runtime
    /// borrow checking — a schedule that lets a reader and a writer of the
    /// same half overlap panics deterministically instead of racing.
    pub fn split_mut(&mut self) -> SplitHalves<'_, T> {
        SplitHalves {
            halves: [&mut self.a as *mut _, &mut self.b as *mut _],
            state: [AtomicIsize::new(0), AtomicIsize::new(0)],
            _borrow: PhantomData,
        }
    }

    /// Heap bytes of both buffers.
    pub fn heap_bytes(&self) -> usize {
        self.a.heap_bytes() + self.b.heap_bytes()
    }
}

/// Exclusive handle over the two halves of a [`DoubleBuffer`], allowing
/// concurrent kernels to borrow *different* halves (or share read access to
/// the same half) with the aliasing rules enforced at runtime.
///
/// Per half, the state counter is a classic read/write lock without
/// blocking: `0` free, `> 0` that many readers, `−1` one writer. A
/// conflicting acquisition is a bug in the caller's dependency schedule and
/// panics rather than waiting — the schedule is supposed to have proven the
/// conflict impossible.
pub struct SplitHalves<'a, T> {
    halves: [*mut Field<T>; 2],
    state: [AtomicIsize; 2],
    _borrow: PhantomData<&'a mut DoubleBuffer<T>>,
}

// SAFETY: the handle owns an exclusive borrow of the buffer; all concurrent
// access goes through the guard methods, which enforce the single-writer /
// multi-reader discipline with the per-half state counters.
unsafe impl<T: Send> Send for SplitHalves<'_, T> {}
unsafe impl<T: Send + Sync> Sync for SplitHalves<'_, T> {}

impl<'a, T> SplitHalves<'a, T> {
    /// Shared access to half `h`.
    ///
    /// # Panics
    /// If a write guard for the same half is live (schedule bug).
    pub fn read(&self, h: usize) -> HalfReadGuard<'_, T> {
        let state = &self.state[h];
        state
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |s| {
                (s >= 0).then_some(s + 1)
            })
            .unwrap_or_else(|_| {
                panic!("half {h} is being written by a concurrent kernel (schedule bug)")
            });
        HalfReadGuard {
            // SAFETY: state transition above excludes any live writer.
            field: unsafe { &*self.halves[h] },
            state,
        }
    }

    /// Exclusive access to half `h`.
    ///
    /// # Panics
    /// If any guard for the same half is live (schedule bug).
    pub fn write(&self, h: usize) -> HalfWriteGuard<'_, T> {
        let state = &self.state[h];
        state
            .compare_exchange(0, -1, Ordering::Acquire, Ordering::Relaxed)
            .unwrap_or_else(|_| {
                panic!("half {h} is borrowed by a concurrent kernel (schedule bug)")
            });
        HalfWriteGuard {
            field: self.halves[h],
            state,
            _marker: PhantomData,
        }
    }
}

/// Shared guard over one half (see [`SplitHalves::read`]).
pub struct HalfReadGuard<'s, T> {
    field: &'s Field<T>,
    state: &'s AtomicIsize,
}

impl<T> std::ops::Deref for HalfReadGuard<'_, T> {
    type Target = Field<T>;
    #[inline(always)]
    fn deref(&self) -> &Field<T> {
        self.field
    }
}

impl<T> Drop for HalfReadGuard<'_, T> {
    fn drop(&mut self) {
        self.state.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive guard over one half (see [`SplitHalves::write`]).
pub struct HalfWriteGuard<'s, T> {
    field: *mut Field<T>,
    state: &'s AtomicIsize,
    _marker: PhantomData<&'s mut Field<T>>,
}

impl<T> std::ops::Deref for HalfWriteGuard<'_, T> {
    type Target = Field<T>;
    #[inline(always)]
    fn deref(&self) -> &Field<T> {
        // SAFETY: the −1 state excludes every other guard for this half.
        unsafe { &*self.field }
    }
}

impl<T> std::ops::DerefMut for HalfWriteGuard<'_, T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut Field<T> {
        // SAFETY: as in Deref.
        unsafe { &mut *self.field }
    }
}

impl<T> Drop for HalfWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.state.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Box3;
    use crate::grid::GridBuilder;
    use crate::sfc::SpaceFillingCurve;

    fn grid() -> SparseGrid {
        let mut gb = GridBuilder::new(4);
        gb.activate_box(Box3::from_dims(8, 8, 8));
        gb.build(SpaceFillingCurve::Morton)
    }

    fn grid_b(b: usize, n: usize) -> SparseGrid {
        let mut gb = GridBuilder::new(b);
        gb.activate_box(Box3::from_dims(n, n, n));
        gb.build(SpaceFillingCurve::Morton)
    }

    #[test]
    fn index_is_component_major() {
        let g = grid();
        let f = Field::<f64>::new(&g, 19, 0.0);
        assert_eq!(f.block_stride(), 19 * 64);
        assert_eq!(f.num_blocks(), g.num_blocks());
        // Component slices are contiguous and disjoint per component.
        assert_eq!(f.index(0, 0, 0), 0);
        assert_eq!(f.index(0, 0, 63), 63);
        assert_eq!(f.index(0, 1, 0), 64);
        assert_eq!(f.index(1, 0, 0), 19 * 64);
    }

    /// `Field::index` is a bijection onto `0..len` and `get`/`set`
    /// round-trips, for B ∈ {4, 8} × q ∈ {1, 19, 27}.
    #[test]
    fn index_bijection_and_roundtrip() {
        for b in [4usize, 8] {
            let g = grid_b(b, 2 * b);
            for q in [1usize, 19, 27] {
                let mut f = Field::<u32>::new(&g, q, 0);
                let len = f.as_slice().len();
                let mut seen = vec![false; len];
                for blk in 0..g.num_blocks() as u32 {
                    for comp in 0..q {
                        for cell in 0..g.cells_per_block() as u32 {
                            let i = f.index(blk, comp, cell);
                            assert!(!seen[i], "B={b} q={q}: index {i} hit twice");
                            seen[i] = true;
                            let v = blk * 100_000 + (comp as u32) * 1000 + cell;
                            f.set(blk, comp, cell, v);
                        }
                    }
                }
                assert!(seen.iter().all(|&s| s), "B={b} q={q}: not onto");
                for blk in 0..g.num_blocks() as u32 {
                    for comp in 0..q {
                        for cell in 0..g.cells_per_block() as u32 {
                            let v = blk * 100_000 + (comp as u32) * 1000 + cell;
                            assert_eq!(f.get(blk, comp, cell), v, "B={b} q={q}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn set_parity_reorients_the_buffer() {
        let g = grid();
        let mut db = DoubleBuffer::<f64>::new(&g, 1, 0.0);
        db.half_mut(0).set(0, 0, 0, 1.0);
        db.half_mut(1).set(0, 0, 0, 2.0);
        assert_eq!(db.parity(), 0);
        assert_eq!(db.src().get(0, 0, 0), 1.0);
        db.set_parity(1);
        assert_eq!(db.parity(), 1);
        assert_eq!(db.src().get(0, 0, 0), 2.0);
        db.set_parity(1); // idempotent
        assert_eq!(db.parity(), 1);
        db.set_parity(0);
        assert_eq!(db.src().get(0, 0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "parity must be 0 or 1")]
    fn set_parity_rejects_out_of_range() {
        let g = grid();
        let mut db = DoubleBuffer::<f64>::new(&g, 1, 0.0);
        db.set_parity(2);
    }

    #[test]
    fn get_set_roundtrip() {
        let g = grid();
        let mut f = Field::<f64>::new(&g, 3, 0.0);
        f.set(2, 1, 7, 42.5);
        assert_eq!(f.get(2, 1, 7), 42.5);
        assert_eq!(f.component(2, 1)[7], 42.5);
        assert_eq!(f.block(2)[64 + 7], 42.5);
        f.fill(1.0);
        assert_eq!(f.get(2, 1, 7), 1.0);
    }

    #[test]
    fn block_views_are_disjoint_chunks() {
        let g = grid();
        let mut f = Field::<u32>::new(&g, 2, 0);
        let stride = f.block_stride();
        for (i, chunk) in f.as_mut_slice().chunks_exact_mut(stride).enumerate() {
            chunk.fill(i as u32);
        }
        for b in 0..g.num_blocks() {
            assert!(f.block(b as BlockIdx).iter().all(|&v| v == b as u32));
        }
    }

    #[test]
    fn double_buffer_swap() {
        let g = grid();
        let mut db = DoubleBuffer::<f64>::new(&g, 1, 0.0);
        db.dst_mut().set(0, 0, 0, 5.0);
        assert_eq!(db.src().get(0, 0, 0), 0.0);
        db.swap();
        assert_eq!(db.src().get(0, 0, 0), 5.0);
        let (src, dst) = db.pair_mut();
        assert_eq!(src.get(0, 0, 0), 5.0);
        dst.set(0, 0, 0, 7.0);
        db.swap();
        assert_eq!(db.src().get(0, 0, 0), 7.0);
    }

    #[test]
    fn split_halves_allow_disjoint_and_shared_reads() {
        let g = grid();
        let mut db = DoubleBuffer::<f64>::new(&g, 1, 0.0);
        db.src_mut().set(0, 0, 0, 3.0);
        let halves = db.split_mut();
        let r0 = halves.read(0);
        let r0b = halves.read(0); // shared readers are fine
        let mut w1 = halves.write(1);
        w1.set(0, 0, 0, r0.get(0, 0, 0) * 2.0);
        drop((r0, r0b));
        drop(w1);
        // Guards released: any access pattern is legal again.
        let _w0 = halves.write(0);
        let _r1 = halves.read(1);
        drop((_w0, _r1));
        drop(halves);
        assert_eq!(db.half(1).get(0, 0, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "schedule bug")]
    fn split_halves_catch_read_write_conflict() {
        let g = grid();
        let mut db = DoubleBuffer::<f64>::new(&g, 1, 0.0);
        let halves = db.split_mut();
        let _r = halves.read(0);
        let _w = halves.write(0); // same half: must panic
    }

    #[test]
    #[should_panic(expected = "schedule bug")]
    fn split_halves_catch_double_write() {
        let g = grid();
        let mut db = DoubleBuffer::<f64>::new(&g, 1, 0.0);
        let halves = db.split_mut();
        let _w = halves.write(1);
        let _w2 = halves.write(1);
    }

    #[test]
    fn heap_accounting() {
        let g = grid();
        let f = Field::<f64>::new(&g, 19, 0.0);
        assert_eq!(f.heap_bytes(), g.num_blocks() * 19 * 64 * 8);
        let db = DoubleBuffer::<f32>::new(&g, 19, 0.0);
        assert_eq!(db.heap_bytes(), 2 * g.num_blocks() * 19 * 64 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn rejects_zero_components() {
        let g = grid();
        let _ = Field::<f64>::new(&g, 0, 0.0);
    }
}
