//! The virtual GPU executor.
//!
//! A *kernel launch* maps one sparse-grid block to one "CUDA block"
//! (paper §V-A: "a block is assigned to one CUDA block and every CUDA thread
//! is assigned to a cell within the given block"). Here each grid block is a
//! work item claimed chunk-wise from a persistent in-crate [`ThreadPool`];
//! the per-cell loop inside the closure plays the role of the thread block.
//!
//! Two launch shapes cover every LBM kernel:
//! - [`Executor::launch`] — the closure only needs shared access
//!   (pure reads plus atomic scatter writes);
//! - [`Executor::launch_mut`] — the closure writes its own block's chunk of
//!   a destination field (disjoint `&mut` per block, the gather pattern).
//!
//! Every launch records its declared [`LaunchCost`] plus measured wall time
//! with the shared [`Profiler`], so benches can report measured and modeled
//! performance from the same run. With more than one pool thread the
//! profiler additionally receives per-thread executed block counts
//! ([`Profiler::thread_blocks`]), the CPU analogue of per-SM occupancy
//! counters.
//!
//! ## Determinism contract
//!
//! The pool only changes *which thread* executes a block, never what the
//! block computes. Kernels whose blocks write disjoint state (all gather
//! kernels under the `split_mut()` guard API) are therefore bit-identical
//! for every thread count by construction. The one scatter kernel in the
//! method — the fine→coarse Accumulate — must instead go through the staged
//! slab + ordered-merge path (see `lbm_core`'s kernel docs) whenever the
//! pool has more than one thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use lbm_sparse::chunk_granularity;

use crate::counters::{LaunchCost, Profiler};
use crate::device::DeviceModel;

/// Environment variable overriding the default pool width of
/// [`Executor::new`].
pub const THREADS_ENV: &str = "LBM_THREADS";

// ---------------------------------------------------------------------------
// Thread pool

/// Type-erased pointer to a launch closure. The pool guarantees no thread
/// dereferences it after the owning job's last block has completed, and the
/// launching call blocks until then — which is what makes erasing the
/// borrow lifetime sound.
struct TaskRef(*const (dyn Fn(u32) + Sync));

unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

impl TaskRef {
    fn new(f: &(dyn Fn(u32) + Sync)) -> Self {
        // Erase the borrow lifetime; see the struct docs for why this is
        // sound. Fat-pointer layout is identical on both sides.
        TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn(u32) + Sync), &'static (dyn Fn(u32) + Sync)>(f)
        })
    }

    /// # Safety
    /// The owning job must not have completed (`done < n`).
    unsafe fn call(&self, i: u32) {
        (*self.0)(i)
    }
}

/// One launch: `n` blocks claimed in `chunk`-sized ranges by whichever
/// threads are free (the caller participates as thread 0).
struct Job {
    task: TaskRef,
    n: u32,
    chunk: u32,
    /// Next unclaimed block index (claims are `fetch_add(chunk)`).
    next: AtomicU32,
    /// Completed block count; the job is finished when this reaches `n`.
    done: AtomicU32,
    finished: Mutex<bool>,
    done_cv: Condvar,
    /// Blocks executed per pool thread, for the profiler's balance counters.
    per_thread: Vec<AtomicU64>,
    /// First panic payload from any thread executing this job.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// Claims and runs chunks until the job is exhausted, crediting `tid`
    /// with the blocks it executed. A panicking block aborts the job
    /// (remaining blocks are skipped) but still completes the bookkeeping so
    /// every thread unblocks; the payload is re-thrown by the caller.
    fn run_chunks(&self, tid: usize) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let end = (start + self.chunk).min(self.n);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in start..end {
                    // SAFETY: done < n while this chunk is outstanding.
                    unsafe { self.task.call(i) };
                }
            }));
            if let Err(payload) = r {
                let mut p = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                p.get_or_insert(payload);
                drop(p);
                // Abort: stop further claims, and credit the blocks nobody
                // will ever claim to the completion count so every waiter
                // unblocks. Claims are contiguous, so the pre-swap counter
                // is exactly the claimed prefix.
                let prior = self.next.swap(self.n, Ordering::Relaxed).min(self.n);
                self.mark_done(self.n - prior);
            }
            self.per_thread[tid].fetch_add((end - start) as u64, Ordering::Relaxed);
            self.mark_done(end - start);
        }
    }

    /// Advances the completion count; the last advance flags the job
    /// finished and wakes the launching thread.
    fn mark_done(&self, blocks: u32) {
        if blocks > 0 && self.done.fetch_add(blocks, Ordering::AcqRel) + blocks == self.n {
            let mut fin = self.finished.lock().unwrap_or_else(|e| e.into_inner());
            *fin = true;
            self.done_cv.notify_all();
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work: Condvar,
    shutdown: AtomicBool,
}

fn worker_loop(shared: Arc<PoolShared>, tid: usize) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Drop exhausted jobs off the front so the queue stays short.
                while q
                    .front()
                    .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.n)
                {
                    q.pop_front();
                }
                if let Some(front) = q.front() {
                    break front.clone();
                }
                q = shared.work.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run_chunks(tid);
    }
}

/// A persistent work-stealing pool executing kernel launches block-parallel.
///
/// `threads == 1` keeps no workers at all: launches run inline on the
/// calling thread in ascending block order, which is the executor's
/// deterministic serial reference behavior.
pub struct ThreadPool {
    threads: usize,
    shared: Option<Arc<PoolShared>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads - 1` workers (the launching thread is the pool's
    /// thread 0).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return Self {
                threads,
                shared: None,
                workers: Vec::new(),
            };
        }
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|tid| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lbm-worker-{tid}"))
                    .spawn(move || worker_loop(s, tid))
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            threads,
            shared: Some(shared),
            workers,
        }
    }

    /// Pool width including the launching thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` for every block index in `0..n`, blocking until all have
    /// completed, and returns the number of blocks each pool thread
    /// executed. Blocks are claimed in [`chunk_granularity`]-sized ranges;
    /// with one thread this is a plain ascending loop.
    pub fn run(&self, n: u32, f: &(dyn Fn(u32) + Sync)) -> Vec<u64> {
        if n == 0 {
            return vec![0; self.threads];
        }
        let Some(shared) = &self.shared else {
            for i in 0..n {
                f(i);
            }
            return vec![n as u64];
        };
        let job = Arc::new(Job {
            task: TaskRef::new(f),
            n,
            chunk: chunk_granularity(n as usize, self.threads) as u32,
            next: AtomicU32::new(0),
            done: AtomicU32::new(0),
            finished: Mutex::new(false),
            done_cv: Condvar::new(),
            per_thread: (0..self.threads).map(|_| AtomicU64::new(0)).collect(),
            panic: Mutex::new(None),
        });
        {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(Arc::clone(&job));
        }
        shared.work.notify_all();
        // The caller participates instead of idling — thread 0 of the pool.
        job.run_chunks(0);
        let mut fin = job.finished.lock().unwrap_or_else(|e| e.into_inner());
        while !*fin {
            fin = job.done_cv.wait(fin).unwrap_or_else(|e| e.into_inner());
        }
        drop(fin);
        if let Some(payload) = job
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            std::panic::resume_unwind(payload);
        }
        job.per_thread
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Some(s) = &self.shared {
            {
                let _q = s.queue.lock().unwrap_or_else(|e| e.into_inner());
                s.shutdown.store(true, Ordering::Release);
            }
            s.work.notify_all();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Shared base pointer for handing disjoint per-block chunks to the pool.
/// Sound because each block index is executed exactly once and indices map
/// to non-overlapping `stride`-sized ranges.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor so closures capture the `Sync` wrapper, not the raw field.
    #[inline(always)]
    fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Executor

/// Virtual GPU: executes kernels block-parallel and meters them.
#[derive(Clone, Debug)]
pub struct Executor {
    profiler: Arc<Profiler>,
    device: DeviceModel,
    pool: Arc<ThreadPool>,
}

impl Executor {
    /// Parallel executor modeling `device`. The pool width comes from the
    /// `LBM_THREADS` environment variable if set, else from
    /// [`std::thread::available_parallelism`].
    pub fn new(device: DeviceModel) -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self {
            profiler: Arc::new(Profiler::new()),
            device,
            pool: Arc::new(ThreadPool::new(threads)),
        }
    }

    /// Executor with an explicit pool width. One thread executes every
    /// launch in block order on the calling thread: the sequential executor
    /// of debugging tests and of comparators modeling unoptimized codes.
    pub fn with_threads(device: DeviceModel, threads: usize) -> Self {
        Self {
            profiler: Arc::new(Profiler::new()),
            device,
            pool: Arc::new(ThreadPool::new(threads)),
        }
    }

    /// The shared profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The modeled device.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Number of pool threads executing each launch (including the
    /// launching thread).
    pub fn thread_count(&self) -> usize {
        self.pool.threads()
    }

    /// Credits each pool thread with the blocks it executed this launch.
    /// Raw block counts, not byte shares: `traffic / n_blocks` truncates,
    /// so byte figures never summed back to the declared traffic.
    fn record_balance(&self, n_blocks: usize, executed: &[u64]) {
        if n_blocks == 0 || self.pool.threads() == 1 {
            return;
        }
        for (tid, &blocks) in executed.iter().enumerate() {
            if blocks > 0 {
                self.profiler.record_thread_blocks(tid, blocks);
            }
        }
    }

    /// Launches a kernel over `n_blocks` blocks. The closure receives the
    /// block index; it may read shared state and write atomics, but has no
    /// exclusive access (use [`Executor::launch_mut`] to mutate fields).
    pub fn launch<F>(&self, name: &'static str, n_blocks: usize, cost: LaunchCost, f: F)
    where
        F: Fn(u32) + Sync,
    {
        let t0 = Instant::now();
        let executed = self.pool.run(n_blocks as u32, &f);
        self.record_balance(n_blocks, &executed);
        self.profiler
            .record_launch(name, cost, t0.elapsed().as_secs_f64() * 1e6);
    }

    /// Launches a kernel that mutates `data` in disjoint per-block chunks of
    /// `stride` elements. The closure receives `(block_index, block_chunk)`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `stride`.
    pub fn launch_mut<T, F>(
        &self,
        name: &'static str,
        data: &mut [T],
        stride: usize,
        cost: LaunchCost,
        f: F,
    ) where
        T: Send,
        F: Fn(u32, &mut [T]) + Sync,
    {
        assert!(stride > 0 && data.len().is_multiple_of(stride), "data not block-aligned");
        let n_blocks = data.len() / stride;
        let t0 = Instant::now();
        let base = SendPtr(data.as_mut_ptr());
        let executed = self.pool.run(n_blocks as u32, &|b: u32| {
            // SAFETY: each block index runs exactly once; ranges are
            // disjoint and in-bounds by the alignment assert above.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(b as usize * stride), stride)
            };
            f(b, chunk);
        });
        self.record_balance(n_blocks, &executed);
        self.profiler
            .record_launch(name, cost, t0.elapsed().as_secs_f64() * 1e6);
    }

    /// Records a synchronization point between dependent kernels.
    ///
    /// Execution here is synchronous, so this is pure accounting — but it is
    /// exactly the quantity the Neon dependency graph minimizes and the
    /// device model charges for.
    pub fn sync(&self) {
        self.profiler.record_sync();
    }

    /// Marks the start of one wave of concurrently-dispatched kernels (graph
    /// execution). Pure accounting: once any wave is recorded, the profiler's
    /// cost model charges launch overhead per wave instead of per launch.
    pub fn begin_wave(&self) {
        self.profiler.record_wave();
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new(DeviceModel::a100_40gb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn launch_visits_every_block() {
        let ex = Executor::default();
        let hits = AtomicU64::new(0);
        ex.launch("k", 100, LaunchCost::default(), |b| {
            assert!(b < 100);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(ex.profiler().launches(), 1);
    }

    #[test]
    fn launch_mut_chunks_are_disjoint_and_indexed() {
        let ex = Executor::default();
        let mut data = vec![0u32; 8 * 16];
        ex.launch_mut("k", &mut data, 16, LaunchCost::default(), |b, chunk| {
            assert_eq!(chunk.len(), 16);
            chunk.fill(b);
        });
        for (i, chunk) in data.chunks_exact(16).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as u32));
        }
    }

    #[test]
    fn sequential_mode_matches_parallel() {
        let par = Executor::default();
        let seq = Executor::with_threads(DeviceModel::a100_40gb(), 1);
        assert_eq!(seq.thread_count(), 1);
        let mut d1 = vec![0u64; 64];
        let mut d2 = vec![0u64; 64];
        let body = |b: u32, c: &mut [u64]| c.iter_mut().for_each(|v| *v = b as u64 + 7);
        par.launch_mut("k", &mut d1, 8, LaunchCost::default(), body);
        seq.launch_mut("k", &mut d2, 8, LaunchCost::default(), body);
        assert_eq!(d1, d2);
    }

    #[test]
    fn pool_covers_every_block_exactly_once_at_any_width() {
        for threads in [1usize, 2, 4, 8] {
            let ex = Executor::with_threads(DeviceModel::a100_40gb(), threads);
            assert_eq!(ex.thread_count(), threads);
            let n = 257; // deliberately not a multiple of any chunk size
            let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            ex.launch("k", n, LaunchCost::default(), |b| {
                counts[b as usize].fetch_add(1, Ordering::Relaxed);
            });
            for (b, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "block {b} at {threads} threads");
            }
        }
    }

    #[test]
    fn launch_mut_is_identical_across_thread_counts() {
        let reference: Vec<u64> = {
            let ex = Executor::with_threads(DeviceModel::a100_40gb(), 1);
            let mut d = vec![0u64; 32 * 16];
            ex.launch_mut("k", &mut d, 16, LaunchCost::default(), |b, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = (b as u64) << 32 | i as u64;
                }
            });
            d
        };
        for threads in [2usize, 4, 8] {
            let ex = Executor::with_threads(DeviceModel::a100_40gb(), threads);
            let mut d = vec![0u64; 32 * 16];
            ex.launch_mut("k", &mut d, 16, LaunchCost::default(), |b, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = (b as u64) << 32 | i as u64;
                }
            });
            assert_eq!(d, reference, "{threads} threads");
        }
    }

    #[test]
    fn per_thread_block_counts_sum_to_launched_blocks() {
        // Pins the counter's unit: each launched block is credited to
        // exactly one thread as a raw *block count* (not a byte share —
        // the old traffic/n_blocks division truncated, so byte figures
        // never added back up to the declared traffic).
        let ex = Executor::with_threads(DeviceModel::a100_40gb(), 4);
        let n = 64usize;
        let cost = LaunchCost::cells(n as u64 * 8).loads(2).stores(1).build();
        ex.launch("k", n, cost, |_| {
            std::hint::black_box(0u64);
        });
        let shares = ex.profiler().thread_blocks();
        assert!(shares.len() <= 4);
        assert_eq!(shares.iter().sum::<u64>(), n as u64);
    }

    #[test]
    fn pool_propagates_kernel_panics() {
        let ex = Executor::with_threads(DeviceModel::a100_40gb(), 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.launch("k", 64, LaunchCost::default(), |b| {
                assert!(b != 17, "boom at block 17");
            });
        }));
        assert!(r.is_err(), "panic in a kernel block must reach the launcher");
        // The pool survives a panicked job and keeps executing.
        let hits = AtomicU64::new(0);
        ex.launch("k2", 8, LaunchCost::default(), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn profiling_accumulates_cost_and_syncs() {
        let ex = Executor::default();
        ex.launch("a", 4, LaunchCost::cells(256).loads(19).stores(19).build(), |_| {});
        ex.sync();
        ex.launch("b", 4, LaunchCost::cells(128).loads(19).stores(19).atomics(2).build(), |_| {});
        let t = ex.profiler().total();
        assert_eq!(t.launches, 2);
        assert_eq!(t.cells, 384);
        assert_eq!(ex.profiler().syncs(), 1);
        assert!(t.wall_us >= 0.0);
        assert!(ex.profiler().modeled_us(ex.device()) > 0.0);
    }

    #[test]
    #[should_panic(expected = "not block-aligned")]
    fn rejects_misaligned_data() {
        let ex = Executor::default();
        let mut data = vec![0u32; 10];
        ex.launch_mut("k", &mut data, 3, LaunchCost::default(), |_, _| {});
    }
}
