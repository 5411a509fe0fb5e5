//! Launch, traffic and synchronization counters.
//!
//! Every kernel launch on the virtual device reports the traffic it *would*
//! generate on the modeled GPU (the ops in `lbm-core` know their exact
//! per-cell loads/stores); the profiler aggregates those numbers globally
//! and per kernel name, together with measured wall-clock time, so that
//! reports can show both measured and modeled performance side by side.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::device::DeviceModel;

/// Traffic declared by a single kernel launch.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LaunchCost {
    /// Lattice cells the kernel processes (for MLUPS accounting; ghost
    /// cells must be excluded by the caller, paper §VI).
    pub cells: u64,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory (plain stores).
    pub bytes_written: u64,
    /// Bytes written through atomic read-modify-write.
    pub atomic_bytes: u64,
    /// Warp occupancy of the launch, `min(1, threads_per_block/warp)`:
    /// thread blocks smaller than a warp leave lanes idle (the paper's
    /// §V-B argument against 2³ blocks). 1.0 = full warps.
    pub occupancy: f64,
}

impl Default for LaunchCost {
    fn default() -> Self {
        Self {
            cells: 0,
            bytes_read: 0,
            bytes_written: 0,
            atomic_bytes: 0,
            occupancy: 1.0,
        }
    }
}

impl LaunchCost {
    /// Starts the named per-cell cost builder: a kernel touching `cells`
    /// cells, with per-cell traffic declared by
    /// [`loads`](LaunchCostBuilder::loads) /
    /// [`stores`](LaunchCostBuilder::stores) /
    /// [`atomics`](LaunchCostBuilder::atomics) counts of
    /// [`value_bytes`](LaunchCostBuilder::value_bytes)-sized values
    /// (default 8, an `f64`).
    ///
    /// ```
    /// # use lbm_gpu::LaunchCost;
    /// let c = LaunchCost::cells(100).loads(19).stores(19).value_bytes(4).build();
    /// assert_eq!(c.bytes_read, 100 * 19 * 4);
    /// ```
    pub fn cells(cells: u64) -> LaunchCostBuilder {
        LaunchCostBuilder {
            cells,
            loads: 0,
            stores: 0,
            atomics: 0,
            value_bytes: 8,
            occupancy: 1.0,
        }
    }

    /// Total declared traffic (reads + plain writes + atomic writes).
    pub fn traffic_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written + self.atomic_bytes
    }
}

/// Named builder for per-cell [`LaunchCost`]s (see [`LaunchCost::cells`]).
/// Counts are *per cell*; byte totals are formed by
/// [`build`](LaunchCostBuilder::build).
#[derive(Copy, Clone, Debug)]
#[must_use = "finish the builder with .build()"]
pub struct LaunchCostBuilder {
    cells: u64,
    loads: u64,
    stores: u64,
    atomics: u64,
    value_bytes: u64,
    occupancy: f64,
}

impl LaunchCostBuilder {
    /// Per-cell count of values loaded from device memory.
    pub fn loads(mut self, per_cell: u64) -> Self {
        self.loads = per_cell;
        self
    }

    /// Per-cell count of values written with plain stores.
    pub fn stores(mut self, per_cell: u64) -> Self {
        self.stores = per_cell;
        self
    }

    /// Per-cell count of values written through atomic read-modify-write.
    pub fn atomics(mut self, per_cell: u64) -> Self {
        self.atomics = per_cell;
        self
    }

    /// Size in bytes of one value (default 8).
    pub fn value_bytes(mut self, bytes: u64) -> Self {
        self.value_bytes = bytes;
        self
    }

    /// Sets the warp occupancy from a thread-block size (cells per memory
    /// block) against a 32-lane warp.
    pub fn thread_block(mut self, threads: usize) -> Self {
        self.occupancy = (threads as f64 / 32.0).min(1.0);
        self
    }

    /// Finishes the builder into a [`LaunchCost`].
    pub fn build(self) -> LaunchCost {
        LaunchCost {
            cells: self.cells,
            bytes_read: self.cells * self.loads * self.value_bytes,
            bytes_written: self.cells * self.stores * self.value_bytes,
            atomic_bytes: self.cells * self.atomics * self.value_bytes,
            occupancy: self.occupancy,
        }
    }
}

impl From<LaunchCostBuilder> for LaunchCost {
    fn from(b: LaunchCostBuilder) -> Self {
        b.build()
    }
}

/// Aggregated statistics for one kernel name or for the whole run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Number of launches.
    pub launches: u64,
    /// Total cells processed.
    pub cells: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written (plain).
    pub bytes_written: u64,
    /// Total bytes written atomically.
    pub atomic_bytes: u64,
    /// Extra effective bytes charged for under-occupied warps
    /// (`traffic × (1/occupancy − 1)`).
    pub stall_bytes: u64,
    /// Measured wall-clock time, microseconds.
    pub wall_us: f64,
}

impl KernelStats {
    fn add(&mut self, cost: LaunchCost, wall_us: f64) {
        self.launches += 1;
        self.cells += cost.cells;
        self.bytes_read += cost.bytes_read;
        self.bytes_written += cost.bytes_written;
        self.atomic_bytes += cost.atomic_bytes;
        self.stall_bytes += stall_bytes(&cost);
        self.wall_us += wall_us;
    }

    /// Modeled device time for these launches (excludes sync points, which
    /// are accounted globally).
    pub fn modeled_us(&self, device: &DeviceModel) -> f64 {
        device.total_time_us(
            self.launches,
            0,
            self.bytes_read + self.stall_bytes,
            self.bytes_written,
            self.atomic_bytes,
        )
    }
}

/// Effective extra bytes a launch wastes on idle warp lanes.
fn stall_bytes(cost: &LaunchCost) -> u64 {
    if cost.occupancy >= 1.0 {
        return 0;
    }
    let traffic = (cost.bytes_read + cost.bytes_written + cost.atomic_bytes) as f64;
    (traffic * (1.0 / cost.occupancy.max(1e-3) - 1.0)) as u64
}

/// One kernel execution interval captured while span tracing is enabled:
/// what ran, when, in which wave of the graph executor, and how much
/// traffic it declared.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct KernelSpan {
    /// Kernel name as passed to the launch.
    pub name: &'static str,
    /// Wave index of the graph executor, if the launch was dispatched from
    /// a wave (eager launches record `None`).
    pub wave: Option<u32>,
    /// Start time in microseconds since the profiler epoch.
    pub start_us: f64,
    /// Measured wall duration in microseconds.
    pub dur_us: f64,
    /// Declared traffic (reads + writes + atomics) in bytes.
    pub bytes: u64,
    /// Cells processed.
    pub cells: u64,
}

thread_local! {
    /// Wave of the kernel the current thread is dispatching.
    static SPAN_CTX: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Runs `f` with the thread's span context set to `wave`; any kernel
/// launch recorded inside picks the wave up into its [`KernelSpan`]. The
/// previous context is restored on exit (dispatchers nest).
pub fn with_span_context<R>(wave: u32, f: impl FnOnce() -> R) -> R {
    SPAN_CTX.with(|c| {
        let prev = c.replace(Some(wave));
        let out = f();
        c.set(prev);
        out
    })
}

/// Locks `m`; a lock poisoned by a panic while it was held still yields
/// its data, as the executor's own locks do.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread-safe profiler shared by the executor.
#[derive(Debug)]
pub struct Profiler {
    launches: AtomicU64,
    syncs: AtomicU64,
    waves: AtomicU64,
    cells: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    atomic_bytes: AtomicU64,
    stall_bytes: AtomicU64,
    wall_ns: AtomicU64,
    per_kernel: Mutex<BTreeMap<&'static str, KernelStats>>,
    thread_blocks: Mutex<Vec<u64>>,
    tracing: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<KernelSpan>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self {
            launches: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            atomic_bytes: AtomicU64::new(0),
            stall_bytes: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            per_kernel: Mutex::new(BTreeMap::new()),
            thread_blocks: Mutex::new(Vec::new()),
            tracing: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Profiler {
    /// Fresh, zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one kernel launch (called by the executor).
    pub fn record_launch(&self, name: &'static str, cost: LaunchCost, wall_us: f64) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(cost.cells, Ordering::Relaxed);
        self.bytes_read.fetch_add(cost.bytes_read, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(cost.bytes_written, Ordering::Relaxed);
        self.atomic_bytes
            .fetch_add(cost.atomic_bytes, Ordering::Relaxed);
        self.stall_bytes
            .fetch_add(stall_bytes(&cost), Ordering::Relaxed);
        self.wall_ns
            .fetch_add((wall_us * 1e3) as u64, Ordering::Relaxed);
        lock(&self.per_kernel).entry(name).or_default().add(cost, wall_us);
        if self.tracing.load(Ordering::Relaxed) {
            let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            lock(&self.spans).push(KernelSpan {
                name,
                wave: SPAN_CTX.with(Cell::get),
                start_us: (end_us - wall_us).max(0.0),
                dur_us: wall_us,
                bytes: cost.traffic_bytes(),
                cells: cost.cells,
            });
        }
    }

    /// Records one synchronization point (dependency-graph barrier).
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Credits `blocks` executed blocks to pool thread `tid` (called by the
    /// executor after each multi-thread launch — the CPU analogue of per-SM
    /// work counters). The unit is **blocks**, not bytes: block counts are
    /// exact, whereas dividing a launch's declared traffic across blocks
    /// truncates.
    pub fn record_thread_blocks(&self, tid: usize, blocks: u64) {
        let mut v = lock(&self.thread_blocks);
        if v.len() <= tid {
            v.resize(tid + 1, 0);
        }
        v[tid] += blocks;
    }

    /// Accumulated per-thread executed **block counts**, indexed by pool
    /// thread id. Empty unless a multi-thread executor has run
    /// (single-thread launches skip the bookkeeping).
    pub fn thread_blocks(&self) -> Vec<u64> {
        lock(&self.thread_blocks).clone()
    }

    /// Records the start of one executor wave (a group of mutually
    /// independent kernels of the graph executor). While any waves are
    /// recorded, [`Profiler::modeled_us`] charges launch overhead per
    /// *wave* instead of per launch — concurrent submissions overlap their
    /// launch latency on a real device.
    pub fn record_wave(&self) {
        self.waves.fetch_add(1, Ordering::Relaxed);
    }

    /// Enables or disables kernel-span tracing (off by default: tracing
    /// appends to a span list on every launch).
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether span tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Snapshot of the recorded kernel spans.
    pub fn spans(&self) -> Vec<KernelSpan> {
        lock(&self.spans).clone()
    }

    /// Executor waves recorded so far.
    pub fn waves(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
    }

    /// Total launches so far.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// Total synchronization points so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Total cells processed so far.
    pub fn cells(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// Aggregate statistics snapshot.
    pub fn total(&self) -> KernelStats {
        KernelStats {
            launches: self.launches.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            atomic_bytes: self.atomic_bytes.load(Ordering::Relaxed),
            stall_bytes: self.stall_bytes.load(Ordering::Relaxed),
            wall_us: self.wall_ns.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }

    /// Per-kernel breakdown snapshot, sorted by name.
    pub fn per_kernel(&self) -> Vec<(&'static str, KernelStats)> {
        lock(&self.per_kernel)
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Modeled total device time in microseconds, including syncs and
    /// warp-underutilization stalls.
    ///
    /// When waves were recorded (graph execution), launch overhead is
    /// charged once per wave: on the modeled device the kernels of a wave
    /// go to distinct streams, so their launch latencies overlap (the host
    /// runs them one after another; the overlap is a property of the model
    /// only). Bandwidth is shared either way — total traffic divides by
    /// the same device bandwidth — so the wave makespan equals overhead +
    /// summed transfer time.
    pub fn modeled_us(&self, device: &DeviceModel) -> f64 {
        let t = self.total();
        let waves = self.waves();
        let launch_groups = if waves > 0 { waves } else { t.launches };
        device.total_time_us(
            launch_groups,
            self.syncs(),
            t.bytes_read + t.stall_bytes,
            t.bytes_written,
            t.atomic_bytes,
        )
    }

    /// Serializes the recorded spans as chrome://tracing JSON (the "trace
    /// event format", `ph: "X"` complete events). Load the file at
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Kernels run one after
    /// another, so every span sits on one row (`tid` 0) with its wave in
    /// `args` (-1 for eager launches); timestamps are normalized to the
    /// earliest span.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let t0 = spans
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        let t0 = if t0.is_finite() { t0 } else { 0.0 };
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let wave = s.wave.map_or(-1i64, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":0,\"tid\":0,\"args\":{{\"wave\":{},\
                 \"bytes\":{},\"cells\":{}}}}}",
                s.name,
                s.start_us - t0,
                s.dur_us,
                wave,
                s.bytes,
                s.cells
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Resets every counter to zero (tracing enablement and the time epoch
    /// are kept).
    pub fn reset(&self) {
        self.launches.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.waves.store(0, Ordering::Relaxed);
        self.cells.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.atomic_bytes.store(0, Ordering::Relaxed);
        self.stall_bytes.store(0, Ordering::Relaxed);
        self.wall_ns.store(0, Ordering::Relaxed);
        lock(&self.per_kernel).clear();
        lock(&self.thread_blocks).clear();
        lock(&self.spans).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cell_cost() {
        let c = LaunchCost::cells(100).loads(19).stores(19).build();
        assert_eq!(c.cells, 100);
        assert_eq!(c.bytes_read, 100 * 19 * 8);
        assert_eq!(c.bytes_written, 100 * 19 * 8);
        assert_eq!(c.atomic_bytes, 0);
    }

    #[test]
    fn profiler_aggregates() {
        let p = Profiler::new();
        let c = LaunchCost::cells(64).loads(19).stores(19).build();
        p.record_launch("collide", c, 12.0);
        p.record_launch("collide", c, 10.0);
        p.record_launch("stream", c, 8.0);
        p.record_sync();
        assert_eq!(p.launches(), 3);
        assert_eq!(p.syncs(), 1);
        assert_eq!(p.cells(), 192);
        let per = p.per_kernel();
        assert_eq!(per.len(), 2);
        let collide = per.iter().find(|(n, _)| *n == "collide").unwrap().1;
        assert_eq!(collide.launches, 2);
        assert_eq!(collide.cells, 128);
        assert!((collide.wall_us - 22.0).abs() < 1e-9);
    }

    #[test]
    fn profiler_reset() {
        let p = Profiler::new();
        p.set_tracing(true);
        p.record_launch("k", LaunchCost::cells(1).loads(1).stores(1).build(), 1.0);
        p.record_sync();
        p.record_wave();
        p.reset();
        assert_eq!(p.launches(), 0);
        assert_eq!(p.syncs(), 0);
        assert_eq!(p.waves(), 0);
        assert_eq!(p.total(), KernelStats::default());
        assert!(p.per_kernel().is_empty());
        assert!(p.spans().is_empty());
        assert!(p.tracing(), "tracing enablement survives reset");
    }

    #[test]
    fn spans_capture_wave_context() {
        let p = Profiler::new();
        let c = LaunchCost::cells(10).loads(2).stores(1).build();
        p.record_launch("before", c, 1.0);
        assert!(p.spans().is_empty(), "tracing off: no spans");
        p.set_tracing(true);
        p.record_launch("eager", c, 1.0);
        with_span_context(3, || p.record_launch("waved", c, 2.0));
        let spans = p.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "eager");
        assert_eq!(spans[0].wave, None);
        assert_eq!(spans[1].name, "waved");
        assert_eq!(spans[1].wave, Some(3));
        assert_eq!(spans[1].bytes, 10 * 3 * 8);
        assert_eq!(spans[1].cells, 10);
    }

    #[test]
    fn span_context_restores_on_exit() {
        with_span_context(1, || {
            with_span_context(2, || {
                assert_eq!(SPAN_CTX.with(Cell::get), Some(2));
            });
            assert_eq!(SPAN_CTX.with(Cell::get), Some(1));
        });
        assert_eq!(SPAN_CTX.with(Cell::get), None);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let p = Profiler::new();
        p.set_tracing(true);
        let c = LaunchCost::cells(4).loads(1).build();
        with_span_context(0, || p.record_launch("a", c, 1.0));
        with_span_context(1, || p.record_launch("b", c, 1.0));
        let json = p.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"ph\":\"X\""));
        // One row for every span; the wave travels in `args`.
        assert_eq!(json.matches("\"tid\":0").count(), 2);
        assert!(json.contains("\"wave\":1"));
        // Timestamps normalize: earliest span starts at ts 0.
        assert!(json.contains("\"ts\":0.000"));
    }

    #[test]
    fn waves_shrink_modeled_launch_overhead() {
        let d = DeviceModel::a100_40gb();
        let c = LaunchCost::cells(1).loads(1).build();
        let serial = Profiler::new();
        serial.record_launch("a", c, 0.0);
        serial.record_launch("b", c, 0.0);
        let waved = Profiler::new();
        waved.record_wave();
        waved.record_launch("a", c, 0.0);
        waved.record_launch("b", c, 0.0);
        let saved = serial.modeled_us(&d) - waved.modeled_us(&d);
        assert!(
            (saved - d.launch_overhead_us).abs() < 1e-9,
            "one wave of two launches saves one launch overhead, saved {saved}"
        );
    }

    #[test]
    fn modeled_time_includes_syncs() {
        let d = DeviceModel::a100_40gb();
        let p = Profiler::new();
        p.record_launch("k", LaunchCost::default(), 0.0);
        let base = p.modeled_us(&d);
        p.record_sync();
        assert!((p.modeled_us(&d) - base - d.sync_overhead_us).abs() < 1e-9);
    }

    #[test]
    fn profiler_is_thread_safe() {
        let p = Profiler::new();
        let c = LaunchCost::cells(1).loads(1).stores(1).build();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        p.record_launch("k", c, 0.5);
                    }
                });
            }
        });
        assert_eq!(p.launches(), 800);
        assert_eq!(p.cells(), 800);
    }
}
