//! Analytic device model used to translate measured kernel traffic into
//! modeled GPU execution time.
//!
//! The paper's experiments run on an NVIDIA A100-40GB. LBM is famously
//! memory-bound (paper §I: "the memory-bounded computations associated with
//! LBM"), so on such a device kernel time is dominated by
//! `bytes_moved / effective_bandwidth`, plus a fixed launch latency per
//! kernel and a synchronization latency per dependency-graph barrier —
//! exactly the three quantities the paper's kernel fusion attacks.

/// Hardware parameters of the modeled device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Peak DRAM bandwidth in bytes per microsecond (= GB/s × 10⁻³ × 10⁹).
    pub bytes_per_us: f64,
    /// Fraction of peak bandwidth a well-tuned streaming kernel sustains.
    pub bandwidth_efficiency: f64,
    /// Fixed cost of one kernel launch, microseconds.
    pub launch_overhead_us: f64,
    /// Fixed cost of one device-wide synchronization point, microseconds.
    pub sync_overhead_us: f64,
    /// Multiplier on the cost of atomically-written bytes relative to plain
    /// stores (contention is low in the Accumulate step: ≤ 8 writers per
    /// ghost cell, paper §IV-A).
    pub atomic_cost_factor: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

impl DeviceModel {
    /// The paper's device: A100 with 40 GB HBM2e.
    ///
    /// 1555 GB/s peak bandwidth; ~80% achievable by streaming kernels;
    /// ~5 µs launch latency (CUDA 11 era); ~2 µs for a stream-internal
    /// dependency barrier.
    pub fn a100_40gb() -> Self {
        Self {
            name: "A100-40GB (modeled)",
            bytes_per_us: 1555e9 / 1e6,
            bandwidth_efficiency: 0.8,
            launch_overhead_us: 5.0,
            sync_overhead_us: 2.0,
            atomic_cost_factor: 2.0,
            memory_bytes: 40 * (1u64 << 30),
        }
    }

    /// Effective sustained bandwidth in bytes/µs.
    pub fn effective_bytes_per_us(&self) -> f64 {
        self.bytes_per_us * self.bandwidth_efficiency
    }

    /// Modeled time (µs) of `launches` kernels moving aggregate traffic,
    /// plus `syncs` synchronization points.
    pub fn total_time_us(
        &self,
        launches: u64,
        syncs: u64,
        bytes_read: u64,
        bytes_written: u64,
        atomic_bytes: u64,
    ) -> f64 {
        let plain = (bytes_read + bytes_written) as f64;
        let atomics = atomic_bytes as f64 * self.atomic_cost_factor;
        launches as f64 * self.launch_overhead_us
            + syncs as f64 * self.sync_overhead_us
            + (plain + atomics) / self.effective_bytes_per_us()
    }

    /// How many cells of a `q`-component double-buffered population field
    /// (plus topology overhead fraction `meta_overhead`) fit in memory.
    pub fn capacity_cells(&self, q: usize, bytes_per_value: usize, buffers: usize, meta_overhead: f64) -> u64 {
        let per_cell = (q * bytes_per_value * buffers) as f64 * (1.0 + meta_overhead);
        (self.memory_bytes as f64 / per_cell) as u64
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self::a100_40gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_parameters() {
        let d = DeviceModel::a100_40gb();
        assert_eq!(d.memory_bytes, 40 * 1024 * 1024 * 1024);
        assert!((d.bytes_per_us - 1.555e6).abs() < 1e-6 * 1.555e6);
    }

    #[test]
    fn kernel_time_is_launch_plus_traffic() {
        let d = DeviceModel::a100_40gb();
        assert_eq!(d.total_time_us(1, 0, 0, 0, 0), d.launch_overhead_us);
        let gb = 1u64 << 30;
        let t = d.total_time_us(1, 0, gb, gb, 0);
        let expect = d.launch_overhead_us + (2.0 * gb as f64) / d.effective_bytes_per_us();
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn atomics_cost_more() {
        let d = DeviceModel::a100_40gb();
        let plain = d.total_time_us(1, 0, 0, 1 << 20, 0);
        let atomic = d.total_time_us(1, 0, 0, 0, 1 << 20);
        assert!(atomic > plain);
    }

    #[test]
    fn fusion_saves_launch_overhead() {
        // Two kernels moving X bytes each vs one fused kernel moving the
        // same total traffic: the model must charge one launch less.
        let d = DeviceModel::a100_40gb();
        let two = d.total_time_us(2, 1, 1 << 26, 1 << 26, 0);
        let fused = d.total_time_us(1, 0, 1 << 26, 1 << 26, 0);
        assert!((two - fused - d.launch_overhead_us - d.sync_overhead_us).abs() < 1e-9);
    }

    #[test]
    fn capacity_matches_paper_aa_bound() {
        // Paper §VI-B: with the AA-method (single buffer) the largest
        // uniform domain on 40 GB is ≈ 794³ — that arithmetic assumes f32
        // populations (19 × 4 bytes/cell). Check we land in that ballpark.
        let d = DeviceModel::a100_40gb();
        let cells = d.capacity_cells(19, 4, 1, 0.0);
        let side = (cells as f64).cbrt();
        assert!(
            (780.0..835.0).contains(&side),
            "AA-method uniform capacity side = {side}, expected ≈ 794"
        );
    }
}
