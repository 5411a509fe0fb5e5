//! Device-memory budget accounting (paper Fig. 1 / §VI-B).
//!
//! The paper's headline capability claim is that grid refinement lets a
//! 1596×840×840 wind-tunnel domain fit on a single 40 GB GPU, while even the
//! single-buffer AA-method caps a *uniform* grid at ≈ 794³. This module is
//! the arithmetic behind such claims: it tallies planned allocations against
//! the modeled device capacity without actually allocating, so full-size
//! paper domains can be evaluated on any host.

use std::fmt;

use crate::device::DeviceModel;

/// One planned allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Human-readable label ("level 2 populations", "ghost accumulators").
    pub label: String,
    /// Size in bytes.
    pub bytes: u64,
}

/// A tally of planned allocations against a device budget.
#[derive(Clone, Debug, Default)]
pub struct MemoryPlan {
    allocations: Vec<Allocation>,
}

impl MemoryPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an allocation.
    pub fn push(&mut self, label: impl Into<String>, bytes: u64) -> &mut Self {
        self.allocations.push(Allocation {
            label: label.into(),
            bytes,
        });
        self
    }

    /// Adds a population-field allocation: `cells · q · value_bytes ·
    /// buffers`.
    pub fn push_populations(
        &mut self,
        label: impl Into<String>,
        cells: u64,
        q: usize,
        value_bytes: usize,
        buffers: usize,
    ) -> &mut Self {
        self.push(label, cells * (q * value_bytes * buffers) as u64)
    }

    /// Total planned bytes.
    pub fn total_bytes(&self) -> u64 {
        self.allocations.iter().map(|a| a.bytes).sum()
    }

    /// All planned allocations.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Whether the plan fits the device.
    pub fn fits(&self, device: &DeviceModel) -> bool {
        self.total_bytes() <= device.memory_bytes
    }
}

impl fmt::Display for MemoryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.allocations {
            writeln!(f, "{:>12.3} MiB  {}", a.bytes as f64 / (1u64 << 20) as f64, a.label)?;
        }
        writeln!(
            f,
            "{:>12.3} MiB  TOTAL",
            self.total_bytes() as f64 / (1u64 << 20) as f64
        )
    }
}

/// Largest cubic uniform domain (cells per side) a device fits with the
/// given storage scheme.
///
/// - classic two-buffer LBM: `buffers = 2`;
/// - AA-method / Esoteric-Twist in-place streaming: `buffers = 1`
///   (paper refs \[7\], \[8\]).
pub fn max_uniform_cube(device: &DeviceModel, q: usize, value_bytes: usize, buffers: usize) -> u64 {
    (device.capacity_cells(q, value_bytes, buffers, 0.0) as f64).cbrt() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tallies() {
        let mut p = MemoryPlan::new();
        p.push("a", 100).push("b", 28);
        assert_eq!(p.total_bytes(), 128);
        assert_eq!(p.allocations().len(), 2);
    }

    #[test]
    fn population_sizing() {
        let mut p = MemoryPlan::new();
        p.push_populations("lvl0", 1000, 19, 8, 2);
        assert_eq!(p.total_bytes(), 1000 * 19 * 8 * 2);
    }

    #[test]
    fn budget_check() {
        let d = DeviceModel::a100_40gb();
        let mut fits = MemoryPlan::new();
        fits.push("x", d.memory_bytes - 1);
        assert!(fits.fits(&d));
        let mut over = MemoryPlan::new();
        over.push("x", d.memory_bytes + 1);
        assert!(!over.fits(&d));
    }

    #[test]
    fn aa_method_uniform_bound_matches_paper() {
        // Paper §VI-B: "the largest feasible domain size on a single 40 GB
        // GPU would be restricted to approximately 794×794×794" for the
        // AA-method (single buffer; the arithmetic implies f32 values).
        let d = DeviceModel::a100_40gb();
        let side = max_uniform_cube(&d, 19, 4, 1);
        assert!(
            (780..=835).contains(&side),
            "AA uniform side {side}, paper says ≈ 794"
        );
        // Two-buffer f64 storage is 4× smaller per side factor ∛4 ≈ 1.59.
        let side2 = max_uniform_cube(&d, 19, 8, 2);
        assert!(side2 < side);
    }

    #[test]
    fn airplane_domain_needs_refinement() {
        // The paper's 1596×840×840 domain at *uniform* finest resolution
        // does not fit even with the AA method — the motivating claim.
        let d = DeviceModel::a100_40gb();
        let uniform_cells = 1596u64 * 840 * 840;
        let mut p = MemoryPlan::new();
        p.push_populations("uniform airplane", uniform_cells, 27, 8, 1);
        assert!(!p.fits(&d));
    }

    #[test]
    fn display_renders_rows() {
        let mut p = MemoryPlan::new();
        p.push("level 0", 1 << 20);
        let s = p.to_string();
        assert!(s.contains("level 0"));
        assert!(s.contains("TOTAL"));
    }
}
