//! Wave schedule derived from a [`crate::graph::TaskGraph`].
//!
//! Neon runs independent kernels concurrently and synchronizes between
//! dependent groups. The [`Schedule`] materializes that plan: kernels
//! grouped into waves, one synchronization point between consecutive waves.
//! `lbm-core` computes it once, when an engine is assembled, and replays it
//! on every step on the virtual GPU executor: it opens each wave with
//! `Executor::begin_wave()` (the cost model then charges one launch
//! overhead per wave, the modeled launch overlap) and calls
//! `Executor::sync()` exactly `sync_count` times per step, so the model
//! charges synchronization the way the real runtime would. The host runs a
//! wave's kernels one after another in ascending node order, each kernel
//! block-parallel on the executor's pool.

use crate::graph::TaskGraph;

/// Kernels grouped into concurrently-runnable waves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// `waves[w]` lists node indices runnable concurrently in wave `w`.
    pub waves: Vec<Vec<usize>>,
}

impl Schedule {
    /// Builds the ASAP wave schedule of `graph`, reusing the wave partition
    /// the graph maintains incrementally (no recomputation).
    pub fn from_graph(graph: &TaskGraph) -> Self {
        let mut waves: Vec<Vec<usize>> = graph
            .wave_sizes()
            .iter()
            .map(|&n| Vec::with_capacity(n))
            .collect();
        // Node indices ascend within each wave: program order, which the
        // engine's dispatch relies on for deterministic replay.
        for (node, &w) in graph.waves().iter().enumerate() {
            waves[w].push(node);
        }
        Self { waves }
    }

    /// Number of synchronization points (between consecutive waves).
    pub fn sync_count(&self) -> usize {
        self.waves.len().saturating_sub(1)
    }

    /// Total kernels scheduled.
    pub fn kernel_count(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FieldId, KernelNode};

    fn node(label: &str, reads: &[usize], writes: &[usize]) -> KernelNode {
        KernelNode {
            label: label.into(),
            reads: reads.iter().map(|&i| FieldId(i)).collect(),
            writes: writes.iter().map(|&i| FieldId(i)).collect(),
            atomics: vec![],
        }
    }

    #[test]
    fn diamond_schedule() {
        // a writes f0; b and c read f0 writing f1/f2; d reads f1+f2.
        let mut g = TaskGraph::new();
        g.push(node("a", &[], &[0]));
        g.push(node("b", &[0], &[1]));
        g.push(node("c", &[0], &[2]));
        g.push(node("d", &[1, 2], &[3]));
        let s = Schedule::from_graph(&g);
        assert_eq!(s.waves.len(), 3);
        assert_eq!(s.waves[0], vec![0]);
        assert_eq!(s.waves[1], vec![1, 2], "b and c are independent");
        assert_eq!(s.waves[2], vec![3]);
        assert_eq!(s.sync_count(), 2);
        assert_eq!(s.kernel_count(), 4);
        assert_eq!(s.sync_count(), g.sync_count());
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let s = Schedule::from_graph(&g);
        assert_eq!(s.waves.len(), 0);
        assert_eq!(s.sync_count(), 0);
        assert_eq!(s.kernel_count(), 0);
    }
}
