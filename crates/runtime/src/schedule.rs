//! Wave schedule derived from a [`crate::graph::TaskGraph`].
//!
//! Neon runs independent kernels concurrently and synchronizes between
//! dependent groups. The [`Schedule`] materializes that plan: kernels
//! grouped into waves, one synchronization point between consecutive waves.
//! `lbm-core` replays the plan on the virtual GPU executor, calling
//! `Executor::sync()` exactly `sync_count` times per step so the cost model
//! charges synchronization the way the real runtime would.

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
        // sequential executor relies on for deterministic replay.
        for (node, &w) in graph.waves().iter().enumerate() {
            waves[w].push(node);
        }
        Self { waves }
    }

    /// Stream id of `node`: its position within its wave. Virtual streams
    /// are numbered per wave; concurrent kernels of one wave occupy
    /// distinct streams.
    pub fn stream_of(&self, node: usize) -> Option<usize> {
        self.waves
            .iter()
            .find_map(|w| w.iter().position(|&n| n == node))
    }

    /// Partitions wave `w`'s nodes across at most `max_streams` virtual
    /// streams (round-robin), preserving ascending node order within each
    /// stream. The executor dispatches one thread per stream; with
    /// `max_streams == 1` the whole wave runs on one stream in program
    /// order. Returns no more groups than the wave has nodes, and never an
    /// empty group.
    pub fn stream_partition(&self, w: usize, max_streams: usize) -> Vec<Vec<usize>> {
        let wave = &self.waves[w];
        let k = max_streams.max(1).min(wave.len().max(1));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &node) in wave.iter().enumerate() {
            groups[i % k].push(node);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }

    /// Number of synchronization points (between consecutive waves).
    pub fn sync_count(&self) -> usize {
        self.waves.len().saturating_sub(1)
    }

    /// Total kernels scheduled.
    pub fn kernel_count(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }

    /// Human-readable rendering: one line per wave.
    pub fn render(&self, graph: &TaskGraph) -> String {
        let mut out = String::new();
        for (w, nodes) in self.waves.iter().enumerate() {
            let labels: Vec<&str> = nodes
                .iter()
                .map(|&n| graph.nodes()[n].label.as_str())
                .collect();
            out.push_str(&format!("wave {w}: {}\n", labels.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FieldId, KernelNode};

    fn node(name: &str, reads: &[usize], writes: &[usize]) -> KernelNode {
        KernelNode {
            name: name.into(),
            label: name.into(),
            level: None,
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
    fn stream_partition_round_robins_in_order() {
        let mut g = TaskGraph::new();
        // Five independent writers land in one wave.
        for i in 0..5 {
            g.push(node(&format!("k{i}"), &[], &[i]));
        }
        let s = Schedule::from_graph(&g);
        assert_eq!(s.waves.len(), 1);
        assert_eq!(s.stream_partition(0, 1), vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(
            s.stream_partition(0, 2),
            vec![vec![0, 2, 4], vec![1, 3]],
            "round-robin keeps each stream ascending"
        );
        // More streams than nodes: one node per stream, no empty groups.
        assert_eq!(
            s.stream_partition(0, 8),
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
        );
        assert_eq!(s.stream_partition(0, 0), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let s = Schedule::from_graph(&g);
        assert_eq!(s.waves.len(), 0);
        assert_eq!(s.sync_count(), 0);
        assert_eq!(s.kernel_count(), 0);
    }

    #[test]
    fn render_shows_waves() {
        let mut g = TaskGraph::new();
        g.push(node("C0", &[], &[0]));
        g.push(node("S0", &[0], &[1]));
        let s = Schedule::from_graph(&g);
        let r = s.render(&g);
        assert!(r.contains("wave 0: C0"));
        assert!(r.contains("wave 1: S0"));
    }
}
