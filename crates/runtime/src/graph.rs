//! Automatic data-dependency graph extraction (paper §V-C, Fig. 2).
//!
//! Neon's programming model has the application declare, for every kernel,
//! which fields it reads and writes; the runtime derives the dependency
//! graph, runs independent kernels concurrently, and "places synchronization
//! points only when necessary". This module reproduces that machinery: the
//! engine in `lbm-core` registers each kernel of one coarse time step in
//! program order, and the graph yields
//!
//! - the kernel count (the paper's headline "around three times fewer
//!   kernels" for the fused variant, Fig. 2),
//! - the minimal synchronization-point count (waves of an ASAP schedule),
//! - a Graphviz DOT rendering of the Fig. 2 style graph.

use std::fmt::Write as _;

/// Handle to a field: an index the caller assigns, one per distinct
/// buffer (two fields conflict exactly when their ids are equal).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub usize);

/// One kernel node with its declared accesses.
#[derive(Clone, Debug)]
pub struct KernelNode {
    /// Short label for DOT rendering ("C0", "SEO1", ...).
    pub label: String,
    /// Fields read.
    pub reads: Vec<FieldId>,
    /// Fields written exclusively.
    pub writes: Vec<FieldId>,
    /// Fields accumulated into atomically (commute among themselves).
    pub atomics: Vec<FieldId>,
}

/// The extracted dependency graph of one schedule unit (e.g. one coarse
/// time step).
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    nodes: Vec<KernelNode>,
    /// `edges[j]` lists the predecessors of node `j`.
    preds: Vec<Vec<usize>>,
    /// ASAP wave index per node, maintained incrementally by
    /// [`TaskGraph::push`] (`wave[j] = 1 + max(wave[preds])`). Cached so
    /// `waves`/`sync_count` and the executor never
    /// recompute the partition.
    wave: Vec<usize>,
    /// Node count per wave (`wave_counts.len()` = number of waves).
    wave_counts: Vec<usize>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a kernel in program order, inferring dependency edges against
    /// all earlier kernels:
    ///
    /// - read-after-write, write-after-read, write-after-write on any shared
    ///   field create an edge;
    /// - two *atomic* accumulations into the same field commute — no edge —
    ///   but an atomic access conflicts with plain reads and writes.
    pub fn push(&mut self, node: KernelNode) -> usize {
        let j = self.nodes.len();
        let mut preds = Vec::new();
        for (i, earlier) in self.nodes.iter().enumerate() {
            if Self::conflict(earlier, &node) {
                preds.push(i);
            }
        }
        // Predecessors always have smaller indices, so the ASAP wave of the
        // new node is final the moment it is pushed.
        let w = preds.iter().map(|&i| self.wave[i] + 1).max().unwrap_or(0);
        if w >= self.wave_counts.len() {
            self.wave_counts.resize(w + 1, 0);
        }
        self.wave_counts[w] += 1;
        self.wave.push(w);
        self.nodes.push(node);
        self.preds.push(preds);
        j
    }

    fn overlaps(a: &[FieldId], b: &[FieldId]) -> bool {
        a.iter().any(|x| b.contains(x))
    }

    fn conflict(a: &KernelNode, b: &KernelNode) -> bool {
        // b after a. RAW / WAR / WAW on plain accesses:
        Self::overlaps(&a.writes, &b.reads)
            || Self::overlaps(&a.reads, &b.writes)
            || Self::overlaps(&a.writes, &b.writes)
            // Atomic vs plain access conflicts in either direction:
            || Self::overlaps(&a.atomics, &b.reads)
            || Self::overlaps(&a.atomics, &b.writes)
            || Self::overlaps(&a.reads, &b.atomics)
            || Self::overlaps(&a.writes, &b.atomics)
        // a.atomics vs b.atomics deliberately absent: atomic adds commute.
    }

    /// All nodes.
    pub fn nodes(&self) -> &[KernelNode] {
        &self.nodes
    }

    /// Kernel count — the Fig. 2 comparison metric.
    pub fn kernel_count(&self) -> usize {
        self.nodes.len()
    }

    /// Direct dependency edge count.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }

    /// ASAP wave index of every node: `wave[j] = 1 + max(wave[preds])`.
    /// Cached — maintained incrementally by [`TaskGraph::push`].
    pub fn waves(&self) -> &[usize] {
        &self.wave
    }

    /// Number of waves in the ASAP schedule.
    pub fn wave_count(&self) -> usize {
        self.wave_counts.len()
    }

    /// Node count of each wave (`wave_sizes()[w]` kernels run in wave `w`).
    pub fn wave_sizes(&self) -> &[usize] {
        &self.wave_counts
    }

    /// Minimal number of device-wide synchronization points: one between
    /// consecutive waves of the ASAP schedule.
    pub fn sync_count(&self) -> usize {
        self.wave_counts.len().saturating_sub(1)
    }

    /// Transitive reduction of the predecessor sets (for readable DOT):
    /// removes an edge i→j when a longer path i→…→j exists.
    fn reduced_preds(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        // reach[i] = set of nodes reachable from i (forward).
        let words = n.div_ceil(64);
        let mut reach = vec![vec![0u64; words]; n];
        // Process in reverse topological (program) order; preds always point
        // backwards, so successors of i have larger indices.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, ps) in self.preds.iter().enumerate() {
            for &i in ps {
                succs[i].push(j);
            }
        }
        for i in (0..n).rev() {
            // Clone to appease the borrow checker; graphs are tiny.
            let ss = succs[i].clone();
            for s in ss {
                reach[i][s / 64] |= 1u64 << (s % 64);
                let other = reach[s].clone();
                for (w, o) in reach[i].iter_mut().zip(other) {
                    *w |= o;
                }
            }
        }
        let reachable = |from: usize, to: usize, reach: &[Vec<u64>]| -> bool {
            reach[from][to / 64] >> (to % 64) & 1 == 1
        };
        self.preds
            .iter()
            .map(|ps| {
                ps.iter()
                    .copied()
                    .filter(|&i| {
                        // Keep i→j only if no other pred k of j is reachable
                        // from i (which would imply i→…→k→j).
                        !ps.iter().any(|&k| k != i && reachable(i, k, &reach))
                    })
                    .collect()
            })
            .collect()
    }

    /// Graphviz DOT rendering in the style of Fig. 2: nodes labeled by
    /// operator initial + level, transitively reduced edges.
    pub fn to_dot(&self, title: &str) -> String {
        let mut s = String::new();
        writeln!(s, "digraph \"{title}\" {{").unwrap();
        writeln!(s, "  rankdir=LR;").unwrap();
        writeln!(s, "  node [shape=circle, fontsize=10];").unwrap();
        for (j, n) in self.nodes.iter().enumerate() {
            writeln!(s, "  n{j} [label=\"{}\"];", n.label).unwrap();
        }
        for (j, ps) in self.reduced_preds().iter().enumerate() {
            for &i in ps {
                writeln!(s, "  n{i} -> n{j};").unwrap();
            }
        }
        writeln!(s, "}}").unwrap();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(label: &str, reads: &[FieldId], writes: &[FieldId], atomics: &[FieldId]) -> KernelNode {
        KernelNode {
            label: label.into(),
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            atomics: atomics.to_vec(),
        }
    }

    #[test]
    fn raw_dependency() {
        let mut g = TaskGraph::new();
        let f = FieldId(0);
        g.push(node("w", &[], &[f], &[]));
        g.push(node("r", &[f], &[], &[]));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.sync_count(), 1);
    }

    #[test]
    fn independent_kernels_run_concurrently() {
        let mut g = TaskGraph::new();
        g.push(node("a", &[], &[FieldId(0)], &[]));
        g.push(node("b", &[], &[FieldId(1)], &[]));
        g.push(node("c", &[], &[FieldId(2)], &[]));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.sync_count(), 0);
        assert_eq!(g.wave_sizes(), &[3]);
    }

    #[test]
    fn atomic_adds_commute() {
        let mut g = TaskGraph::new();
        let acc = FieldId(0);
        g.push(node("acc1", &[], &[], &[acc]));
        g.push(node("acc2", &[], &[], &[acc]));
        assert_eq!(g.edge_count(), 0, "atomic accumulations must not serialize");
        // But a reader after them must wait for both.
        g.push(node("coalesce", &[acc], &[], &[]));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.sync_count(), 1);
    }

    #[test]
    fn war_and_waw_dependencies() {
        let mut g = TaskGraph::new();
        let f = FieldId(0);
        g.push(node("r", &[f], &[], &[]));
        g.push(node("w1", &[], &[f], &[])); // WAR
        g.push(node("w2", &[], &[f], &[])); // WAW
        assert_eq!(g.edge_count(), 1 + 2); // w1←r ; w2←r(WAR? no: w2 after r reads? r reads, w2 writes → WAR edge), w2←w1
        assert_eq!(g.sync_count(), 2);
    }

    #[test]
    fn chain_waves() {
        let mut g = TaskGraph::new();
        let (a, b, c) = (FieldId(0), FieldId(1), FieldId(2));
        g.push(node("k1", &[a], &[b], &[]));
        g.push(node("k2", &[b], &[c], &[]));
        g.push(node("k3", &[c], &[a], &[]));
        assert_eq!(g.waves(), vec![0, 1, 2]);
        assert_eq!(g.sync_count(), 2);
        assert_eq!(g.wave_count(), 3);
        assert_eq!(g.wave_sizes(), &[1, 1, 1]);
    }

    #[test]
    fn cached_waves_match_recomputation() {
        // The incremental wave cache must equal a from-scratch longest-path
        // computation on an irregular graph.
        let mut g = TaskGraph::new();
        g.push(node("a", &[], &[FieldId(0)], &[]));
        g.push(node("b", &[], &[FieldId(1)], &[]));
        g.push(node("c", &[FieldId(0), FieldId(1)], &[FieldId(2)], &[]));
        g.push(node("d", &[], &[FieldId(3)], &[]));
        g.push(node("e", &[FieldId(2), FieldId(3)], &[FieldId(4)], &[]));
        assert_eq!(g.waves(), vec![0, 0, 1, 0, 2]);
        assert_eq!(g.wave_sizes(), &[3, 1, 1]);
        assert_eq!(g.sync_count(), 2);
    }

    #[test]
    fn dot_is_transitively_reduced() {
        let mut g = TaskGraph::new();
        let (a, b) = (FieldId(0), FieldId(1));
        // k1 writes a; k2 reads a writes b; k3 reads a and b.
        g.push(node("k1", &[], &[a], &[]));
        g.push(node("k2", &[a], &[b], &[]));
        g.push(node("k3", &[a, b], &[], &[]));
        // Direct edges: k1→k2, k1→k3, k2→k3. Reduction drops k1→k3.
        assert_eq!(g.edge_count(), 3);
        let dot = g.to_dot("test");
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(!dot.contains("n0 -> n2"), "transitive edge must be reduced:\n{dot}");
    }
}
