//! Kernel/dependency-graph generators for the paper's Fig. 2.
//!
//! Two generators:
//! - [`alg1_graph`]: the original distributed baseline (paper Algorithm 1)
//!   as ported to the GPU — the top half of Fig. 2;
//! - [`step_graph`]: the graph our engine actually executes for any
//!   [`Variant`], mirroring `Engine::step_level` — the bottom half of
//!   Fig. 2 when called with [`Variant::FusedAll`].
//!
//! The graphs are built from the kernels' declared field accesses, so
//! kernel counts, dependency edges and minimal synchronization points come
//! out of the same machinery Neon uses (paper §V-C).

use lbm_runtime::{FieldId, FieldRegistry, KernelNode, TaskGraph};

use crate::program::{self, LevelTopo};
use crate::variant::Variant;

fn node(
    label: String,
    level: u32,
    reads: Vec<FieldId>,
    writes: Vec<FieldId>,
    atomics: Vec<FieldId>,
) -> KernelNode {
    KernelNode {
        name: label.clone(),
        label,
        level: Some(level),
        reads,
        writes,
        atomics,
    }
}

/// Graph of one coarsest time step of paper Algorithm 1 (original
/// baseline: fine-side ghost layers, no Accumulate split). Each level `l`
/// owns one population field; Explosion reads the coarser field, and
/// Coalescence reads the finer field.
pub fn alg1_graph(levels: u32) -> TaskGraph {
    assert!(levels >= 1);
    let mut reg = FieldRegistry::new();
    let f: Vec<FieldId> = (0..levels).map(|l| reg.register(format!("f{l}"))).collect();
    let mut g = TaskGraph::new();

    fn rec(g: &mut TaskGraph, f: &[FieldId], l: u32, levels: u32, second_half: bool) {
        let li = l as usize;
        g.push(node(
            format!("C{l}"),
            l,
            vec![f[li]],
            vec![f[li]],
            vec![],
        ));
        if l != levels - 1 {
            rec(g, f, l + 1, levels, false);
        }
        if l != 0 {
            g.push(node(
                format!("E{l}"),
                l,
                vec![f[li - 1]],
                vec![f[li]],
                vec![],
            ));
        }
        g.push(node(
            format!("S{l}"),
            l,
            vec![f[li]],
            vec![f[li]],
            vec![],
        ));
        if l != levels - 1 {
            g.push(node(
                format!("O{l}"),
                l,
                vec![f[li + 1]],
                vec![f[li]],
                vec![],
            ));
        }
        if l == 0 || second_half {
            return;
        }
        rec(g, f, l, levels, true);
    }
    rec(&mut g, &f, 0, levels, false);
    g
}

/// Graph of one coarsest time step of our engine under `variant`: the
/// [`crate::program::step_ops`] launch sequence — the very program
/// `Engine::step` executes — rendered as a task graph.
///
/// Assumes the generic nested-refinement topology: every level `< levels−1`
/// carries a ghost layer and every level `> 0` has an explosion interface.
/// (`Engine::step_task_graph` builds the same graph from the *actual* grid
/// topology.)
pub fn step_graph(levels: u32, variant: Variant) -> TaskGraph {
    assert!(levels >= 1);
    let topo = program::generic_topology(levels);
    step_graph_for(&topo, variant, &vec![0u8; levels as usize], false)
}

/// Graph of one coarse step for an arbitrary level topology and starting
/// buffer parities (see [`crate::program::step_ops`]). `staged` renders the
/// deterministic scatter+merge Accumulate split instead of the atomic
/// scatter; the canonical Fig.-2 graphs pass `false`.
pub fn step_graph_for(
    topo: &[LevelTopo],
    variant: Variant,
    start_halves: &[u8],
    staged: bool,
) -> TaskGraph {
    let ops = program::step_ops(topo, variant, start_halves, staged);
    let mut g = TaskGraph::new();
    for op in &ops {
        g.push(program::kernel_node(op, topo, staged));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_counts() {
        // 2 levels: C0, [C1 E1 S1 C1 E1 S1], S0, O0 = 9 kernels.
        assert_eq!(alg1_graph(2).kernel_count(), 9);
        // 3 levels: 23 kernels (see derivation in graphs.rs docs/tests).
        assert_eq!(alg1_graph(3).kernel_count(), 23);
        // 1 level: plain C, S.
        assert_eq!(alg1_graph(1).kernel_count(), 2);
    }

    #[test]
    fn optimized_counts() {
        // 2 levels FusedAll: CASE1 ×2, SEO0, C0, R0 = 5.
        assert_eq!(step_graph(2, Variant::FusedAll).kernel_count(), 5);
        // 3 levels FusedAll: 4×CASE2 + 2×(SEO1, CA1, R1) + (SEO0, C0, R0) = 13.
        assert_eq!(step_graph(3, Variant::FusedAll).kernel_count(), 13);
    }

    #[test]
    fn baseline_counts() {
        // 2 levels modified baseline:
        // fine ×2: S1 E1 C1 A1 = 8; coarse: S0 O0 C0 R0 = 4. Total 12.
        assert_eq!(step_graph(2, Variant::ModifiedBaseline).kernel_count(), 12);
        // 3 levels: finest ×4: (S2 E2 C2 A2) = 16; mid ×2: (S1 E1 O1 C1 A1
        // R1) = 12; coarse: (S0 O0 C0 R0) = 4. Total 32.
        assert_eq!(step_graph(3, Variant::ModifiedBaseline).kernel_count(), 32);
    }

    #[test]
    fn fusion_reduces_kernels_about_3x() {
        // The paper's headline (Fig. 2): "around three times fewer kernels".
        for levels in [2u32, 3, 4] {
            let base = step_graph(levels, Variant::ModifiedBaseline).kernel_count() as f64;
            let ours = step_graph(levels, Variant::FusedAll).kernel_count() as f64;
            let ratio = base / ours;
            assert!(
                (2.0..4.0).contains(&ratio),
                "levels={levels}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn fusion_reduces_syncs() {
        for levels in [2u32, 3] {
            let base = step_graph(levels, Variant::ModifiedBaseline).sync_count();
            let ours = step_graph(levels, Variant::FusedAll).sync_count();
            assert!(ours < base, "levels={levels}: {ours} !< {base}");
        }
    }

    #[test]
    fn fully_fused_is_smallest() {
        let full = step_graph(3, Variant::FullyFused).kernel_count();
        let ours = step_graph(3, Variant::FusedAll).kernel_count();
        assert!(full <= ours);
    }

    #[test]
    fn staged_graph_adds_merge_nodes_only() {
        let topo = program::generic_topology(2);
        let halves = [0u8, 0];
        let serial = step_graph_for(&topo, Variant::FusedAll, &halves, false);
        let staged = step_graph_for(&topo, Variant::FusedAll, &halves, true);
        // Two fine substeps each gain one M node; the canonical count is
        // untouched (pinned by `optimized_counts`).
        assert_eq!(staged.kernel_count(), serial.kernel_count() + 2);
        let dot = staged.to_dot("staged");
        assert!(dot.contains("M1"));
    }

    #[test]
    fn dot_export_works() {
        let dot = step_graph(2, Variant::FusedAll).to_dot("ours");
        assert!(dot.contains("CASE1"));
        // Level 0 never explodes, so its fused stream is S+O only.
        assert!(dot.contains("SO0"));
        let dot = alg1_graph(2).to_dot("alg1");
        assert!(dot.contains("C0"));
        assert!(dot.contains("O0"));
    }

    #[test]
    fn graph_is_acyclic_by_construction_and_ordered() {
        let g = step_graph(3, Variant::FusedCaSe);
        // Waves must be monotone over program order within each level chain.
        let waves = g.waves();
        assert_eq!(waves.len(), g.kernel_count());
    }
}
