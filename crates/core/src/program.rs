//! The unified step program: the single source of truth for *which* kernels
//! one coarse time step launches, in which (program) order, and what fields
//! each declares to read, write and atomically update.
//!
//! `Engine::step` executes this program (eagerly or wave-scheduled from the
//! dependency graph), and [`crate::graphs::step_graph`] renders the same
//! program as a [`TaskGraph`](lbm_runtime::TaskGraph) — so the Fig.-2
//! kernel/sync counts come from the graph that is actually executed,
//! exactly the paper's §V-C discipline of extracting the schedule from
//! declared data accesses.

use lbm_runtime::{FieldId, KernelNode};

use crate::variant::Variant;

/// Interface topology of one level, as seen by the step generator. All
/// flags derive from the assembled grid (`Engine` computes them from link
/// tables); [`generic_topology`] gives the fully-nested default used by the
/// standalone Fig.-2 graphs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelTopo {
    /// The level carries ghost accumulator cells (it is refined somewhere),
    /// so Coalescence has sources and Reset has work.
    pub ghosts: bool,
    /// The next-coarser level carries ghost cells, so this level's crossing
    /// populations must be accumulated upward.
    pub coarse_ghosts: bool,
    /// The level has explosion interface cells (reads the coarser grid).
    pub explodes: bool,
    /// The level has coalescence interface cells (reads its accumulators).
    pub coalesces: bool,
}

/// The fully-nested refinement topology (every level refined in the
/// interior of the coarser one), used by the generic Fig.-2 graphs.
pub fn generic_topology(levels: u32) -> Vec<LevelTopo> {
    (0..levels)
        .map(|l| LevelTopo {
            ghosts: l + 1 < levels,
            coarse_ghosts: l > 0,
            explodes: l > 0,
            coalesces: l + 1 < levels,
        })
        .collect()
}

/// What one launch of the step program does. Flags mirror the
/// [`FusionConfig`](crate::variant::FusionConfig) switches resolved against
/// the level topology at generation time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Coarse-initiated gather Accumulate (Fig. 4b): reads this level's
    /// pre-streaming populations into the coarser level's accumulators.
    AccGather,
    /// Streaming, optionally resolving Explosion/Coalescence inline and
    /// scattering the Accumulate contributions atomically.
    Stream {
        /// Explosion resolved inside the streaming kernel (Fig. 4d).
        explosion: bool,
        /// Coalescence resolved inside the streaming kernel (Fig. 4e).
        coalesce: bool,
        /// Atomic Accumulate scatter fused in (Fig. 4c onward).
        accumulate: bool,
    },
    /// Standalone Explosion kernel.
    Explosion,
    /// Standalone Coalescence kernel.
    Coalesce,
    /// Collision.
    Collide,
    /// The single fused Collision+Accumulate+Streaming+Explosion(+Coalesce)
    /// kernel (Fig. 4f).
    Fused {
        /// Atomic Accumulate scatter fused in.
        accumulate: bool,
    },
    /// Ordered merge of the staged Accumulate slab into the coarse
    /// accumulators (deterministic parallel path; see DESIGN.md §10). Runs
    /// on the fine level, one launch item per destination coarse block.
    AccMerge,
    /// Accumulator reset after Coalescence consumed the charge.
    Reset,
}

/// One launch record of the step program.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StepOp {
    /// What to launch.
    pub kind: OpKind,
    /// Grid level the kernel works on.
    pub level: usize,
    /// Source half (0 = `a`, 1 = `b`) of this level's double buffer at the
    /// time the op runs; the destination is `1 - src_half`.
    pub src_half: u8,
    /// Source half of the next-coarser level's double buffer (0 when
    /// `level == 0`).
    pub coarse_half: u8,
}

/// Generates the launch sequence of one coarse step in program order,
/// mirroring the recursion of Algorithm 1 restructured (§IV): the finer
/// level's two substeps run before the coarse streaming.
///
/// `start_halves[l]` is the source half of level `l`'s double buffer when
/// the step begins (`DoubleBuffer::parity`). After the program runs, level
/// 0 has net-swapped once and deeper levels an even number of times.
/// When `staged` is set, every atomic-scatter Accumulate is split into a
/// plain-store scatter plus an ordered [`OpKind::AccMerge`] — the
/// deterministic parallel path (DESIGN.md §10). The canonical Fig.-2 graphs
/// pass `false`, keeping the paper's pinned kernel counts.
pub fn step_ops(
    topo: &[LevelTopo],
    variant: Variant,
    start_halves: &[u8],
    staged: bool,
) -> Vec<StepOp> {
    assert!(!topo.is_empty());
    assert_eq!(topo.len(), start_halves.len());
    let mut flip: Vec<u8> = start_halves.to_vec();
    let mut ops = Vec::new();
    rec(&mut ops, topo, variant, &mut flip, 0, staged);
    ops
}

fn rec(
    ops: &mut Vec<StepOp>,
    topo: &[LevelTopo],
    variant: Variant,
    flip: &mut [u8],
    l: usize,
    staged: bool,
) {
    if l + 1 < topo.len() {
        // Δt_{L+1} = Δt_L / 2: two fine substeps before this level streams.
        rec(ops, topo, variant, flip, l + 1, staged);
        rec(ops, topo, variant, flip, l + 1, staged);
    }
    let cfg = variant.config();
    let t = topo[l];
    let finest = l + 1 == topo.len();
    let fuse_cs = cfg.all_collide_stream || (cfg.finest_collide_stream && finest);
    let mk = |kind| StepOp {
        kind,
        level: l,
        src_half: flip[l],
        coarse_half: if l > 0 { flip[l - 1] } else { 0 },
    };

    if fuse_cs {
        ops.push(mk(OpKind::Fused {
            accumulate: t.coarse_ghosts,
        }));
        if staged && t.coarse_ghosts {
            ops.push(mk(OpKind::AccMerge));
        }
    } else {
        if !cfg.collide_accumulate && t.coarse_ghosts {
            ops.push(mk(OpKind::AccGather));
        }
        let scatter = cfg.collide_accumulate && t.coarse_ghosts;
        ops.push(mk(OpKind::Stream {
            explosion: cfg.stream_explosion,
            coalesce: cfg.stream_coalesce,
            accumulate: scatter,
        }));
        if staged && scatter {
            ops.push(mk(OpKind::AccMerge));
        }
        if !cfg.stream_explosion && t.explodes {
            ops.push(mk(OpKind::Explosion));
        }
        if !cfg.stream_coalesce && t.coalesces {
            ops.push(mk(OpKind::Coalesce));
        }
        ops.push(mk(OpKind::Collide));
    }
    if t.ghosts {
        ops.push(mk(OpKind::Reset));
    }
    flip[l] ^= 1;
}

/// Field-id scheme shared by the program and the executed graph:
/// `buf(l, h)` is half `h` of level `l`'s double buffer.
pub fn buf_id(level: usize, half: u8) -> FieldId {
    FieldId(2 * level + half as usize)
}

/// Field id of level `l`'s ghost accumulators (`n_levels` levels total).
pub fn acc_id(level: usize, n_levels: usize) -> FieldId {
    FieldId(2 * n_levels + level)
}

/// Field id of level `l`'s private Accumulate staging slab (deterministic
/// parallel path; disjoint from both buffer and accumulator ids).
pub fn stage_id(level: usize, n_levels: usize) -> FieldId {
    FieldId(3 * n_levels + level)
}

/// Renders one [`StepOp`] as a [`KernelNode`] with its declared accesses —
/// the labels match the paper's Fig.-2/Fig.-4 nomenclature (`S`/`SE`/`SO`/
/// `SEO`, `E`, `O`, `C`, `A`, `CASE`, `R`).
///
/// `staged` must match the flag given to [`step_ops`]: it reroutes the
/// Accumulate scatter from an atomic update of the coarse accumulators to a
/// plain write of the level's staging slab (consumed by the `M` merge node).
pub fn kernel_node(op: &StepOp, topo: &[LevelTopo], staged: bool) -> KernelNode {
    let n = topo.len();
    let l = op.level;
    let t = topo[l];
    let src = buf_id(l, op.src_half);
    let dst = buf_id(l, 1 - op.src_half);
    let coarse_src = || buf_id(l - 1, op.coarse_half);
    let coarse_acc = || acc_id(l - 1, n);

    let (label, reads, writes, atomics) = match op.kind {
        OpKind::AccGather => (
            format!("A{l}"),
            vec![src],
            vec![coarse_acc()],
            vec![],
        ),
        OpKind::Stream {
            explosion,
            coalesce,
            accumulate,
        } => {
            let mut label = String::from("S");
            let mut reads = vec![src];
            if explosion && t.explodes {
                label.push('E');
                reads.push(coarse_src());
            }
            if coalesce && t.coalesces {
                label.push('O');
                reads.push(acc_id(l, n));
            }
            label.push_str(&l.to_string());
            let mut writes = vec![dst];
            let atomics = match (accumulate, staged) {
                (true, false) => vec![coarse_acc()],
                (true, true) => {
                    writes.push(stage_id(l, n));
                    vec![]
                }
                (false, _) => vec![],
            };
            (label, reads, writes, atomics)
        }
        OpKind::Explosion => (format!("E{l}"), vec![coarse_src()], vec![dst], vec![]),
        OpKind::Coalesce => (
            format!("O{l}"),
            vec![acc_id(l, n)],
            vec![dst],
            vec![],
        ),
        OpKind::Collide => (format!("C{l}"), vec![dst], vec![dst], vec![]),
        OpKind::Fused { accumulate } => {
            let mut reads = vec![src];
            if t.explodes {
                reads.push(coarse_src());
            }
            if t.coalesces {
                reads.push(acc_id(l, n));
            }
            let mut writes = vec![dst];
            let atomics = match (accumulate, staged) {
                (true, false) => vec![coarse_acc()],
                (true, true) => {
                    writes.push(stage_id(l, n));
                    vec![]
                }
                (false, _) => vec![],
            };
            (format!("CASE{l}"), reads, writes, atomics)
        }
        OpKind::AccMerge => (
            format!("M{l}"),
            vec![stage_id(l, n), coarse_acc()],
            vec![coarse_acc()],
            vec![],
        ),
        OpKind::Reset => (format!("R{l}"), vec![], vec![acc_id(l, n)], vec![]),
    };
    KernelNode {
        name: label.clone(),
        label,
        level: Some(l as u32),
        reads,
        writes,
        atomics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parities_net_out() {
        let topo = generic_topology(3);
        let ops = step_ops(&topo, Variant::FusedAll, &[0, 0, 0], false);
        // Level 2 runs 4 substeps, level 1 runs 2, level 0 runs 1:
        // src halves alternate within the step starting from the given
        // parity.
        let finest: Vec<u8> = ops
            .iter()
            .filter(|o| o.level == 2 && matches!(o.kind, OpKind::Fused { .. }))
            .map(|o| o.src_half)
            .collect();
        assert_eq!(finest, vec![0, 1, 0, 1]);
    }

    #[test]
    fn coarse_half_tracks_enclosing_level() {
        let topo = generic_topology(2);
        let ops = step_ops(&topo, Variant::ModifiedBaseline, &[1, 0], false);
        // Level 0 never swaps mid-step: every fine op sees coarse half 1.
        assert!(ops
            .iter()
            .filter(|o| o.level == 1)
            .all(|o| o.coarse_half == 1));
    }

    #[test]
    fn baseline_emits_gather_accumulate_before_stream() {
        let topo = generic_topology(2);
        let ops = step_ops(&topo, Variant::ModifiedBaseline, &[0, 0], false);
        let fine: Vec<OpKind> = ops
            .iter()
            .filter(|o| o.level == 1)
            .map(|o| o.kind)
            .collect();
        assert_eq!(
            fine,
            vec![
                OpKind::AccGather,
                OpKind::Stream {
                    explosion: false,
                    coalesce: false,
                    accumulate: false
                },
                OpKind::Explosion,
                OpKind::Collide,
                OpKind::AccGather,
                OpKind::Stream {
                    explosion: false,
                    coalesce: false,
                    accumulate: false
                },
                OpKind::Explosion,
                OpKind::Collide,
            ]
        );
    }

    #[test]
    fn labels_resolve_against_topology() {
        let topo = generic_topology(2);
        let ops = step_ops(&topo, Variant::FusedAll, &[0, 0], false);
        let labels: Vec<String> = ops
            .iter()
            .map(|o| kernel_node(o, &topo, false).label)
            .collect();
        // Level 0 has no explosion interface, so its inline stream is S+O.
        assert_eq!(labels, vec!["CASE1", "CASE1", "SO0", "C0", "R0"]);
    }

    #[test]
    fn staged_program_splits_accumulate_into_scatter_plus_merge() {
        let topo = generic_topology(2);
        let serial = step_ops(&topo, Variant::FusedAll, &[0, 0], false);
        let staged = step_ops(&topo, Variant::FusedAll, &[0, 0], true);
        // One AccMerge per accumulate-carrying fused op; nothing else moves.
        let merges: Vec<&StepOp> = staged
            .iter()
            .filter(|o| o.kind == OpKind::AccMerge)
            .collect();
        assert_eq!(merges.len(), 2);
        assert!(merges.iter().all(|o| o.level == 1));
        let without: Vec<StepOp> = staged
            .iter()
            .filter(|o| o.kind != OpKind::AccMerge)
            .copied()
            .collect();
        assert_eq!(without, serial);
        // Staged scatter writes the slab instead of atomically updating the
        // coarse accumulators; the merge node carries that dependency.
        let fused = staged.iter().find(|o| o.level == 1).unwrap();
        let node = kernel_node(fused, &topo, true);
        assert!(node.atomics.is_empty());
        assert!(node.writes.contains(&stage_id(1, 2)));
        let merge = kernel_node(merges[0], &topo, true);
        assert_eq!(merge.label, "M1");
        assert!(merge.reads.contains(&stage_id(1, 2)));
        assert!(merge.reads.contains(&acc_id(0, 2)));
        assert_eq!(merge.writes, vec![acc_id(0, 2)]);
    }
}
