//! Precomputed per-(cell, direction) exception links.
//!
//! Streaming is a pull: `f_i(x, t+Δt) = f*_i(x − e_i, t)`. Where the
//! source is an active same-level cell, the streaming gather's copy-run
//! replay reads it. Every other case — domain boundaries, the
//! coarse-to-fine **Explosion** (paper Eq. 10), the fine-to-coarse
//! **Coalescence** read (paper Eq. 11), periodic wrapping — is resolved at
//! grid-construction time into an explicit link, and the kernels walk a
//! block's link list to overwrite those `(cell, direction)` pairs. Kernels
//! never consult geometry, ownership functions, hash maps or a per-cell
//! lookup: exactly the precomputed-index philosophy of the paper's data
//! structure (§V-B).

use lbm_sparse::CellRef;

/// How one exceptional `(cell, direction)` pull resolves.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum LinkKind<T> {
    /// Halfway bounce-back: read own opposite post-collision population.
    BounceBack {
        /// Opposite direction index `ī`.
        opp: u8,
    },
    /// Moving-wall bounce-back: bounce-back plus the precomputed momentum
    /// term `2 w_i ρ₀ (e_i·u_w)/c_s²`.
    MovingWall {
        /// Opposite direction index `ī`.
        opp: u8,
        /// Precomputed additive term.
        term: T,
    },
    /// Outflow: the population takes its lattice weight `w_i`.
    Outflow {
        /// Precomputed `w_i`.
        weight: T,
    },
    /// Periodic wrap: pull from the same-level cell on the far side.
    Periodic {
        /// Wrapped same-level source cell.
        src: CellRef,
    },
    /// Explosion (coarse→fine, Eq. 10): pull the parent coarse cell's
    /// post-collision population homogeneously.
    Explosion {
        /// Source cell in the **next-coarser** level's grid.
        src: CellRef,
    },
    /// Coalescence (fine→coarse, Eq. 11): pull the ghost accumulator,
    /// divided by the accumulated contribution count.
    Coalesce {
        /// Ghost cell in the **same** level's grid whose accumulator holds
        /// the fine contributions.
        src: CellRef,
        /// Precomputed `1 / contributions`: the number of fine populations
        /// that cross the interface along this direction over one coarse
        /// step (crossing children × 2 substeps; 8 on flat faces).
        inv_count: T,
    },
}

/// One exceptional direction of one cell.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Link<T> {
    /// Direction index `i` being pulled.
    pub dir: u8,
    /// Resolution of the pull.
    pub kind: LinkKind<T>,
}

/// All exceptional cells of one block.
#[derive(Clone, Debug, Default)]
pub struct BlockLinks<T> {
    /// Exceptional cells in ascending cell order, each with its links
    /// sorted by direction.
    pub cells: Vec<CellLinkSet<T>>,
}

/// The links of a single exceptional cell.
#[derive(Clone, Debug, Default)]
pub struct CellLinkSet<T> {
    /// Intra-block cell index.
    pub cell: u32,
    /// Links sorted by `dir` (ascending), at most `Q − 1` entries.
    pub links: Vec<Link<T>>,
}

impl<T: Copy> BlockLinks<T> {
    /// Registers `links` (must be sorted by dir) for `cell`. Cells must
    /// arrive in ascending order, so each is registered at most once.
    pub fn insert(&mut self, cell: u32, links: Vec<Link<T>>) {
        debug_assert!(links.windows(2).all(|w| w[0].dir < w[1].dir));
        debug_assert!(
            self.cells.last().is_none_or(|c| c.cell < cell),
            "cell registered twice or out of order"
        );
        if links.is_empty() {
            return;
        }
        self.cells.push(CellLinkSet { cell, links });
    }

    /// Total number of links stored in the block.
    pub fn link_count(&self) -> usize {
        self.cells.iter().map(|c| c.links.len()).sum()
    }
}

/// Encodes a [`CellRef`] into a single `u64` for compact side tables.
#[inline(always)]
pub fn encode_ref(r: CellRef) -> u64 {
    ((r.block as u64) << 32) | r.cell as u64
}

/// Inverse of [`encode_ref`].
#[inline(always)]
pub fn decode_ref(v: u64) -> CellRef {
    CellRef {
        block: (v >> 32) as u32,
        cell: v as u32,
    }
}

/// Sentinel for "no target" in encoded-ref tables.
pub const NO_TARGET: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut b = BlockLinks::<f64>::default();
        b.insert(4, vec![]);
        b.insert(
            5,
            vec![
                Link {
                    dir: 1,
                    kind: LinkKind::BounceBack { opp: 2 },
                },
                Link {
                    dir: 7,
                    kind: LinkKind::Outflow { weight: 1.0 / 36.0 },
                },
            ],
        );
        assert_eq!(b.cells.len(), 1);
        let set = &b.cells[0];
        assert_eq!(set.cell, 5);
        assert_eq!(set.links.len(), 2);
        assert_eq!(b.link_count(), 2);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut b = BlockLinks::<f64>::default();
        b.insert(3, vec![]);
        assert!(b.cells.is_empty());
        assert_eq!(b.link_count(), 0);
    }

    #[test]
    fn ref_encoding_roundtrip() {
        let r = CellRef {
            block: 0xDEAD_BEEF,
            cell: 0x1234_5678,
        };
        assert_eq!(decode_ref(encode_ref(r)), r);
        assert_ne!(encode_ref(r), NO_TARGET);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn debug_rejects_double_insert() {
        // debug_assert fires in dev test builds only.
        let mut b = BlockLinks::<f64>::default();
        let l = vec![Link {
            dir: 1,
            kind: LinkKind::BounceBack { opp: 2 },
        }];
        b.insert(1, l.clone());
        b.insert(1, l);
    }
}
