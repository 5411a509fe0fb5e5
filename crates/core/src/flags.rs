//! Per-cell classification flags.
//!
//! Every active cell of a level's sparse grid is either a **real** cell
//! (collides and streams) or a **ghost** cell (paper §IV-A: the single
//! coarse-side ghost layer inside the next-finer region, used only as an
//! accumulation target for the fine level's Accumulate step). Real cells
//! additionally record whether any of their streaming directions needs an
//! exception link (boundary condition, explosion, coalescence) and whether
//! their parent coarse cell is a ghost cell (i.e. they participate in the
//! Accumulate step).

/// Cell classification bits (stored as one `u8` per cell slot).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CellFlags(pub u8);

impl CellFlags {
    /// Cell is active and evolves (collide + stream).
    pub const REAL: u8 = 1 << 0;
    /// Cell is a coarse-side ghost accumulator (no collide, no stream).
    pub const GHOST: u8 = 1 << 1;
    /// At least one direction resolves through an exception link.
    pub const EXCEPTIONAL: u8 = 1 << 2;
    /// Cell's parent (next-coarser) cell is a ghost: post-collision values
    /// are accumulated into it (the Accumulate step).
    pub const ACCUMULATES: u8 = 1 << 3;

    /// True if `bit` is set.
    #[inline(always)]
    pub fn has(self, bit: u8) -> bool {
        self.0 & bit != 0
    }

    /// True for real (evolving) cells.
    #[inline(always)]
    pub fn is_real(self) -> bool {
        self.has(Self::REAL)
    }

    /// True for ghost accumulator cells.
    #[inline(always)]
    pub fn is_ghost(self) -> bool {
        self.has(Self::GHOST)
    }

    /// True when the cell scatters into its parent ghost cell.
    #[inline(always)]
    pub fn accumulates(self) -> bool {
        self.has(Self::ACCUMULATES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_flag_bits_are_distinct() {
        let bits = [
            CellFlags::REAL,
            CellFlags::GHOST,
            CellFlags::EXCEPTIONAL,
            CellFlags::ACCUMULATES,
        ];
        for (i, a) in bits.iter().enumerate() {
            for (j, b) in bits.iter().enumerate() {
                if i != j {
                    assert_eq!(a & b, 0);
                }
            }
        }
    }

    #[test]
    fn cell_flag_queries() {
        let f = CellFlags(CellFlags::REAL | CellFlags::ACCUMULATES);
        assert!(f.is_real());
        assert!(!f.is_ghost());
        assert!(!f.has(CellFlags::EXCEPTIONAL));
        assert!(f.accumulates());
    }
}
