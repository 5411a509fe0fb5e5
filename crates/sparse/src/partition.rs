//! Block partitioning for intra-kernel parallelism.
//!
//! A kernel launch maps one sparse-grid block to one "CUDA block"; on the
//! CPU substrate those blocks are claimed chunk-wise by a pool of worker
//! threads ([`chunk_granularity`] picks the claim size).

/// Chunk size for work-stealing claims over `n` blocks by `threads`
/// threads: roughly four claims per thread bounds the claim overhead while
/// leaving enough chunks for the tail to balance. Always ≥ 1; with one
/// thread the whole range is a single chunk.
#[inline]
pub fn chunk_granularity(n: usize, threads: usize) -> usize {
    if threads <= 1 {
        return n.max(1);
    }
    (n / (threads * 4)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_granularity_bounds() {
        assert_eq!(chunk_granularity(100, 1), 100);
        assert_eq!(chunk_granularity(0, 1), 1);
        assert_eq!(chunk_granularity(100, 4), 6);
        assert_eq!(chunk_granularity(3, 8), 1);
        // Enough chunks for every thread to claim at least one.
        assert!(100usize.div_ceil(chunk_granularity(100, 4)) >= 4);
    }
}
