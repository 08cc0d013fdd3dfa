//! The one generator behind `--seed`: splitmix64. Data seeds, parameter
//! draws and step scripts all derive from it, so the same seed gives the
//! same inputs and the program under test only ever receives generated
//! CPL text and tables.

/// Sebastiano Vigna's splitmix64: a 64-bit state, one multiply-xorshift
/// finalizer per draw. Small, seedable, and good enough to pick
/// chromosomes.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`). The modulo bias is below 2^-50
    /// for the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent generator for a labelled purpose (a workload, a
    /// connection, a step): draws from one stream never shift another.
    pub fn fork(&self, label: u64) -> SplitMix {
        let mut child = SplitMix(self.0 ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93));
        child.next_u64();
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut r = SplitMix::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let draws = |mut r: SplitMix| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draws(SplitMix::new(1995)), draws(SplitMix::new(1995)));
        assert_ne!(draws(SplitMix::new(1995)), draws(SplitMix::new(1996)));
        let root = SplitMix::new(1995);
        assert_eq!(draws(root.fork(3)), draws(root.fork(3)));
        assert_ne!(draws(root.fork(3)), draws(root.fork(4)));
        assert!((0..100).all(|_| SplitMix::new(7).below(5) < 5));
    }
}
