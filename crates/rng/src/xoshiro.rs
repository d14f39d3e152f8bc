//! Xoshiro256++: the workspace's default generator.
//!
//! Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators", ACM TOMS 2021. 256 bits of state, period `2^256 − 1`,
//! excellent statistical quality, and a `jump()` function for cheap
//! non-overlapping substreams.

use crate::rng::{Rng64, SeedableRng64};
use crate::splitmix::SplitMix64;

/// A xoshiro256++ generator.
///
/// ```
/// use ants_rng::{Xoshiro256PlusPlus, Rng64, SeedableRng64};
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Construct from raw state words.
    ///
    /// # Panics
    ///
    /// Panics if all four words are zero (the all-zero state is a fixed
    /// point of the linear engine and must never be used).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro256++ state must be non-zero");
        Self { s }
    }

    /// Expand a [`SplitMix64`] stream into a full 256-bit state, as
    /// recommended by the xoshiro authors.
    pub fn from_splitmix(mix: &mut SplitMix64) -> Self {
        let mut s = [0u64; 4];
        loop {
            for w in &mut s {
                *w = mix.next_u64();
            }
            if s.iter().any(|&w| w != 0) {
                return Self { s };
            }
        }
    }

    /// The raw internal state (useful for tests and serialization).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The word the next [`next_u64`](Rng64::next_u64) call will return,
    /// without advancing the state. xoshiro256++ computes its output from
    /// the state *before* the update, so a peek costs one add, one rotate
    /// and one add.
    #[inline]
    pub(crate) fn peek_u64(&self) -> u64 {
        self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0])
    }

    /// Advance the state by `2^128` steps.
    ///
    /// Produces a substream guaranteed not to overlap the parent for the
    /// next `2^128` outputs; calling `jump` `k` times yields `k` parallel
    /// streams.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut acc = [0u64; 4];
        for &word in &JUMP {
            for bit in 0..64 {
                if (word >> bit) & 1 == 1 {
                    for (a, &s) in acc.iter_mut().zip(self.s.iter()) {
                        *a ^= s;
                    }
                }
                let _ = self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl SeedableRng64 for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Self::from_splitmix(&mut mix)
    }
}

impl Rng64 for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.peek_u64();
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the xoshiro256++ C implementation with state
    /// {1, 2, 3, 4}.
    #[test]
    fn peek_is_the_next_word_and_does_not_advance() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        for _ in 0..100 {
            let peeked = rng.peek_u64();
            assert_eq!(rng.peek_u64(), peeked, "a peek must not advance the state");
            assert_eq!(rng.next_u64(), peeked);
        }
    }

    #[test]
    fn reference_vector() {
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "output {i}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256PlusPlus::from_state([0; 4]);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(77);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(77);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn jump_produces_disjoint_prefix() {
        let mut base = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut jumped = base.clone();
        jumped.jump();
        // The first outputs of the jumped stream should not appear in a
        // short prefix of the base stream.
        let prefix: Vec<u64> = (0..128).map(|_| base.next_u64()).collect();
        for _ in 0..32 {
            let x = jumped.next_u64();
            assert!(!prefix.contains(&x));
        }
    }

    #[test]
    fn equidistribution_smoke() {
        // Count bits over many outputs; each bit position should be ~50%.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let n = 20_000u64;
        let mut counts = [0u32; 64];
        for _ in 0..n {
            let x = rng.next_u64();
            for (bit, count) in counts.iter_mut().enumerate() {
                *count += ((x >> bit) & 1) as u32;
            }
        }
        for (bit, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.02, "bit {bit} frequency {frac}");
        }
    }

    #[test]
    fn from_splitmix_matches_seed_from_u64() {
        let mut mix = SplitMix64::new(123);
        let a = Xoshiro256PlusPlus::from_splitmix(&mut mix);
        let b = Xoshiro256PlusPlus::seed_from_u64(123);
        assert_eq!(a.state(), b.state());
    }
}
