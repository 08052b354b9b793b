//! Seeded inputs. Every payload byte and every message size comes from
//! the seed: a fixed byte arena filled once per run, and per-op specs
//! (size, offset into the arena) derived statelessly from `(seed, op)`
//! so a sender and a receiver regenerate the same sequence without
//! sharing state.

/// SplitMix64 step: a fast, well-mixed 64-bit generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of `(seed, stream, index)`: the `index`-th draw of
/// an independent stream.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    s = s.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut s)
}

/// Streams of [`draw`], one per kind of input.
pub const STREAM_SIZE: u64 = 1;
pub const STREAM_OFFSET: u64 = 2;
pub const STREAM_PROBE: u64 = 3;
pub const STREAM_ECHO_ACTIVE: u64 = 4;
pub const STREAM_ECHO_PASSIVE: u64 = 5;

/// The seeded byte arena every payload is a slice of.
pub struct Arena {
    bytes: Vec<u8>,
}

impl Arena {
    pub fn new(seed: u64, len: usize) -> Arena {
        let mut state = seed ^ 0xA5A5_A5A5_5A5A_5A5A;
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            bytes.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        bytes.truncate(len);
        Arena { bytes }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// `len` bytes at a seeded offset: the `index`-th payload of `stream`.
    pub fn slice(&self, seed: u64, stream: u64, index: u64, len: usize) -> &[u8] {
        let room = self.bytes.len().saturating_sub(len) as u64 + 1;
        let off = (draw(seed, stream ^ (STREAM_OFFSET << 8), index) % room) as usize;
        &self.bytes[off..off + len]
    }
}

/// Seeded size in `lo..=hi` for the `index`-th op.
pub fn size_in(seed: u64, index: u64, lo: usize, hi: usize) -> usize {
    lo + (draw(seed, STREAM_SIZE, index) % (hi - lo + 1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b) = (Arena::new(7, 100_000), Arena::new(7, 100_000));
        for i in 0..1000 {
            let n = size_in(7, i, 1, 4096);
            assert_eq!(n, size_in(7, i, 1, 4096));
            assert_eq!(a.slice(7, STREAM_SIZE, i, n), b.slice(7, STREAM_SIZE, i, n));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (Arena::new(1, 4096), Arena::new(2, 4096));
        assert_ne!(
            a.slice(1, STREAM_SIZE, 0, 64),
            b.slice(2, STREAM_SIZE, 0, 64)
        );
        let sizes = |s| (0..64).map(|i| size_in(s, i, 1, 4096)).collect::<Vec<_>>();
        assert_ne!(sizes(1), sizes(2));
    }

    #[test]
    fn sizes_and_slices_stay_in_range() {
        let arena = Arena::new(3, 5000);
        for i in 0..10_000 {
            let n = size_in(3, i, 1, 4096);
            assert!((1..=4096).contains(&n));
            assert_eq!(arena.slice(3, STREAM_PROBE, i, n).len(), n);
        }
        assert_eq!(arena.slice(3, STREAM_PROBE, 0, 5000).len(), 5000);
    }
}
