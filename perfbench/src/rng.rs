//! The benchmark's only source of randomness: a xorshift64* generator seeded
//! from `--seed`, so the same seed gives the same inputs and op order.

/// A xorshift64* generator (Vigna 2016); not cryptographic, never empty.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent consumers (the
    /// input generator, each client thread) that share one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 scrambles the pair so neighbouring seeds diverge at once
        // and the state is never zero.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.fill(&mut buf);
        buf
    }
}

/// FNV-1a over 8-byte words: the oracle's body checksum.  Cheap enough to run
/// over a 4 MiB copy on every op without becoming the thing measured.
pub fn checksum(data: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &byte in chunks.remainder() {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draws = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        let (a, b, c, d) = (draws(7, 0), draws(7, 0), draws(8, 0), draws(7, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let mut data = Rng::new(1, 0).bytes(1003);
        let base = checksum(&data);
        data[1002] ^= 1;
        assert_ne!(checksum(&data), base);
        data[1002] ^= 1;
        data[0] ^= 1;
        assert_ne!(checksum(&data), base);
        assert_ne!(checksum(&[0u8; 8]), checksum(&[0u8; 16]));
    }
}
