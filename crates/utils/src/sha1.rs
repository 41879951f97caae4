//! SHA-1, implemented from scratch for the `sha1sum` utility (the paper's
//! Figure 9 benchmark hashes `/usr/bin/node` with it).

/// An in-progress SHA-1: feed the message to [`Sha1::update`] in pieces of
/// any size, then take the digest with [`Sha1::finish`].  Holds the five
/// chaining words, one partial block and the length — never the message.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    block: [u8; 64],
    filled: usize,
    len: u64,
}

impl Default for Sha1 {
    fn default() -> Sha1 {
        Sha1::new()
    }
}

impl Sha1 {
    /// The state before any input.
    pub fn new() -> Sha1 {
        Sha1 {
            h: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    /// Absorbs the next piece of the message.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (64 - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            compress(&mut self.h, &self.block);
            self.filled = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.h, block.try_into().expect("chunks_exact(64) yields 64 bytes"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Pads the message and returns its digest.
    pub fn finish(mut self) -> [u8; 20] {
        // Message padding: 0x80, zeros, then the 64-bit bit length.
        let bit_len = self.len.wrapping_mul(8);
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        let zeros = (119 - self.filled) % 64;
        padding[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..9 + zeros]);
        let mut out = [0u8; 20];
        for (i, value) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&value.to_be_bytes());
        }
        out
    }
}

/// Folds one 64-byte block into the chaining words.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &word) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let temp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(word);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = temp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Computes the SHA-1 digest of `data` in one shot.
pub fn sha1_digest(data: &[u8]) -> [u8; 20] {
    let mut state = Sha1::new();
    state.update(data);
    state.finish()
}

/// Renders a digest as a lowercase hex string.
pub fn hex(digest: &[u8; 20]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Computes the SHA-1 digest of `data` as a lowercase hex string.
pub fn sha1_hex(data: &[u8]) -> String {
    hex(&sha1_digest(data))
}

/// The one-shot implementation [`Sha1`] replaced (pad a copy of the whole
/// message, then compress it), kept unchanged as the oracle.
#[cfg(test)]
pub(crate) fn reference_digest(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

    // Message padding: 0x80, zeros, then the 64-bit bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 80];
    for block in message.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &word) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(word);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }

    let mut out = [0u8; 20];
    for (i, value) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&value.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_test_vectors() {
        // FIPS 180-1 / RFC 3174 test vectors.
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            sha1_hex(&vec![b'a'; 1_000_000]),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding boundaries.
        assert_eq!(sha1_hex(&[0u8; 55]).len(), 40);
        assert_ne!(sha1_hex(&[0u8; 55]), sha1_hex(&[0u8; 56]));
        assert_ne!(sha1_hex(&[0u8; 63]), sha1_hex(&[0u8; 64]));
        assert_ne!(sha1_hex(&[0u8; 64]), sha1_hex(&[0u8; 65]));
    }

    #[test]
    fn digest_and_hex_agree() {
        let digest = sha1_digest(b"browsix");
        let hex = sha1_hex(b"browsix");
        assert_eq!(hex.len(), 40);
        assert!(hex.starts_with(&format!("{:02x}", digest[0])));
    }

    /// The four RFC 3174 test messages and their digests.
    fn rfc3174_vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (b"abc".to_vec(), "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (vec![b'a'; 1_000_000], "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
            (b"01234567".repeat(80), "dea356a2cddd90c7a7ecedc5ebb563934f460452"),
        ]
    }

    #[test]
    fn incremental_matches_the_rfc3174_vectors_at_every_piece_size() {
        for (message, expected) in rfc3174_vectors() {
            assert_eq!(hex(&reference_digest(&message)), expected);
            for piece in [1, 3, 55, 56, 63, 64, 65, 127, 4096, 64 * 1024] {
                let mut state = Sha1::new();
                for part in message.chunks(piece) {
                    state.update(part);
                }
                assert_eq!(hex(&state.finish()), expected, "piece size {piece}");
            }
        }
    }

    proptest! {
        #[test]
        fn incremental_equals_one_shot_on_random_splits(
            data in prop::collection::vec(any::<u8>(), 0..2048),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut state = Sha1::new();
            let mut from = 0;
            for cut in cuts {
                state.update(&data[from..cut]);
                from = cut;
            }
            state.update(&data[from..]);
            prop_assert_eq!(state.finish(), reference_digest(&data));
        }
    }
}
