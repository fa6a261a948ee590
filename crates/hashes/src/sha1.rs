//! SHA-1 (FIPS 180-4).
//!
//! SHA-1 is no longer collision resistant but remains common in deployed
//! Bloom-filter code (pyBloom uses it for mid-sized filters, and HMAC-SHA-1
//! appears in the paper's Table 2 countermeasure benchmark).

use crate::traits::CryptoHash;

/// Streaming SHA-1 context.
///
/// # Examples
///
/// ```
/// use evilbloom_hashes::Sha1Context;
///
/// let mut ctx = Sha1Context::new();
/// ctx.update(b"abc");
/// assert_eq!(
///     evilbloom_hashes::hex::encode(&ctx.finalize()),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha1Context {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1Context {
    /// Creates a fresh context with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha1Context {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476, 0xc3d2_e1f0],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the context.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
            if input.is_empty() {
                // Nothing left beyond what went into the partial buffer.
                return;
            }
        }

        let mut chunks = input.chunks_exact(64);
        for chunk in &mut chunks {
            let block: [u8; 64] = chunk.try_into().expect("64-byte block");
            self.process_block(&block);
        }
        let rest = chunks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finalizes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(crate::md_padding(self.buffer_len, 64, 8));
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.process_block(&block);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().expect("4-byte word"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;

        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5a82_7999),
                1 => (b ^ c ^ d, 0x6ed9_eba1),
                2 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let tmp =
                a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// Convenience one-shot SHA-1.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut ctx = Sha1Context::new();
    ctx.update(data);
    ctx.finalize()
}

/// SHA-1 as a [`CryptoHash`] implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sha1;

impl CryptoHash for Sha1 {
    fn output_len(&self) -> usize {
        20
    }

    fn block_len(&self) -> usize {
        64
    }

    fn digest(&self, data: &[u8]) -> Vec<u8> {
        sha1(data).to_vec()
    }

    fn name(&self) -> &'static str {
        "SHA-1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // FIPS 180-4 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        let cases = [
            ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                "The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex::encode(&sha1(input.as_bytes())), want, "sha1({input:?})");
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex::encode(&sha1(&data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u8..200).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 200] {
            let mut ctx = Sha1Context::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), sha1(&data), "split at {split}");
        }
    }

    #[test]
    fn crypto_hash_impl() {
        assert_eq!(Sha1.output_len(), 20);
        assert_eq!(Sha1.block_len(), 64);
        assert_eq!(Sha1.output_bits(), 160);
        assert_eq!(Sha1.digest(b"abc"), sha1(b"abc").to_vec());
    }
}
