//! MD5 (RFC 1321).
//!
//! MD5 is cryptographically broken for collision resistance, yet it is the
//! digest Squid splits to obtain its four cache-digest indexes and one of the
//! functions pyBloom offers. The paper's Squid attack does not even need to
//! break MD5 — truncating its output modulo a small filter size is enough.

use crate::traits::CryptoHash;

/// Streaming MD5 context.
///
/// # Examples
///
/// ```
/// use evilbloom_hashes::Md5Context;
///
/// let mut ctx = Md5Context::new();
/// ctx.update(b"ab");
/// ctx.update(b"c");
/// assert_eq!(
///     evilbloom_hashes::hex::encode(&ctx.finalize()),
///     "900150983cd24fb0d6963f7d28e17f72"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Md5Context {
    state: [u32; 4],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Md5Context {
    fn default() -> Self {
        Self::new()
    }
}

const S: [[u32; 4]; 4] = [[7, 12, 17, 22], [5, 9, 14, 20], [4, 11, 16, 23], [6, 10, 15, 21]];

// Integer parts of abs(sin(i+1)) * 2^32 for i in 0..64, per RFC 1321.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

impl Md5Context {
    /// Creates a fresh context with the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5Context {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
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

    /// Finalizes the hash and returns the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(crate::md_padding(self.buffer_len, 64, 8));
        // Length padding is appended manually to avoid counting it.
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_le_bytes());
        self.process_block(&block);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, word) in m.iter_mut().enumerate() {
            *word = u32::from_le_bytes(block[i * 4..(i + 1) * 4].try_into().expect("4-byte word"));
        }

        let [mut a, mut b, mut c, mut d] = self.state;

        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let rotated = a
                .wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i / 16][i % 4]);
            b = b.wrapping_add(rotated);
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// Convenience one-shot MD5.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut ctx = Md5Context::new();
    ctx.update(data);
    ctx.finalize()
}

/// MD5 as a [`CryptoHash`] implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Md5;

impl CryptoHash for Md5 {
    fn output_len(&self) -> usize {
        16
    }

    fn block_len(&self) -> usize {
        64
    }

    fn digest(&self, data: &[u8]) -> Vec<u8> {
        md5(data).to_vec()
    }

    fn name(&self) -> &'static str {
        "MD5"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 1321 Appendix A.5 test suite.
    #[test]
    fn rfc1321_test_suite() {
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex::encode(&md5(input.as_bytes())), want, "md5({input:?})");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut ctx = Md5Context::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), md5(&data), "split at {split}");
        }
    }

    #[test]
    fn long_input_spanning_many_blocks() {
        // One million 'a' characters: classic extended test vector.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex::encode(&md5(&data)), "7707d6ae4e027c70eea2a935c2296f21");
    }

    #[test]
    fn crypto_hash_impl() {
        assert_eq!(Md5.output_len(), 16);
        assert_eq!(Md5.block_len(), 64);
        assert_eq!(Md5.digest(b"abc"), md5(b"abc").to_vec());
        assert_eq!(Md5.output_bits(), 128);
    }

    #[test]
    fn inputs_near_padding_boundary() {
        // Lengths 55, 56, 57, 63, 64, 65 exercise the padding logic.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![b'x'; len];
            let mut ctx = Md5Context::new();
            for b in &data {
                ctx.update(core::slice::from_ref(b));
            }
            assert_eq!(ctx.finalize(), md5(&data), "length {len}");
        }
    }
}
