//! The SHA-2 family (FIPS 180-4): SHA-256, SHA-384 and SHA-512.
//!
//! These are the NIST-recommended functions the paper suggests (Section 8.2)
//! when combined with **digest recycling**: one SHA-512 call yields 512 bits,
//! enough to derive every Bloom-filter index for any reasonable `m` and `k`
//! without further hashing.

use crate::traits::CryptoHash;

const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// Streaming SHA-256 core (32-bit words, 64-byte blocks).
#[derive(Debug, Clone)]
pub struct Sha256Context {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha256Context {
    /// Creates a SHA-256 context.
    pub fn new() -> Self {
        Sha256Context {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
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
            let take = (64 - self.buffer_len).min(input.len());
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

    /// Finalizes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(crate::md_padding(self.buffer_len, 64, 8));
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.process_block(&block);

        let mut out = Vec::with_capacity(32);
        for word in self.state {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().expect("4-byte word"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 =
                h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K256[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        let words = [a, b, c, d, e, f, g, h];
        for (s, w) in self.state.iter_mut().zip(words) {
            *s = s.wrapping_add(w);
        }
    }
}

impl Default for Sha256Context {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming SHA-512 / SHA-384 core (64-bit words, 128-byte blocks).
#[derive(Debug, Clone)]
pub struct Sha512Context {
    state: [u64; 8],
    buffer: [u8; 128],
    buffer_len: usize,
    total_len: u128,
    output_len: usize,
}

impl Sha512Context {
    /// Creates a SHA-512 context.
    pub fn new() -> Self {
        Self::with_state(
            [
                0x6a09e667f3bcc908,
                0xbb67ae8584caa73b,
                0x3c6ef372fe94f82b,
                0xa54ff53a5f1d36f1,
                0x510e527fade682d1,
                0x9b05688c2b3e6c1f,
                0x1f83d9abfb41bd6b,
                0x5be0cd19137e2179,
            ],
            64,
        )
    }

    /// Creates a SHA-384 context (truncated SHA-512 with distinct IV).
    pub fn new_sha384() -> Self {
        Self::with_state(
            [
                0xcbbb9d5dc1059ed8,
                0x629a292a367cd507,
                0x9159015a3070dd17,
                0x152fecd8f70e5939,
                0x67332667ffc00b31,
                0x8eb44a8768581511,
                0xdb0c2e0d64f98fa7,
                0x47b5481dbefa4fa4,
            ],
            48,
        )
    }

    fn with_state(state: [u64; 8], output_len: usize) -> Self {
        Sha512Context { state, buffer: [0u8; 128], buffer_len: 0, total_len: 0, output_len }
    }

    /// Absorbs `data` into the context.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (128 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 128 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
            if input.is_empty() {
                // Nothing left beyond what went into the partial buffer.
                return;
            }
        }

        let mut chunks = input.chunks_exact(128);
        for chunk in &mut chunks {
            let block: [u8; 128] = chunk.try_into().expect("128-byte block");
            self.process_block(&block);
        }
        let rest = chunks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finalizes the hash and returns the digest (48 bytes for SHA-384,
    /// 64 bytes for SHA-512).
    pub fn finalize(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(crate::md_padding(self.buffer_len, 128, 16));
        let mut block = self.buffer;
        block[112..128].copy_from_slice(&bit_len.to_be_bytes());
        self.process_block(&block);

        let mut out = Vec::with_capacity(64);
        for word in self.state {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out.truncate(self.output_len);
        out
    }

    fn process_block(&mut self, block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u64::from_be_bytes(block[i * 8..(i + 1) * 8].try_into().expect("8-byte word"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let temp1 =
                h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K512[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        let words = [a, b, c, d, e, f, g, h];
        for (s, w) in self.state.iter_mut().zip(words) {
            *s = s.wrapping_add(w);
        }
    }
}

impl Default for Sha512Context {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Vec<u8> {
    let mut ctx = Sha256Context::new();
    ctx.update(data);
    ctx.finalize()
}

/// One-shot SHA-384.
pub fn sha384(data: &[u8]) -> Vec<u8> {
    let mut ctx = Sha512Context::new_sha384();
    ctx.update(data);
    ctx.finalize()
}

/// One-shot SHA-512.
pub fn sha512(data: &[u8]) -> Vec<u8> {
    let mut ctx = Sha512Context::new();
    ctx.update(data);
    ctx.finalize()
}

macro_rules! crypto_hash_impl {
    ($name:ident, $strname:literal, $outlen:expr, $blocklen:expr, $func:ident) => {
        #[doc = concat!($strname, " as a [`CryptoHash`] implementation.")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl CryptoHash for $name {
            fn output_len(&self) -> usize {
                $outlen
            }

            fn block_len(&self) -> usize {
                $blocklen
            }

            fn digest(&self, data: &[u8]) -> Vec<u8> {
                $func(data)
            }

            fn name(&self) -> &'static str {
                $strname
            }
        }
    };
}

crypto_hash_impl!(Sha256, "SHA-256", 32, 64, sha256);
crypto_hash_impl!(Sha384, "SHA-384", 48, 128, sha384);
crypto_hash_impl!(Sha512, "SHA-512", 64, 128, sha512);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn sha256_fips_vectors() {
        assert_eq!(
            hex::encode(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex::encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex::encode(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha512_fips_vectors() {
        assert_eq!(
            hex::encode(&sha512(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
        assert_eq!(
            hex::encode(&sha512(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn sha384_fips_vectors() {
        assert_eq!(
            hex::encode(&sha384(b"abc")),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
             8086072ba1e7cc2358baeca134c825a7"
        );
        assert_eq!(
            hex::encode(&sha384(b"")),
            "38b060a751ac96384cd9327eb1b1e36a21fdb71114be07434c0cc7bf63f6e1da\
             274edebfe76f65fbd51ad2f14898b95b"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha512_two_block_vector() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex::encode(&sha512(msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
        );
    }

    #[test]
    fn streaming_matches_one_shot_for_all_cores() {
        let data: Vec<u8> = (0u8..=255).cycle().take(777).collect();
        for split in [0usize, 1, 63, 64, 65, 111, 112, 127, 128, 400, 777] {
            let mut c = Sha256Context::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), sha256(&data), "sha256 split {split}");

            let mut c = Sha512Context::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), sha512(&data), "sha512 split {split}");
        }
    }

    #[test]
    fn crypto_hash_impl_metadata() {
        assert_eq!(Sha256.output_len(), 32);
        assert_eq!(Sha384.output_len(), 48);
        assert_eq!(Sha512.output_len(), 64);
        assert_eq!(Sha256.block_len(), 64);
        assert_eq!(Sha512.block_len(), 128);
        assert_eq!(Sha384.block_len(), 128);
        assert_eq!(Sha512.output_bits(), 512);
    }
}
