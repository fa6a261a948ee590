//! HMAC (RFC 2104) over any [`CryptoHash`].
//!
//! HMAC is the classic keyed countermeasure evaluated in Table 2 of the
//! paper: the server picks a secret key, and the adversary can no longer
//! predict which filter bits an item maps to, defeating all three adversary
//! models at the cost of two hash invocations per MAC.

use crate::traits::{CryptoHash, KeyedHash64};

/// HMAC instance binding a [`CryptoHash`] and a secret key.
///
/// # Examples
///
/// ```
/// use evilbloom_hashes::{Hmac, Sha256};
///
/// let mac = Hmac::new(Box::new(Sha256), b"secret key");
/// let tag = mac.compute(b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub struct Hmac {
    hash: Box<dyn CryptoHash>,
    /// Key padded (or hashed down) to exactly one block.
    padded_key: Vec<u8>,
}

impl Hmac {
    /// Creates an HMAC instance for `hash` with the given `key`.
    ///
    /// Keys longer than the hash block size are first hashed, as mandated by
    /// RFC 2104.
    pub fn new(hash: Box<dyn CryptoHash>, key: &[u8]) -> Self {
        let block = hash.block_len();
        let mut padded_key = if key.len() > block { hash.digest(key) } else { key.to_vec() };
        padded_key.resize(block, 0);
        Hmac { hash, padded_key }
    }

    /// Computes the HMAC tag of `data`.
    pub fn compute(&self, data: &[u8]) -> Vec<u8> {
        self.compute_with_suffix(data, &[])
    }

    /// Computes the HMAC tag of `data || suffix` without allocating the
    /// concatenation twice; used by index strategies that append a salt.
    pub fn compute_with_suffix(&self, data: &[u8], suffix: &[u8]) -> Vec<u8> {
        let block = self.hash.block_len();
        let mut inner = Vec::with_capacity(block + data.len() + suffix.len());
        for &b in &self.padded_key {
            inner.push(b ^ 0x36);
        }
        inner.extend_from_slice(data);
        inner.extend_from_slice(suffix);
        let inner_digest = self.hash.digest(&inner);

        let mut outer = Vec::with_capacity(block + inner_digest.len());
        for &b in &self.padded_key {
            outer.push(b ^ 0x5c);
        }
        outer.extend_from_slice(&inner_digest);
        self.hash.digest(&outer)
    }

    /// Returns the underlying hash function's name, e.g. `"SHA-1"`.
    pub fn hash_name(&self) -> &'static str {
        self.hash.name()
    }

    /// Digest length of the produced tags in bytes.
    pub fn output_len(&self) -> usize {
        self.hash.output_len()
    }
}

impl core::fmt::Debug for Hmac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Hmac").field("hash", &self.hash.name()).finish_non_exhaustive()
    }
}

impl KeyedHash64 for Hmac {
    fn mac_with_tweak(&self, data: &[u8], tweak: u64) -> u64 {
        let tag = self.compute_with_suffix(data, &tweak.to_le_bytes());
        let mut word = [0u8; 8];
        word.copy_from_slice(&tag[..8]);
        u64::from_le_bytes(word)
    }

    /// The first 16 bytes of one HMAC tag over `data`, as two little-endian
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if the underlying digest is shorter than 16 bytes; every
    /// [`CryptoHash`] in this crate is at least MD5's 16.
    fn mac_pair(&self, data: &[u8]) -> (u64, u64) {
        let tag = self.compute(data);
        let word = |i: usize| u64::from_le_bytes(tag[i..i + 8].try_into().expect("8-byte slice"));
        (word(0), word(8))
    }

    fn name(&self) -> &'static str {
        "HMAC"
    }
}

/// Convenience one-shot HMAC.
pub fn hmac(hash: Box<dyn CryptoHash>, key: &[u8], data: &[u8]) -> Vec<u8> {
    Hmac::new(hash, key).compute(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::{Md5, Sha1, Sha256, Sha512};

    // RFC 2202 (MD5, SHA-1) and RFC 4231 (SHA-2) test vectors.
    #[test]
    fn rfc2202_hmac_md5_case1() {
        let key = [0x0b; 16];
        let tag = hmac(Box::new(Md5), &key, b"Hi There");
        assert_eq!(hex::encode(&tag), "9294727a3638bb1c13f48ef8158bfc9d");
    }

    #[test]
    fn rfc2202_hmac_md5_case2() {
        let tag = hmac(Box::new(Md5), b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex::encode(&tag), "750c783e6ab0b503eaa86e310a5db738");
    }

    #[test]
    fn rfc2202_hmac_sha1_case1() {
        let key = [0x0b; 20];
        let tag = hmac(Box::new(Sha1), &key, b"Hi There");
        assert_eq!(hex::encode(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_hmac_sha1_case2() {
        let tag = hmac(Box::new(Sha1), b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex::encode(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc4231_hmac_sha256_case1() {
        let key = [0x0b; 20];
        let tag = hmac(Box::new(Sha256), &key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_hmac_sha512_case1() {
        let key = [0x0b; 20];
        let tag = hmac(Box::new(Sha512), &key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc4231_hmac_sha256_long_key() {
        // Case 6: 131-byte key (longer than the block size) is hashed first.
        let key = [0xaa; 131];
        let tag =
            hmac(Box::new(Sha256), &key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn suffix_is_equivalent_to_concatenation() {
        let mac = Hmac::new(Box::new(Sha256), b"key");
        let direct = mac.compute(b"dataSUFFIX");
        let suffixed = mac.compute_with_suffix(b"data", b"SUFFIX");
        assert_eq!(direct, suffixed);
    }

    #[test]
    fn keyed_hash64_tweak_variation() {
        let mac = Hmac::new(Box::new(Sha1), b"key");
        assert_ne!(mac.mac_with_tweak(b"item", 0), mac.mac_with_tweak(b"item", 1));
        assert_eq!(mac.output_len(), 20);
        assert_eq!(mac.hash_name(), "SHA-1");
    }

    #[test]
    fn different_keys_give_different_tags() {
        let a = Hmac::new(Box::new(Sha256), b"key-a");
        let b = Hmac::new(Box::new(Sha256), b"key-b");
        assert_ne!(a.compute(b"item"), b.compute(b"item"));
    }
}
