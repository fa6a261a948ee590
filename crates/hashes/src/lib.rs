//! # evilbloom-hashes
//!
//! Hash-function substrate for the `evilbloom` reproduction of *"The Power of
//! Evil Choices in Bloom Filters"* (Gerbet, Kumar & Lauradoux, DSN 2015).
//!
//! The crate keeps only what the paper's reproductions, the attacks and the
//! served store call, each written from scratch and pinned by reference test
//! vectors:
//!
//! * **non-cryptographic hashes** — MurmurHash2 (32-bit) and MurmurHash3
//!   (x86-32 / x64-128), the hashes of the attacked filters (Section 6);
//! * **cryptographic hashes** — MD5, SHA-1, SHA-256, SHA-384 and SHA-512 (the
//!   Table 2 and Figure 9 catalogue) and a generic HMAC;
//! * **keyed PRF** — SipHash-2-4, the Section 8 defence on the served path;
//! * **digest plumbing** — truncation with security accounting
//!   ([`truncate`]), the Kirsch–Mitzenmacher trick, Squid's MD5 split, and
//!   the paper's *digest recycling* countermeasure ([`recycle`]);
//! * **index strategies** ([`index`]) — the pluggable mapping from an item to
//!   its `k` Bloom-filter indexes, in every flavour the paper attacks or
//!   recommends;
//! * **double hashing** ([`double`]) — the Kirsch–Mitzenmacher trick as a
//!   reusable `(h1, h2)` pair source ([`HashStrategy`]), the substrate of the
//!   cache-line blocked filter and the hash-precomputing batch APIs;
//! * **inversions** ([`inversion`]) — constant-time pre-images for
//!   MurmurHash2 and the inverse of the MurmurHash3 `fmix32` finalizer, as
//!   used by the Dablooms deletion attack (Section 6.2).
//!
//! ## Example
//!
//! ```
//! use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_32};
//!
//! // Dablooms-style index derivation: MurmurHash3 + Kirsch–Mitzenmacher.
//! let strategy = KirschMitzenmacher::new(Murmur3_32);
//! let indexes = strategy.indexes(b"http://evil.example/", 4, 3200);
//! assert_eq!(indexes.len(), 4);
//! assert!(indexes.iter().all(|&i| i < 3200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod double;
pub mod hex;
pub mod hmac;
pub mod index;
pub mod inversion;
pub mod md5;
pub mod murmur2;
pub mod murmur3;
pub mod recycle;
pub mod sha1;
pub mod sha2;
pub mod siphash;
pub mod traits;
pub mod truncate;

pub use double::{HashStrategy, KeyedPair, KmIndexes, Murmur128Pair};
pub use hmac::{hmac, Hmac};
pub use index::{
    IndexStrategy, KirschMitzenmacher, Md5Split, RecycledCrypto, SaltedCrypto, SaltedHashes,
};
pub use md5::{md5, Md5, Md5Context};
pub use murmur2::{murmur2_32, Murmur2_32};
pub use murmur3::{murmur3_32, murmur3_x64_128, Murmur3_128, Murmur3_32};
pub use recycle::{recycled_indexes, RecyclingReader};
pub use sha1::{sha1, Sha1, Sha1Context};
pub use sha2::{sha256, sha384, sha512, Sha256, Sha256Context, Sha384, Sha512, Sha512Context};
pub use siphash::{siphash24, SipHash24, SipKey};
pub use traits::{CryptoHash, Hasher64, KeyedHash64};

/// Enumerates one instance of every [`CryptoHash`] in the crate, in the order
/// used by the paper's Table 2 and Figure 9 (MD5, SHA-1, SHA-256, SHA-384,
/// SHA-512). Convenient for benchmarks and reports.
pub fn all_crypto_hashes() -> Vec<Box<dyn CryptoHash>> {
    vec![Box::new(Md5), Box::new(Sha1), Box::new(Sha256), Box::new(Sha384), Box::new(Sha512)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_functions_have_unique_names() {
        let mut names: Vec<&str> = all_crypto_hashes().iter().map(|h| h.name()).collect();
        let fast: [&dyn Hasher64; 4] =
            [&Murmur2_32, &Murmur3_32, &Murmur3_128, &SipHash24::default()];
        names.extend(fast.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn crypto_catalogue_is_ordered_by_digest_size() {
        let sizes: Vec<usize> = all_crypto_hashes().iter().map(|h| h.output_len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }
}
