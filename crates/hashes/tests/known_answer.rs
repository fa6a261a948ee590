//! Known-answer tests against official test vectors.
//!
//! Every attack result in this workspace is only as trustworthy as the hash
//! implementations underneath it, so the primitives are pinned here against
//! published vectors:
//!
//! * MD5 — RFC 1321, appendix A.5;
//! * SHA-1 / SHA-256 / SHA-384 / SHA-512 — FIPS 180 examples
//!   (the NIST "abc" / two-block / million-`a` messages);
//! * MurmurHash3 (x86-32 and x64-128) — the canonical C++ reference
//!   implementation outputs (verified against an independent from-spec
//!   reimplementation);
//! * SipHash-2-4 — the full test-vector table of the SipHash reference
//!   implementation (key `00 01 … 0f`, messages `ε`, `00`, `00 01`, … up to
//!   63 bytes), so every tail length of the final block is pinned.

use evilbloom_hashes::{
    hex, md5, murmur3_32, murmur3_x64_128, sha1, sha256, sha384, sha512, siphash24, SipKey,
};

/// RFC 1321 appendix A.5 — the full MD5 test suite.
#[test]
fn md5_rfc1321_suite() {
    for (message, expected) in [
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
    ] {
        assert_eq!(hex::encode(&md5(message.as_bytes())), expected, "MD5({message:?})");
    }
}

/// FIPS 180 SHA-1 examples, including the million-`a` message.
#[test]
fn sha1_fips180_vectors() {
    for (message, expected) in [
        (String::new(), "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        ("abc".to_owned(), "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_owned(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
        ("a".repeat(1_000_000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
    ] {
        assert_eq!(hex::encode(&sha1(message.as_bytes())), expected);
    }
}

/// FIPS 180 SHA-256 examples, including the million-`a` message.
#[test]
fn sha256_fips180_vectors() {
    for (message, expected) in [
        (String::new(), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("abc".to_owned(), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_owned(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        ("a".repeat(1_000_000), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
    ] {
        assert_eq!(hex::encode(&sha256(message.as_bytes())), expected);
    }
}

/// FIPS 180 SHA-384 / SHA-512 "abc" examples.
#[test]
fn sha2_family_abc_vectors() {
    assert_eq!(
        hex::encode(&sha384(b"abc")),
        "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
         8086072ba1e7cc2358baeca134c825a7"
    );
    assert_eq!(
        hex::encode(&sha512(b"abc")),
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
         2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    );
}

/// FIPS 180 two-block SHA-384/SHA-512 message
/// (`abcdefgh…` 112 characters).
#[test]
fn sha2_family_two_block_vectors() {
    let message = "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                   hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    assert_eq!(
        hex::encode(&sha384(message.as_bytes())),
        "09330c33f71147e83d192fc782cd1b4753111b173b3b05d22fa08086e3b0f712\
         fcc7c71a557e2db966c3e9fa91746039"
    );
    assert_eq!(
        hex::encode(&sha512(message.as_bytes())),
        "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
         501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
    );
}

/// MurmurHash3 x86-32 vectors from the canonical C++ implementation.
#[test]
fn murmur3_32_reference_vectors() {
    assert_eq!(murmur3_32(b"", 0), 0);
    assert_eq!(murmur3_32(b"", 1), 0x514e_28b7);
    assert_eq!(murmur3_32(b"", 0xffff_ffff), 0x81f1_6f39);
    assert_eq!(murmur3_32(b"test", 0), 0xba6b_d213);
    assert_eq!(murmur3_32(b"The quick brown fox jumps over the lazy dog", 0), 0x2e4f_f723);
}

/// MurmurHash3 x64-128 vectors from the canonical C++ implementation
/// (cross-checked against an independent from-spec reimplementation).
#[test]
fn murmur3_x64_128_reference_vectors() {
    assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    assert_eq!(
        murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0),
        (0xe34b_bc7b_bc07_1b6c, 0x7a43_3ca9_c49a_9347)
    );
    assert_eq!(murmur3_x64_128(b"hello", 0), (0xcbd8_a7b3_41bd_9b02, 0x5b1e_906a_48ae_1d19));
    assert_eq!(
        murmur3_x64_128(b"Hello, world!", 123),
        (0x421c_8c73_8743_acad, 0xf197_32fd_d373_c3f5)
    );
}

/// The SipHash paper's reference key: `00 01 02 … 0f`.
fn sip_reference_key() -> SipKey {
    let bytes: Vec<u8> = (0u8..16).collect();
    SipKey::from_bytes(&bytes.try_into().expect("16 bytes"))
}

/// The SipHash paper's reference messages: `ε`, `00`, `00 01`, … (prefixes of
/// the byte sequence 0, 1, 2, …).
fn sip_reference_message(len: usize) -> Vec<u8> {
    (0..len as u8).collect()
}

/// SipHash-2-4 of the reference message of every length `0..=63` under the
/// reference key: the `vectors_sip64` table of the SipHash reference
/// implementation, indexed by message length.
const SIPHASH24_VECTORS: [u64; 64] = [
    0x726f_db47_dd0e_0e31,
    0x74f8_39c5_93dc_67fd,
    0x0d6c_8009_d9a9_4f5a,
    0x8567_6696_d7fb_7e2d,
    0xcf27_94e0_2771_87b7,
    0x1876_5564_cd99_a68d,
    0xcbc9_466e_58fe_e3ce,
    0xab02_00f5_8b01_d137,
    0x93f5_f579_9a93_2462,
    0x9e00_82df_0ba9_e4b0,
    0x7a5d_bbc5_94dd_b9f3,
    0xf4b3_2f46_226b_ada7,
    0x751e_8fbc_860e_e5fb,
    0x14ea_5627_c084_3d90,
    0xf723_ca90_8e7a_f2ee,
    0xa129_ca61_49be_45e5,
    0x3f2a_cc7f_57c2_9bdb,
    0x699a_e9f5_2cbe_4794,
    0x4bc1_b3f0_968d_d39c,
    0xbb6d_c91d_a779_61bd,
    0xbed6_5cf2_1aa2_ee98,
    0xd0f2_cbb0_2e3b_67c7,
    0x9353_6795_e3a3_3e88,
    0xa80c_038c_cd5c_cec8,
    0xb8ad_50c6_f649_af94,
    0xbce1_92de_8a85_b8ea,
    0x17d8_35b8_5bbb_15f3,
    0x2f2e_6163_076b_cfad,
    0xde4d_aaac_a71d_c9a5,
    0xa6a2_5066_8795_6571,
    0xad87_a353_5c49_ef28,
    0x32d8_92fa_d841_c342,
    0x7127_512f_72f2_7cce,
    0xa7f3_2346_f959_78e3,
    0x12e0_b01a_bb05_1238,
    0x15e0_34d4_0fa1_97ae,
    0x314d_ffbe_0815_a3b4,
    0x0279_90f0_2962_3981,
    0xcadc_d4e5_9ef4_0c4d,
    0x9abf_d876_6a33_735c,
    0x0e3e_a96b_5304_a7d0,
    0xad0c_42d6_fc58_5992,
    0x1873_06c8_9bc2_15a9,
    0xd4a6_0abc_f379_2b95,
    0xf935_451d_e4f2_1df2,
    0xa953_8f04_1975_5787,
    0xdb9a_cddf_f56c_a510,
    0xd06c_98cd_5c09_75eb,
    0xe612_a3cb_9ecb_a951,
    0xc766_e62c_fcad_af96,
    0xee64_435a_9752_fe72,
    0xa192_d576_b245_165a,
    0x0a87_87bf_8ecb_74b2,
    0x81b3_e73d_20b4_9b6f,
    0x7fa8_220b_a3b2_ecea,
    0x2457_31c1_3ca4_2499,
    0xb78d_bfaf_3a8d_83bd,
    0xea1a_d565_322a_1a0b,
    0x60e6_1c23_a379_5013,
    0x6606_d7e4_4628_2b93,
    0x6ca4_ecb1_5c5f_91e1,
    0x9f62_6da1_5c96_25f3,
    0xe51b_3860_8ef2_5f57,
    0x958a_324c_eb06_4572,
];

/// SipHash-2-4 against the reference implementation's test-vector table.
#[test]
fn siphash24_paper_vectors() {
    let key = sip_reference_key();
    for (len, &expected) in SIPHASH24_VECTORS.iter().enumerate() {
        assert_eq!(
            siphash24(key, &sip_reference_message(len)),
            expected,
            "SipHash-2-4, {len}-byte reference message"
        );
    }
}
