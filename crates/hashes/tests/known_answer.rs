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
//!   63 bytes), so every tail length of the final block is pinned;
//! * SipHash-2-4-128 — vectors of the reference implementation's 128-bit
//!   table, and the HMAC pair on RFC 4231 test case 2: the two `(h1, h2)`
//!   sources behind every keyed index derivation.

use evilbloom_hashes::{
    hex, md5, murmur3_32, murmur3_x64_128, sha1, sha256, sha384, sha512, siphash24, siphash24_128,
    Hmac, KeyedHash64, Sha256, SipKey,
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

/// SipHash-2-4-128 against entries of the reference implementation's
/// `vectors_sip128` table: the 16 output bytes are `h1` LE ‖ `h2` LE. The
/// lengths cover the empty message, the shortest tails, a 15-byte message
/// (one full word plus a 7-byte tail) and the table's last, 63-byte entry.
#[test]
fn siphash24_128_reference_vectors() {
    let key = sip_reference_key();
    for (len, expected) in [
        (0, "a3817f04ba25a8e66df67214c7550293"),
        (1, "da87c1d86b99af44347659119b22fc45"),
        (2, "8177228da4a45dc7fca38bdef60affe4"),
        (3, "9c70b60c5267a94e5f33b6b02985ed51"),
        (15, "5493e99933b0a8117e08ec0f97cfc3d9"),
        (63, "5150d1772f50834a503e069a973fbd7c"),
    ] {
        let (h1, h2) = siphash24_128(key, &sip_reference_message(len));
        let bytes: Vec<u8> = h1.to_le_bytes().into_iter().chain(h2.to_le_bytes()).collect();
        assert_eq!(hex::encode(&bytes), expected, "SipHash-2-4-128, {len}-byte reference message");
    }
}

/// The HMAC pair is the first 16 bytes of one HMAC-SHA-256 tag, read as two
/// little-endian words. RFC 4231 test case 2's tag starts
/// `5bdcc146bf60754e 6a042426089575c7`.
#[test]
fn hmac_sha256_pair_rfc4231_case2() {
    let mac = Hmac::new(Box::new(Sha256), b"Jefe");
    assert_eq!(
        mac.mac_pair(b"what do ya want for nothing?"),
        (0x4e75_60bf_46c1_dc5b, 0xc775_9508_2624_046a)
    );
}

/// The message of length `len` the padding sweep hashes: bytes `0, 1, 2, …`
/// (wrapping after 255).
fn sweep_message(len: usize) -> Vec<u8> {
    (0..len).map(|i| i as u8).collect()
}

/// Merkle–Damgård padding sweep: every message length `0..=256` through
/// each padded digest, so every padding boundary is crossed — 55/56/63/64
/// for the 64-byte-block digests, 111/112/127/128 for SHA-512. Each entry
/// pins the SHA-256 of the concatenated 257 digests, plus the full digests
/// at the boundary lengths (for a readable failure). The expected values
/// were recorded from the byte-at-a-time padding loop this crate used
/// before padding became one `update` call; SHA-256 of the 64-byte message
/// `00 01 … 3f` is the widely published
/// `fdeab9ac…d9151108`.
#[test]
fn padding_sweep_over_every_length_to_256() {
    type Digest = fn(&[u8]) -> Vec<u8>;
    type Boundaries = [(usize, &'static str); 4];
    let cases: [(&str, Digest, &str, Boundaries); 4] = [
        (
            "MD5",
            |m| md5(m).to_vec(),
            "bb354cf9ad7e11496875bc0d1e2b9e94fad95e303ddbfde03a1268aea88295ac",
            [
                (55, "6912ee65fff2d9f9ce2508cddf8bcda0"),
                (56, "51fdd1acda72405dfdfa03fcb85896d7"),
                (63, "48a6295221902e8e0938f773a7185e72"),
                (64, "b2d3f56bc197fd985d5965079b5e7148"),
            ],
        ),
        (
            "SHA-1",
            |m| sha1(m).to_vec(),
            "b229778ae5049868399be475fb1fa15359b56c24e7cbbdf4155251d4899563dc",
            [
                (55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
                (56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
                (63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
                (64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            ],
        ),
        (
            "SHA-256",
            sha256,
            "35970715cb0d62a006d72921e886dd4ea67151affe64b55164397fe5bb5c1730",
            [
                (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"),
                (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"),
                (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"),
                (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"),
            ],
        ),
        (
            "SHA-512",
            sha512,
            "7069719c034a33c51845a7b9d8d330a9cda7aa6b941bf6929ccfec72fee58298",
            [
                (
                    111,
                    "a1a111449b198d9b1f538bad7f3fc1022b3a5b1a5e90a0bc860de8512746cbc3\
                     1599e6c834de3a3235327af0b51ff57bf7acf1974a73014d9c3953812edc7c8d",
                ),
                (
                    112,
                    "c5fbd731d19d2ae1180f001be72c2c1aaba1d7b094b3748880e24593b8e117a7\
                     50e11c1bd867cc2f96dace8c8b74abd2d5c4f236be444e77d30d1916174070b9",
                ),
                (
                    127,
                    "eab89674feaa34e27aebeeff3c0a4d70070bb872d5e9f186cf1dbbdee517b6e3\
                     5724d629ff025a5b07185e911ada7e3c8acf830aa0e4f71777bd2d44f504f7f0",
                ),
                (
                    128,
                    "1dffd5e3adb71d45d2245939665521ae001a317a03720a45732ba1900ca3b835\
                     1fc5c9b4ca513eba6f80bc7b1d1fdad4abd13491cb824d61b08d8c0e1561b3f7",
                ),
            ],
        ),
    ];
    for (name, digest, sweep, boundaries) in cases {
        for (len, expected) in boundaries {
            assert_eq!(hex::encode(&digest(&sweep_message(len))), expected, "{name}, {len} bytes");
        }
        let all: Vec<u8> = (0..=256).flat_map(|len| digest(&sweep_message(len))).collect();
        assert_eq!(hex::encode(&sha256(&all)), sweep, "{name}, lengths 0..=256");
    }
}
