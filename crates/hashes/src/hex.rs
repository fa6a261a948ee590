//! Minimal hexadecimal encoding used by test vectors and reports.

/// Encodes `bytes` as a lowercase hexadecimal string.
///
/// # Examples
///
/// ```
/// assert_eq!(evilbloom_hashes::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0x0f) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_empty() {
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn encode_all_byte_values_roundtrip() {
        let all: Vec<u8> = (0..=255u8).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(expected.len(), 512);
        assert_eq!(encode(&all), expected);
    }
}
