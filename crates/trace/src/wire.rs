//! Wire helpers for shipping binary traces over a line protocol.
//!
//! A binary trace ([`write_trace`](crate::write_trace)) cannot ride a
//! newline-delimited JSON protocol as-is, so the serve ingestion path
//! ships it in base64 chunks, each guarded by a 64-bit FNV-1a checksum
//! and the whole trace by one fingerprint over every byte. Both codecs
//! live here so client and server agree by construction:
//!
//! * [`fnv1a`] — the same FNV-1a 64 the vm-harden run journal uses for
//!   its result fingerprints, applied to raw bytes. FNV-1a's update
//!   step `h' = (h ^ b) * PRIME` is invertible in `h` (the prime is
//!   odd), so *any* single-byte change yields a different digest —
//!   exactly the guarantee a per-chunk checksum needs against bit
//!   flips in transit.
//! * [`b64_encode`]/[`b64_decode`] — standard-alphabet base64 with
//!   padding, dependency-free, strict on decode (no whitespace, no
//!   missing padding) so a truncated chunk body is an error, never a
//!   silently shorter payload.
//! * [`hex64`]/[`parse_hex64`] — a `u64` as exactly 16 lowercase hex
//!   digits: how checksums, fingerprints and `f64` bit patterns cross
//!   JSON, whose numbers are `f64` and drop bits past 2^53.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`. Single-byte changes always change the
/// digest (the update step is invertible), which is what makes it a
/// usable integrity check for upload chunks.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.digest()
}

/// An incremental [`fnv1a`] for data that arrives in chunks; feeding
/// chunks in order is bit-identical to hashing the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh digest (equals `fnv1a(&[])`).
    #[must_use]
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Encodes a `u64` checksum, fingerprint or bit pattern for the wire:
/// 16 lowercase hex digits.
#[must_use]
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

/// Decodes [`hex64`]: exactly 16 *lowercase* hex digits, nothing else.
/// Encoders only emit the canonical form, so the strictness costs
/// nothing — and it keeps a value byte-for-byte re-renderable
/// (`from_str_radix` alone would admit uppercase and a leading `+`,
/// two renderings of one value), so a journal byte is either canonical
/// or rejected, never silently normalized.
#[must_use]
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `bytes` as standard base64 with `=` padding.
#[must_use]
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for group in bytes.chunks(3) {
        let b0 = group[0] as u32;
        let b1 = group.get(1).copied().unwrap_or(0) as u32;
        let b2 = group.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if group.len() > 1 { B64_ALPHABET[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if group.len() > 2 { B64_ALPHABET[n as usize & 63] as char } else { '=' });
    }
    out
}

/// Why a base64 body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum B64Error {
    /// Input length is not a multiple of 4 (truncated body).
    BadLength(usize),
    /// A byte outside the alphabet (or `=` anywhere but the tail).
    BadChar(char),
}

impl std::fmt::Display for B64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            B64Error::BadLength(n) => write!(f, "base64 length {n} is not a multiple of 4"),
            B64Error::BadChar(c) => write!(f, "invalid base64 character {c:?}"),
        }
    }
}

impl std::error::Error for B64Error {}

/// Decodes standard padded base64. Strict: length must be a multiple
/// of four, padding only in the last group, no whitespace.
///
/// # Errors
///
/// [`B64Error`] on any malformed input.
pub fn b64_decode(s: &str) -> Result<Vec<u8>, B64Error> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(B64Error::BadLength(bytes.len()));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, quad) in bytes.chunks_exact(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = if last { quad.iter().rev().take_while(|&&b| b == b'=').count() } else { 0 };
        if pad > 2 {
            return Err(B64Error::BadChar('='));
        }
        let mut n: u32 = 0;
        for &b in &quad[..4 - pad] {
            let v = match b {
                b'A'..=b'Z' => b - b'A',
                b'a'..=b'z' => b - b'a' + 26,
                b'0'..=b'9' => b - b'0' + 52,
                b'+' => 62,
                b'/' => 63,
                other => return Err(B64Error::BadChar(other as char)),
            };
            n = (n << 6) | u32::from(v);
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_fnv_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0u16..800).map(|i| (i * 7 % 251) as u8).collect();
        let whole = fnv1a(&data);
        for split in [0, 1, 37, 400, 799, 800] {
            let mut inc = Fnv1a::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.digest(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_byte_changes_always_change_the_digest() {
        let data: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        let base = fnv1a(&data);
        let mut copy = data.clone();
        for i in 0..copy.len() {
            copy[i] ^= 0x40;
            assert_ne!(fnv1a(&copy), base, "flip at byte {i} went undetected");
            copy[i] ^= 0x40;
        }
    }

    #[test]
    fn hex64_round_trips_and_rejects_junk() {
        for v in [0u64, 1, u64::MAX, 0x8594_4171_f739_67e8] {
            assert_eq!(parse_hex64(&hex64(v)), Some(v));
        }
        assert_eq!(parse_hex64("ab"), None, "too short");
        assert_eq!(parse_hex64("00000000000000abcd"), None, "too long");
        assert_eq!(parse_hex64("zz944171f73967e8"), None, "not hex");
        assert_eq!(parse_hex64("85944171F73967E8"), None, "uppercase is non-canonical");
        assert_eq!(parse_hex64("+5944171f73967e8"), None, "from_str_radix signs rejected");
        assert_eq!(parse_hex64(" 5944171f73967e8"), None, "whitespace rejected");
    }

    #[test]
    fn base64_round_trips_all_tail_lengths() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        for len in 0..data.len() {
            let enc = b64_encode(&data[..len]);
            assert_eq!(b64_decode(&enc).unwrap(), &data[..len], "len {len}");
        }
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(b64_encode(b""), "");
        assert_eq!(b64_encode(b"f"), "Zg==");
        assert_eq!(b64_encode(b"fo"), "Zm8=");
        assert_eq!(b64_encode(b"foo"), "Zm9v");
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn base64_rejects_malformed_input() {
        assert_eq!(b64_decode("Zg="), Err(B64Error::BadLength(3)));
        assert_eq!(b64_decode("Zm9v Zg=="), Err(B64Error::BadLength(9)));
        assert!(matches!(b64_decode("Zm9$"), Err(B64Error::BadChar('$'))));
        assert!(matches!(b64_decode("===="), Err(B64Error::BadChar('='))));
        // Padding mid-stream is corruption, not formatting.
        assert!(matches!(b64_decode("Zg==Zg=="), Err(B64Error::BadChar('='))));
    }
}
