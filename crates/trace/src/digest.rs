//! Content digests: FNV-1a keys and the bundle entry checksum.
//!
//! Bundles are content-addressed by a 64-bit digest of the inputs that
//! fully determine a simulation (format version, seed, scenario
//! configuration). FNV-1a ([`Digest`], [`fnv1a`]) is tiny,
//! dependency-free, and deterministic across platforms — collision
//! resistance beyond accidental corruption is not a goal here (bundles also
//! carry the raw seed/config fields, which are compared on load). It keys
//! bundles, digests configurations and guards the monitor's index lines;
//! those inputs are short.
//!
//! Entries are long (megabytes per bundle), and every load verifies
//! every entry, so they get a word-parallel checksum instead
//! ([`entry_checksum`]): four independent lanes over 8-byte little-endian
//! words, which the CPU runs side by side where FNV-1a's one byte-serial
//! chain cannot overlap. Each lane step is a bijection of the lane for a
//! fixed word and of the word for a fixed lane, so a change confined to
//! one 8-byte word — any single flipped bit or byte — always changes the
//! result.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher with a chainable API.
///
/// ```
/// let key = trace::Digest::new().str("fig17").u64(42).finish();
/// assert_eq!(key, trace::Digest::new().str("fig17").u64(42).finish());
/// ```
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Start a fresh digest.
    pub fn new() -> Digest {
        Digest::default()
    }

    /// Mix raw bytes.
    pub fn bytes(mut self, b: &[u8]) -> Digest {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mix a `u64` (little-endian).
    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Mix an `f64` via its bit pattern.
    pub fn f64(self, v: f64) -> Digest {
        self.u64(v.to_bits())
    }

    /// Mix a length-prefixed string (so `"ab"+"c"` ≠ `"a"+"bc"`).
    pub fn str(self, s: &str) -> Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Digest::new().bytes(bytes).finish()
}

/// Odd multipliers of the four checksum lanes and of the final fold.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];
const FOLD_MUL: u64 = 0xff51_afd7_ed55_8ccd;
/// Distinct lane starts, so equal words in different lanes differ.
const LANE_START: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One checksum step: xor in `word`, multiply by the odd `mul`, xorshift.
/// Each part is invertible, so for a fixed `acc` distinct words give
/// distinct results, and for a fixed word distinct accumulators do.
#[inline(always)]
fn step(acc: u64, word: u64, mul: u64) -> u64 {
    let x = (acc ^ word).wrapping_mul(mul);
    x ^ (x >> 29)
}

#[inline(always)]
fn le_word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte word"))
}

/// The 64-bit checksum of a bundle entry (since format v3), and of a
/// bundle's manifest (since format v4).
///
/// Words `4k + i` of the input go through lane `i`; the 0–7 tail bytes,
/// zero-padded to a word, and the input length are folded into a final
/// accumulator separately, then the four lanes are folded into it in
/// order. A change within one word alters one lane (or the tail fold), and
/// every later fold keeps it distinct, so it is always detected; any other
/// change, appending or truncating included, escapes only if two 64-bit
/// results collide by chance.
///
/// ```
/// let a = trace::entry_checksum(b"qoe trace bundle entry");
/// assert_ne!(a, trace::entry_checksum(b"qoe trace bundle entrz"));
/// assert_ne!(a, trace::entry_checksum(b"qoe trace bundle entry\0"));
/// ```
pub fn entry_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_START;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, le_word(&block[8 * i..8 * i + 8]), LANE_MUL[i]);
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        lanes[i] = step(lanes[i], le_word(word), LANE_MUL[i]);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let mut acc = step(bytes.len() as u64, 0, FOLD_MUL);
    acc = step(acc, u64::from_le_bytes(tail), FOLD_MUL);
    for lane in lanes {
        acc = step(acc, lane, FOLD_MUL);
    }
    step(acc, 0, FOLD_MUL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fold() {
        let want = b"hello"
            .iter()
            .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
        assert_eq!(fnv1a(b"hello"), want);
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
    }

    /// Deterministic non-trivial test input of `len` bytes.
    fn sample(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn entry_checksum_detects_every_single_byte_change() {
        for len in 0..=97 {
            for input in [sample(len), vec![0; len], vec![0xFF; len]] {
                let sum = entry_checksum(&input);
                for i in 0..len {
                    for mask in 1..=255u8 {
                        let mut bad = input.clone();
                        bad[i] ^= mask;
                        assert_ne!(entry_checksum(&bad), sum, "len {len} byte {i} ^ {mask:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn entry_checksum_detects_appended_and_truncated_bytes() {
        for len in 0..=97 {
            for input in [sample(len), vec![0; len]] {
                let sum = entry_checksum(&input);
                for extra in [0x00, 0x01, 0x80, 0xFF] {
                    let mut longer = input.clone();
                    longer.push(extra);
                    assert_ne!(entry_checksum(&longer), sum, "len {len} + {extra:#x}");
                }
                if len > 0 {
                    assert_ne!(entry_checksum(&input[..len - 1]), sum, "len {len} - 1");
                }
            }
        }
    }

    #[test]
    fn entry_checksum_is_pinned() {
        // A bundle written by any build of format v4 must verify under
        // every other: the value is part of the on-disk format.
        assert_eq!(entry_checksum(b""), 0xdad0_d397_ba71_dc4e);
        assert_eq!(entry_checksum(&sample(97)), 0x6b08_76aa_98ee_cb7e);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let a = Digest::new().str("ab").str("c").finish();
        let b = Digest::new().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
