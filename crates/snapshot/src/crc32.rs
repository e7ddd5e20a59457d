//! CRC-32/IEEE (the zlib/gzip polynomial), table-driven, std-only.
//!
//! The hasher runs slice-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step instead of one. The result is
//! bit-identical to the bytewise table loop (kept as the test reference),
//! several times faster on the large section payloads of a snapshot.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feed bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][b[4] as usize]
                ^ t[2][b[5] as usize]
                ^ t[1][b[6] as usize]
                ^ t[0][b[7] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt, SeedableRng};

    /// The bytewise table loop the slice-by-8 hasher must reproduce.
    fn reference(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        !state
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_short_length() {
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        for len in 0..=64 {
            let data = random_bytes(&mut rng, len);
            assert_eq!(crc32(&data), reference(&data), "length {len}");
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_random_streams() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..24 {
            let len = rng.random_range(0..=64 * 1024);
            let data = random_bytes(&mut rng, len);
            let want = reference(&data);
            assert_eq!(crc32(&data), want, "one-shot, length {len}");
            // Feed the same bytes in random pieces: unaligned splits must
            // not change the sum.
            let mut h = Crc32::new();
            let mut pos = 0;
            while pos < len {
                let step = rng.random_range(1..=(len - pos).min(4096));
                h.update(&data[pos..pos + step]);
                pos += step;
            }
            assert_eq!(h.finish(), want, "streamed, length {len}");
        }
    }

    #[test]
    fn known_vectors() {
        // The CRC catalogue "check" value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"holistic task assignment";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_sum() {
        let data = b"snapshot payload bytes";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
