//! Hash functions.
//!
//! The paper settles on **Murmur2** for Tectorwise and a **CRC32-based
//! hash** ("combines two 32-bit CRC results into a single 64-bit hash")
//! for Typer (§4.1): Murmur2 needs roughly twice the instructions but has
//! higher throughput, which suits Tectorwise's separated hash primitive;
//! CRC's short dependency chain suits Typer's fused loops. Both are
//! provided here and both engines can be switched for the ablation
//! (`experiments table1 --swap-hash`).

/// Which hash function a query plan uses. Defaults follow §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashFn {
    Murmur2,
    Crc,
}

const MURMUR_M: u64 = 0xc6a4_a793_5bd1_e995;
const MURMUR_R: u32 = 47;
const MURMUR_SEED: u64 = 0x8445_d61a_4e77_4912;

/// MurmurHash64A of a single 64-bit key (the VectorWise-style hash).
#[inline]
pub fn murmur2(key: u64) -> u64 {
    let mut h = MURMUR_SEED ^ MURMUR_M.wrapping_mul(8);
    let mut k = key.wrapping_mul(MURMUR_M);
    k ^= k >> MURMUR_R;
    k = k.wrapping_mul(MURMUR_M);
    h ^= k;
    h = h.wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h = h.wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h
}

/// Combine an existing hash with another 64-bit key column (Tectorwise's
/// `rehash` primitive for composite keys).
#[inline]
pub fn rehash_murmur2(h: u64, key: u64) -> u64 {
    let mut k = key.wrapping_mul(MURMUR_M);
    k ^= k >> MURMUR_R;
    k = k.wrapping_mul(MURMUR_M);
    let mut h = (h ^ k).wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h
}

/// MurmurHash64A over a byte string (string join/filter keys).
pub fn hash_bytes_murmur2(bytes: &[u8]) -> u64 {
    let mut h = MURMUR_SEED ^ MURMUR_M.wrapping_mul(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut k = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        k = k.wrapping_mul(MURMUR_M);
        k ^= k >> MURMUR_R;
        k = k.wrapping_mul(MURMUR_M);
        h ^= k;
        h = h.wrapping_mul(MURMUR_M);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(MURMUR_M);
    }
    h ^= h >> MURMUR_R;
    h = h.wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h
}

// ---------------------------------------------------------------------
// CRC32C-based hashing (Typer / HyPer style).
// ---------------------------------------------------------------------

const CRC_SEED_LO: u32 = 0xD7E8_9A2C;
const CRC_SEED_HI: u32 = 0x8F41_5C6B;
const CRC_MIX: u64 = 0x2545_F491_4F6C_DD1D;

/// Software CRC32C (Castagnoli), bitwise: the path for hosts without
/// SSE4.2 (and under Miri), and the reference the tests hold the hardware
/// path to.
///
/// Matches the semantics of `_mm_crc32_u64`: the seed is the running CRC
/// state, with no initial or final complement. Kept out of line so its
/// 64-step loop never bloats the fused loops that inline [`crc64`].
#[cold]
#[inline(never)]
fn crc32_sw(seed: u32, key: u64) -> u32 {
    let mut crc = seed;
    for i in 0..8 {
        let byte = (key >> (i * 8)) as u8;
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0x82f6_3b78 & mask);
        }
    }
    crc
}

/// HyPer-style 64-bit hash: two independent 32-bit CRCs of the key,
/// concatenated and multiplied to spread entropy into the high bits
/// (the directory tag lives there).
///
/// On x86-64 with SSE4.2 each CRC is a single `crc32` instruction inlined
/// into the caller's loop, behind one feature check per key
/// (`is_x86_feature_detected!` caches its answer: one load and a
/// predictable branch). The instructions are inline `asm!` rather than a
/// call to a `#[target_feature(enable = "sse4.2")]` function: such a
/// function cannot be inlined into callers compiled without the feature,
/// so every hash in Typer's fused loops would be an out-of-line call.
#[inline(always)]
pub fn crc64(key: u64) -> u64 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        let (mut lo, mut hi) = (CRC_SEED_LO as u64, CRC_SEED_HI as u64);
        // SAFETY: SSE4.2 was detected at run time, so `crc32` exists. The
        // instructions read and write only the named registers: no memory,
        // no stack, and they leave the flags untouched.
        unsafe {
            std::arch::asm!(
                "crc32 {lo}, {key}",
                "crc32 {hi}, {key}",
                lo = inout(reg) lo,
                hi = inout(reg) hi,
                key = in(reg) key,
                options(pure, nomem, nostack, preserves_flags),
            );
        }
        return (lo | (hi << 32)).wrapping_mul(CRC_MIX);
    }
    let lo = crc32_sw(CRC_SEED_LO, key) as u64;
    let hi = crc32_sw(CRC_SEED_HI, key) as u64;
    (lo | (hi << 32)).wrapping_mul(CRC_MIX)
}

/// Combine an existing CRC-based hash with another key column.
#[inline]
pub fn rehash_crc(h: u64, key: u64) -> u64 {
    crc64(h ^ key.rotate_left(32))
}

impl HashFn {
    /// Hash one 64-bit key.
    #[inline]
    pub fn hash(self, key: u64) -> u64 {
        match self {
            HashFn::Murmur2 => murmur2(key),
            HashFn::Crc => crc64(key),
        }
    }

    /// Fold another key column into an existing hash (composite keys).
    #[inline]
    pub fn rehash(self, h: u64, key: u64) -> u64 {
        match self {
            HashFn::Murmur2 => rehash_murmur2(h, key),
            HashFn::Crc => rehash_crc(h, key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur_reference_vectors() {
        // Self-consistency + known dispersion properties.
        assert_ne!(murmur2(0), 0);
        assert_ne!(murmur2(0), murmur2(1));
        assert_ne!(murmur2(u64::MAX), murmur2(u64::MAX - 1));
    }

    /// `crc64` built from the bitwise software CRC only.
    fn crc64_sw(key: u64) -> u64 {
        let lo = crc32_sw(CRC_SEED_LO, key) as u64;
        let hi = crc32_sw(CRC_SEED_HI, key) as u64;
        (lo | (hi << 32)).wrapping_mul(CRC_MIX)
    }

    #[test]
    fn production_crc_matches_software_reference() {
        // The path the engines call (the inline `crc32` instruction where
        // the host has SSE4.2) must equal the bitwise CRC32C.
        let edges = [
            0u64,
            1,
            u32::MAX as u64,
            u64::MAX,
            (-7i32) as u64,
            i32::MIN as u64,
        ];
        let mut rng = crate::rng::SmallRng::seed_from_u64(0xc0ffee);
        let sweep: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        for &k in edges.iter().chain(&sweep) {
            assert_eq!(crc64(k), crc64_sw(k), "crc64 key {k:#x}");
            for &h in &[0u64, u64::MAX, crc64_sw(k ^ 0x5a5a)] {
                assert_eq!(
                    rehash_crc(h, k),
                    crc64_sw(h ^ k.rotate_left(32)),
                    "rehash_crc h {h:#x} key {k:#x}"
                );
            }
        }
    }

    #[test]
    fn crc_golden_values() {
        // Bucket index, directory tag (bits 48..52) and partition radix
        // (bits 56..62) all come from these bits: pinned so a refactor of
        // the hash path cannot shift them silently.
        let golden = [
            (0x0u64, 0xc7aa_7d69_c029_ab41u64),
            (0x1, 0x4f9b_ca18_0310_5f4a),
            (0x2a, 0x225b_3c23_e056_9798),
            (0xffff_ffff, 0x9fb6_5d5a_29d1_1c00),
            (u64::MAX, 0xb59b_1360_26ab_f658),
            ((-7i32) as u64, 0x6f0f_1295_d2fa_520f),
            (i32::MIN as u64, 0xe2e8_dc88_e603_0eed),
            (0xdead_beef_cafe_babe, 0x1b41_b59f_ba32_3bb7),
        ];
        for (k, want) in golden {
            assert_eq!(crc64(k), want, "crc64 key {k:#x}");
            assert_eq!(crc64_sw(k), want, "software crc64 key {k:#x}");
        }
        let golden_rehash = [
            (0x0u64, 0x0u64, 0xc7aa_7d69_c029_ab41u64),
            (0x2c56_777a_1168_8dcd, 0x9, 0x097a_6bad_f63d_cfa4),
            (0x4f9b_ca18_0310_5f4a, 0x2, 0x13af_d55e_bb2a_a93e),
            (u64::MAX, 0x1, 0xf0ad_8fbd_73ef_5880),
        ];
        for (h, k, want) in golden_rehash {
            assert_eq!(rehash_crc(h, k), want, "rehash_crc h {h:#x} key {k:#x}");
        }
    }

    #[test]
    fn hashes_fill_high_bits() {
        // The join-table tag uses bits 48..64; a hash that never sets them
        // would disable the Bloom filter. Check dispersion over a sample.
        let mut seen_tags_m = std::collections::HashSet::new();
        let mut seen_tags_c = std::collections::HashSet::new();
        for k in 0..4096u64 {
            seen_tags_m.insert(murmur2(k) >> 60);
            seen_tags_c.insert(crc64(k) >> 60);
        }
        assert!(seen_tags_m.len() >= 12, "murmur high bits collapse");
        assert!(seen_tags_c.len() >= 12, "crc high bits collapse");
    }

    #[test]
    fn rehash_differs_from_hash() {
        let h = murmur2(7);
        assert_ne!(rehash_murmur2(h, 9), murmur2(9));
        assert_ne!(rehash_crc(crc64(7), 9), crc64(9));
        // Order sensitivity: (a,b) != (b,a).
        assert_ne!(rehash_murmur2(murmur2(1), 2), rehash_murmur2(murmur2(2), 1));
    }

    #[test]
    fn byte_hash_handles_all_lengths() {
        let mut prev = Vec::new();
        for len in 0..32 {
            let buf: Vec<u8> = (0..len as u8).collect();
            let h = hash_bytes_murmur2(&buf);
            assert!(!prev.contains(&h), "collision at length {len}");
            prev.push(h);
        }
        assert_ne!(hash_bytes_murmur2(b"BUILDING"), hash_bytes_murmur2(b"BUILDINh"));
    }

    #[test]
    fn hashfn_dispatch() {
        assert_eq!(HashFn::Murmur2.hash(99), murmur2(99));
        assert_eq!(HashFn::Crc.hash(99), crc64(99));
        assert_eq!(HashFn::Murmur2.rehash(1, 2), rehash_murmur2(1, 2));
        assert_eq!(HashFn::Crc.rehash(1, 2), rehash_crc(1, 2));
    }
}
