//! CRC-32C (Castagnoli) checksums for checkpoint integrity.
//!
//! The hot loops here sit on the checkpoint critical path: every payload
//! byte written or verified flows through them. Two kernels advance the
//! same register. On x86-64 with SSE4.2 (detected at run time) the `crc32`
//! instruction consumes 8 input bytes per step; everywhere else
//! *slicing-by-8* — eight interleaved 256-entry tables — does. The sliced
//! kernel is also the oracle: the property tests call both kernels
//! directly and hold each to the byte-at-a-time loop, which survives as a
//! `#[cfg(test)]` reference. (AArch64 has `crc32c*` instructions too; that
//! kernel waits for a runner that can execute it.)
//!
//! A v2 section needs two checksums of every byte — its block's and the
//! whole payload's. [`BlockCrc`] advances both registers over each word in
//! one loop: the two dependency chains are independent, so on the hardware
//! kernel the second hash hides in the first one's latency.

/// The Castagnoli polynomial (reflected form).
const POLY: u32 = 0x82F6_3B78;

/// Input bytes consumed per step, by either kernel.
const SLICE: usize = 8;

/// Lazily-built slicing-by-8 lookup tables. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which lets eight table lookups advance the state over
/// eight input bytes at once.
fn tables() -> &'static [[u32; 256]; SLICE] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; SLICE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICE];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *e = crc;
        }
        for k in 1..SLICE {
            for b in 0..256 {
                let prev = t[k - 1][b];
                t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Advance `state` over `bytes` with the slicing-by-8 kernel. The state is
/// the *internal* (pre-inversion) CRC register, so updates compose across
/// arbitrary split points.
fn update_sliced(mut state: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = bytes.chunks_exact(SLICE);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The SSE4.2 kernel, or `None` where the instruction is missing.
/// Advances two registers over the same bytes (see the module docs); a
/// caller with one checksum to compute passes it twice.
#[cfg(target_arch = "x86_64")]
fn update_pair_hw(a: u32, b: u32, bytes: &[u8]) -> Option<(u32, u32)> {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn kernel(a: u32, b: u32, bytes: &[u8]) -> (u32, u32) {
        let (mut a, mut b) = (u64::from(a), u64::from(b));
        let mut chunks = bytes.chunks_exact(SLICE);
        for c in &mut chunks {
            let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            a = _mm_crc32_u64(a, word);
            b = _mm_crc32_u64(b, word);
        }
        // The instruction leaves the upper half of its result zero.
        let (mut a, mut b) = (a as u32, b as u32);
        for &byte in chunks.remainder() {
            a = _mm_crc32_u8(a, byte);
            b = _mm_crc32_u8(b, byte);
        }
        (a, b)
    }

    // The macro caches its CPUID probe: after the first call this is one
    // relaxed load.
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: SSE4.2 was detected on the line above.
    Some(unsafe { kernel(a, b, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn update_pair_hw(_: u32, _: u32, _: &[u8]) -> Option<(u32, u32)> {
    None
}

/// Advance the registers `a` and `b` over the same `bytes`, on the
/// hardware kernel where there is one.
#[inline]
fn update_pair(a: u32, b: u32, bytes: &[u8]) -> (u32, u32) {
    update_pair_hw(a, b, bytes)
        .unwrap_or_else(|| (update_sliced(a, bytes), update_sliced(b, bytes)))
}

/// Advance one register over `bytes` (the fallback walks them once).
#[inline]
fn update_state(state: u32, bytes: &[u8]) -> u32 {
    match update_pair_hw(state, state, bytes) {
        Some((advanced, _)) => advanced,
        None => update_sliced(state, bytes),
    }
}

/// Streaming CRC-32C hasher.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Crc32c {
        Crc32c::new()
    }
}

impl Crc32c {
    /// Fresh hasher.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_state(self.state, bytes);
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot checksum.
pub fn crc32c(bytes: &[u8]) -> u32 {
    !update_state(!0, bytes)
}

/// One-shot checksum of `values`' little-endian bytes — what a container
/// stores for an fp32 section — without building them: on a little-endian
/// target the values' own memory is hashed.
pub fn crc32c_f32(values: &[f32]) -> u32 {
    if let Some(bytes) = crate::container::f32_le_bytes(values) {
        return crc32c(bytes);
    }
    let (mut hasher, mut bytes) = (Crc32c::new(), Vec::new());
    for chunk in values.chunks(16 * 1024) {
        bytes.clear();
        ucp_tensor::DType::F32.encode(chunk, &mut bytes);
        hasher.update(&bytes);
    }
    hasher.finish()
}

/// Per-block checksums: one CRC-32C per `block`-byte chunk of `data` (the
/// final chunk may be short; empty data yields an empty table). This is
/// the checksum granularity that lets a reader verify an arbitrary byte
/// range of a payload without hashing the rest of it.
pub fn crc32c_blocks(data: &[u8], block: usize) -> Vec<u32> {
    data.chunks(block.max(1)).map(crc32c).collect()
}

/// Single-pass combined hasher for the v2 section layout: reads each byte
/// once and yields both the per-`block` CRC table and the independent
/// whole-payload CRC. The container codec streams payloads through this in
/// fixed-size chunks, so neither writing nor verifying a section ever
/// materializes the payload just to hash it twice.
#[derive(Debug)]
pub struct BlockCrc {
    block: usize,
    fill: usize,
    /// Registers (pre-inversion) of the block in progress and of the
    /// whole payload.
    block_state: u32,
    whole_state: u32,
    table: Vec<u32>,
}

impl BlockCrc {
    /// Hasher producing a table at `block`-byte granularity.
    pub fn new(block: usize) -> BlockCrc {
        BlockCrc {
            block: block.max(1),
            fill: 0,
            block_state: !0,
            whole_state: !0,
            table: Vec::new(),
        }
    }

    /// Absorb payload bytes (any chunking; block boundaries are tracked
    /// internally).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at((self.block - self.fill).min(rest.len()));
            (self.block_state, self.whole_state) =
                update_pair(self.block_state, self.whole_state, head);
            self.fill += head.len();
            if self.fill == self.block {
                self.table.push(!self.block_state);
                self.block_state = !0;
                self.fill = 0;
            }
            rest = tail;
        }
    }

    /// Finish: the per-block CRC table (final short block included) and
    /// the whole-payload CRC.
    pub fn finish(mut self) -> (Vec<u32>, u32) {
        if self.fill > 0 {
            self.table.push(!self.block_state);
        }
        (self.table, !self.whole_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop, kept as the reference oracle both kernels
    /// are validated against.
    fn update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        for &b in bytes {
            state = (state >> 8) ^ t[((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state
    }

    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this machine can run, called directly rather than
    /// through the dispatcher: slicing-by-8 always, the hardware one where
    /// the instruction exists (so on such a runner the fallback every
    /// other target depends on is still exercised).
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut out: Vec<(&'static str, Kernel)> = vec![("sliced", update_sliced)];
        if update_pair_hw(0, 0, &[]).is_some() {
            out.push(("hw", |s, b| update_pair_hw(s, s, b).expect("detected").0));
        }
        out
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 §B.4 test vectors, the "32 bytes incrementing" and
        // "32 bytes decrementing" iSCSI ones included.
        let inc: Vec<u8> = (0u8..32).collect();
        let dec: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&inc, 0x46DD_794E),
            (&dec, 0x113F_DB5C),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want);
            assert_eq!(crc32c_bytewise(data), want);
            for (name, kernel) in kernels() {
                assert_eq!(!kernel(!0, data), want, "{name}");
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut h = Crc32c::new();
        h.update(&data[..100]);
        h.update(&data[100..]);
        assert_eq!(h.finish(), crc32c(&data));
    }

    #[test]
    fn unaligned_lengths_and_offsets_agree_with_oracle() {
        // Exercise every remainder length and a misaligned start, so both
        // the 8-byte step and the byte-wise tail of each kernel are covered.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 7 + 13) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let s = &data[start..end];
                let want = crc32c_bytewise(s);
                assert_eq!(crc32c(s), want, "slice {start}..{end}");
                for (name, kernel) in kernels() {
                    assert_eq!(!kernel(!0, s), want, "{name} slice {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn f32_checksum_is_the_checksum_of_the_le_bytes() {
        let values: Vec<f32> = (0..20_000)
            .map(|i| f32::from_bits(0x9E37_79B9u32.wrapping_mul(i)))
            .collect();
        for n in [0, 1, 3, 1024, 20_000] {
            let bytes: Vec<u8> = values[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(crc32c_f32(&values[..n]), crc32c(&bytes), "{n} values");
        }
    }

    #[test]
    fn block_table_matches_oneshot_per_chunk() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let table = crc32c_blocks(&data, 256);
        assert_eq!(table.len(), 4, "ceil(1000/256) blocks");
        assert_eq!(table[0], crc32c(&data[..256]));
        assert_eq!(table[3], crc32c(&data[768..]), "short final block");
        assert!(crc32c_blocks(&[], 256).is_empty());
    }

    #[test]
    fn block_crc_single_pass_matches_two_pass() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        for chunking in [1usize, 7, 64, 256, 300, 1000] {
            let mut h = BlockCrc::new(256);
            for chunk in data.chunks(chunking) {
                h.update(chunk);
            }
            let (table, whole) = h.finish();
            assert_eq!(table, crc32c_blocks(&data, 256), "chunking {chunking}");
            assert_eq!(whole, crc32c(&data), "chunking {chunking}");
        }
        let (table, whole) = BlockCrc::new(256).finish();
        assert!(table.is_empty());
        assert_eq!(whole, 0);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![7u8; 64];
        let base = crc32c(&data);
        data[33] ^= 0x10;
        assert_ne!(crc32c(&data), base);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The dispatched one-shot, the streaming hasher and each
            /// kernel called directly — over arbitrary `update()` split
            /// points and from an unaligned start — all agree with the
            /// byte-wise reference oracle on arbitrary inputs; the pair
            /// kernel keeps two different registers apart.
            #[test]
            fn prop_sliced_streaming_and_bytewise_agree(
                data in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 0..2048),
                splits in prop::collection::vec(0.0f64..1.0, 0..6),
                skew in 0usize..8,
            ) {
                let data = &data[skew.min(data.len())..];
                let oracle = crc32c_bytewise(data);
                prop_assert_eq!(crc32c(data), oracle);

                let mut cuts: Vec<usize> = splits
                    .iter()
                    .map(|f| (f * data.len() as f64) as usize)
                    .collect();
                cuts.push(0);
                cuts.push(data.len());
                cuts.sort_unstable();
                cuts.dedup();
                let mut h = Crc32c::new();
                for w in cuts.windows(2) {
                    h.update(&data[w[0]..w[1]]);
                }
                prop_assert_eq!(h.finish(), oracle);

                for (name, kernel) in kernels() {
                    prop_assert_eq!(!kernel(!0, data), oracle, "{}", name);
                    let split = cuts.windows(2).fold(!0, |s, w| kernel(s, &data[w[0]..w[1]]));
                    prop_assert_eq!(!split, oracle, "{} over {:?}", name, &cuts);
                }
                let other = 0x1234_5678;
                let want = (update_bytewise(!0, data), update_bytewise(other, data));
                prop_assert_eq!(update_pair(!0, other, data), want);
                if let Some(pair) = update_pair_hw(!0, other, data) {
                    prop_assert_eq!(pair, want);
                }
            }

            /// The single-pass block hasher matches the per-chunk oracle —
            /// and the two-pass `crc32c_blocks` + `crc32c` it replaces —
            /// for any block size and any update chunking.
            #[test]
            fn prop_block_crc_matches_oracle(
                data in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 0..1500),
                block in 1usize..512,
                chunking in 1usize..300,
            ) {
                let mut h = BlockCrc::new(block);
                for chunk in data.chunks(chunking) {
                    h.update(chunk);
                }
                let (table, whole) = h.finish();
                let want: Vec<u32> = data.chunks(block).map(crc32c_bytewise).collect();
                prop_assert_eq!(&table, &want);
                prop_assert_eq!(whole, crc32c_bytewise(&data));
                prop_assert_eq!(table, crc32c_blocks(&data, block));
                prop_assert_eq!(whole, crc32c(&data));
            }
        }
    }
}
