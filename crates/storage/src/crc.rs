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
//! A container section needs two checksums of every byte — its block's and
//! the whole payload's. The `crc32` instruction has a latency of several
//! cycles but accepts a new one every cycle, so one register per loop
//! leaves most of the unit idle. At a block boundary with at least four
//! whole blocks ahead, [`BlockCrc`] runs four independent block registers
//! side by side, one block each, and derives the whole-payload register
//! from them instead of hashing the bytes a second time. CRC is affine in
//! its register: after a block `b`, the whole register `w` becomes
//! `Z(w) ^ r ^ Z(seed)`, where `r` is the block's own register (started at
//! `seed`) and `Z` is the register after a block of zero bytes — a linear
//! map, kept as four byte-indexed tables. Short tails, blocks entered
//! mid-way and the sliced kernel advance the block and whole registers
//! together over each word, as two chains. Either way every table entry
//! and every whole CRC is the same value.

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

/// The block size [`BlockCrc`] runs four lanes at: the container's. Blocks
/// of any other size take the two-register path.
const LANE_BLOCK: usize = crate::container::RANGE_CRC_BLOCK as usize;
const _: () = assert!(
    LANE_BLOCK.is_multiple_of(SLICE),
    "a lane block is whole words"
);

/// Blocks the four-lane kernel hashes side by side.
const LANES: usize = 4;

/// The SSE4.2 four-lane kernel, or `None` where the instruction is missing.
/// `groups` is a whole number of groups of [`LANES`] blocks of
/// [`LANE_BLOCK`] bytes; for each block, in order, `each` receives its
/// register, advanced from `seed` over that block alone. The four blocks of
/// a group run as four independent chains.
#[cfg(target_arch = "x86_64")]
fn update_lanes_hw(seed: u32, groups: &[u8], each: impl FnMut(u32)) -> Option<()> {
    use std::arch::x86_64::_mm_crc32_u64;

    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn kernel(seed: u32, groups: &[u8], mut each: impl FnMut(u32)) {
        fn words(block: &[u8]) -> impl Iterator<Item = u64> + '_ {
            (block.chunks_exact(SLICE))
                .map(|w| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]))
        }
        for group in groups.chunks_exact(LANES * LANE_BLOCK) {
            let (a, rest) = group.split_at(LANE_BLOCK);
            let (b, rest) = rest.split_at(LANE_BLOCK);
            let (c, d) = rest.split_at(LANE_BLOCK);
            let mut r = [u64::from(seed); LANES];
            for (((wa, wb), wc), wd) in words(a).zip(words(b)).zip(words(c)).zip(words(d)) {
                r[0] = _mm_crc32_u64(r[0], wa);
                r[1] = _mm_crc32_u64(r[1], wb);
                r[2] = _mm_crc32_u64(r[2], wc);
                r[3] = _mm_crc32_u64(r[3], wd);
            }
            // The instruction leaves the upper half of its result zero.
            r.into_iter().for_each(|x| each(x as u32));
        }
    }

    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: SSE4.2 was detected on the line above. The kernel reads
    // `groups` only through `chunks_exact` groups of `LANES * LANE_BLOCK`
    // bytes, splits each at `LANE_BLOCK` and `2 * LANE_BLOCK` and
    // `3 * LANE_BLOCK`, and reads whole `SLICE`-byte words out of each
    // `LANE_BLOCK`-byte block through `chunks_exact`: every read lies inside
    // `groups`, and a trailing partial group is never touched.
    unsafe { kernel(seed, groups, each) };
    Some(())
}

#[cfg(not(target_arch = "x86_64"))]
fn update_lanes_hw(_: u32, _: &[u8], _: impl FnMut(u32)) -> Option<()> {
    None
}

/// `Z`: the register after a block of zero bytes, as a function of the
/// register before. Hashing zeros is linear over GF(2), so `Z(x)` is the
/// XOR of one table entry per byte of `x`.
struct ZeroOp([[u32; 256]; 4]);

impl std::fmt::Debug for ZeroOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ZeroOp")
    }
}

impl ZeroOp {
    /// Tabulate `Z` for `block`-byte blocks: the sliced kernel gives the
    /// image of each one-bit register, and every other entry is the XOR of
    /// the images of its bits.
    fn new(block: usize) -> ZeroOp {
        let zeros = vec![0u8; block];
        let mut t = [[0u32; 256]; 4];
        for (k, table) in t.iter_mut().enumerate() {
            let images: [u32; 8] =
                std::array::from_fn(|bit| update_sliced(1 << (8 * k + bit), &zeros));
            for b in 1..256usize {
                table[b] = table[b & (b - 1)] ^ images[b.trailing_zeros() as usize];
            }
        }
        ZeroOp(t)
    }

    /// `Z(x)`.
    #[inline]
    fn apply(&self, x: u32) -> u32 {
        let [b0, b1, b2, b3] = x.to_le_bytes();
        self.0[0][usize::from(b0)]
            ^ self.0[1][usize::from(b1)]
            ^ self.0[2][usize::from(b2)]
            ^ self.0[3][usize::from(b3)]
    }

    /// `Z` at [`LANE_BLOCK`], built on first use.
    fn lane_block() -> &'static ZeroOp {
        use std::sync::OnceLock;
        static OP: OnceLock<ZeroOp> = OnceLock::new();
        OP.get_or_init(|| ZeroOp::new(LANE_BLOCK))
    }
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
/// range of a payload without hashing the rest of it. It is the table of a
/// [`BlockCrc`] with no prefix: the kernel containers use.
pub fn crc32c_blocks(data: &[u8], block: usize) -> Vec<u32> {
    let mut crc = BlockCrc::new(block, 0);
    crc.update(data);
    crc.finish().0
}

/// Single-pass combined hasher for the container's section layout: reads
/// each byte once and yields both the per-`block` CRC table and the
/// independent whole-payload CRC. The container codec streams payloads
/// through this in fixed-size chunks, so neither writing nor verifying a
/// section ever materializes the payload just to hash it twice. At the
/// container's block size, runs of four whole blocks go through the
/// four-lane kernel and the whole register is folded from their registers
/// (see the module docs).
#[derive(Debug)]
pub struct BlockCrc {
    block: usize,
    fill: usize,
    /// Register (pre-inversion) every block and the whole payload start
    /// from: the state after the prefix.
    seed: u32,
    /// Registers (pre-inversion) of the block in progress and of the
    /// whole payload.
    block_state: u32,
    whole_state: u32,
    table: Vec<u32>,
    /// `Z` and `Z(seed)` where four lanes may run: the block size is
    /// [`LANE_BLOCK`] (the hardware is asked on first use).
    lanes: Option<(&'static ZeroOp, u32)>,
}

impl BlockCrc {
    /// Hasher producing a table at `block`-byte granularity, in which every
    /// block's CRC and the whole CRC are those of the same bytes preceded
    /// by a prefix whose CRC-32C is `prefix` (0: no prefix — the CRC of
    /// nothing). The container passes a section's metadata CRC here, so
    /// each checksum also covers the metadata.
    pub fn new(block: usize, prefix: u32) -> BlockCrc {
        let seed = !prefix;
        let lanes = (block == LANE_BLOCK).then(|| {
            let z = ZeroOp::lane_block();
            (z, z.apply(seed))
        });
        BlockCrc {
            block: block.max(1),
            fill: 0,
            seed,
            block_state: seed,
            whole_state: seed,
            table: Vec::new(),
            lanes,
        }
    }

    /// Absorb payload bytes (any chunking; block boundaries are tracked
    /// internally).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            if let (0, Some((z, z_seed))) = (self.fill, self.lanes) {
                let group = LANES * LANE_BLOCK;
                let (groups, tail) = rest.split_at(rest.len() - rest.len() % group);
                if !groups.is_empty() {
                    let (seed, whole, table) = (self.seed, &mut self.whole_state, &mut self.table);
                    table.reserve(groups.len() / LANE_BLOCK);
                    // Fold each block into the whole register from the
                    // register just computed, never from the stored table.
                    let ran = update_lanes_hw(seed, groups, |r| {
                        table.push(!r);
                        *whole = z.apply(*whole) ^ r ^ z_seed;
                    });
                    match ran {
                        Some(()) => {
                            rest = tail;
                            continue;
                        }
                        None => self.lanes = None,
                    }
                }
            }
            let (head, tail) = rest.split_at((self.block - self.fill).min(rest.len()));
            (self.block_state, self.whole_state) =
                update_pair(self.block_state, self.whole_state, head);
            self.fill += head.len();
            if self.fill == self.block {
                self.table.push(!self.block_state);
                self.block_state = self.seed;
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

    /// The byte-at-a-time table and whole CRC of `data` at `block`-byte
    /// granularity, every checksum continuing a prefix whose CRC is
    /// `prefix`: what [`BlockCrc`] must produce.
    fn blocks_bytewise(data: &[u8], block: usize, prefix: u32) -> (Vec<u32>, u32) {
        let table = (data.chunks(block))
            .map(|b| !update_bytewise(!prefix, b))
            .collect();
        (table, !update_bytewise(!prefix, data))
    }

    #[test]
    fn block_table_matches_oneshot_per_chunk() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let table = crc32c_blocks(&data, 256);
        assert_eq!(table.len(), 4, "ceil(1000/256) blocks");
        assert_eq!(table[0], crc32c_bytewise(&data[..256]));
        assert_eq!(table[3], crc32c_bytewise(&data[768..]), "short final block");
        assert_eq!(table, blocks_bytewise(&data, 256, 0).0);
        assert!(crc32c_blocks(&[], 256).is_empty());
    }

    #[test]
    fn block_crc_single_pass_matches_the_oracle() {
        // 5 000 bytes: four-block groups at the lane block size, with
        // chunkings that enter them on a boundary and after a partial block.
        let data: Vec<u8> = (0..=255).cycle().take(5000).collect();
        for block in [256, 300] {
            let want = blocks_bytewise(&data, block, 0);
            for chunking in [1usize, 7, 64, 256, 300, 1000, 1100, 5000] {
                let mut h = BlockCrc::new(block, 0);
                for chunk in data.chunks(chunking) {
                    h.update(chunk);
                }
                assert_eq!(h.finish(), want, "block {block}, chunking {chunking}");
            }
        }
        let (table, whole) = BlockCrc::new(256, 0).finish();
        assert!(table.is_empty());
        assert_eq!(whole, 0);
    }

    /// Known answers for `Z`: the operator applied to `x` is the register
    /// the sliced kernel (and the byte-wise oracle) reach from `x` over a
    /// block of zero bytes.
    #[test]
    fn zero_operator_equals_hashing_a_block_of_zeros() {
        let xs = [0, 1, 0x80, 0x8000_0000, !0, 0x1234_5678, 0xdead_beef];
        for (block, op) in [(LANE_BLOCK, ZeroOp::lane_block()), (13, &ZeroOp::new(13))] {
            let zeros = vec![0u8; block];
            for x in xs {
                assert_eq!(
                    op.apply(x),
                    update_sliced(x, &zeros),
                    "block {block}, x {x:#x}"
                );
                assert_eq!(
                    op.apply(x),
                    update_bytewise(x, &zeros),
                    "block {block}, x {x:#x}"
                );
            }
        }
        assert_eq!(ZeroOp::lane_block().apply(0), 0, "Z is linear");
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

            /// The single-pass block hasher matches the byte-wise oracle
            /// for any block size and any update chunking.
            #[test]
            fn prop_block_crc_matches_oracle(
                data in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 0..1500),
                block in 1usize..512,
                chunking in 1usize..300,
            ) {
                let mut h = BlockCrc::new(block, 0);
                for chunk in data.chunks(chunking) {
                    h.update(chunk);
                }
                let want = blocks_bytewise(&data, block, 0);
                prop_assert_eq!(h.finish(), want.clone());
                prop_assert_eq!(crc32c_blocks(&data, block), want.0);
            }

            /// At the lane block size and at another one (which takes the
            /// two-register path throughout), payloads of 0 to 9 whole
            /// blocks plus a tail, after a random prefix, fed in random
            /// chunkings — some of which reach a run of four blocks part
            /// way into a block — give the byte-wise oracle's table and
            /// whole CRC.
            #[test]
            fn prop_block_crc_lanes_match_oracle(
                at_lane_block in 0u8..2,
                other_block in 1usize..600,
                blocks in 0usize..10,
                tail in 0usize..600,
                seed in 0u64..u64::MAX,
                prefix in 0u32..u32::MAX,
                cuts in prop::collection::vec(0.0f64..1.0, 0..5),
            ) {
                let block = if at_lane_block == 1 { LANE_BLOCK } else { other_block };
                let len = blocks * block + tail % block;
                let data: Vec<u8> = (0..len)
                    .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 29) as u8)
                    .collect();
                let mut at: Vec<usize> = cuts.iter().map(|f| (f * len as f64) as usize).collect();
                at.extend([0, len]);
                at.sort_unstable();
                let mut h = BlockCrc::new(block, prefix);
                for w in at.windows(2) {
                    h.update(&data[w[0]..w[1]]);
                }
                prop_assert_eq!(h.finish(), blocks_bytewise(&data, block, prefix));
            }
        }
    }
}
