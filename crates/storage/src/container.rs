//! The `UCPT` container: a self-describing checkpoint file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "UCPT" | version u32 = 3
//! header_len u32 | header JSON bytes | header crc32c u32
//! section_count u32
//! per section:
//!   name_len u16 | name bytes                      ┐
//!   dtype u8 | rank u8 | dims u64 × rank           │ the section metadata
//!   payload_len u64 | crc_block u32                ┘
//!   payload bytes (dtype-encoded)
//!   crc32c u32 × ceil(payload_len / crc_block)    (the block-CRC table)
//!   crc32c u32                                    (the whole payload)
//! ```
//!
//! The JSON header carries structured metadata (model config, parallel
//! strategy, iteration, flat layout, ...) and stays human-inspectable —
//! the role the pickled dictionary plays in a `.pt` checkpoint. Tensor
//! payloads are stored in their logical dtype, so a bf16 model copy costs
//! two bytes per element while the fp32 master costs four.
//!
//! Each section carries a table of per-block CRCs at a fixed block size
//! recorded in the file, so an arbitrary *byte range* of a section can be
//! integrity-checked by reading only the blocks it touches, plus an
//! independent CRC of the whole payload. Every one of those checksums is
//! seeded by the section metadata: a table entry is the CRC-32C of the
//! metadata bytes followed by its block, the trailing word that of the
//! metadata followed by the whole payload. So any read that verifies a
//! payload byte has also verified the name, dtype, shape and block size it
//! decoded that byte with, and an empty section's trailing CRC still
//! covers its metadata. A file of any other version is refused
//! ([`StorageError::BadVersion`]); a file ending anywhere but after its
//! last section is [`StorageError::Malformed`].
//!
//! Every payload byte anyone reads comes back through one body,
//! [`SectionInfo::read_range_at`]: positioned reads of the block-aligned
//! span and its table slice, one hashing pass. Ranged loads ask it for
//! the slice of an atom they need; whole-container reads
//! ([`Container::read_file`], which `fsck`, `ucp verify`, native loads and
//! manifests use) parse the [`ContainerIndex`] and ask it for each section
//! whole, demanding every checksum the section carries
//! ([`SectionInfo::read_all_at`]).

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

use ucp_tensor::{DType, Shape, Tensor};

use crate::commit;
use crate::crc::{crc32c, BlockCrc, Crc32c};
use crate::io::ReadAt;
use crate::{Result, StorageError};

const MAGIC: &[u8; 4] = b"UCPT";
/// The one version written and read: per-section block-CRC tables, every
/// checksum seeded by the section metadata.
const VERSION: u32 = 3;

/// Cap on the declared header length; any larger value is corruption,
/// not a header we should try to allocate.
const MAX_HEADER_LEN: usize = 256 * 1024 * 1024;

/// Elements encoded per chunk when streaming a section payload out: the
/// writer never materializes a payload-sized buffer, only this much.
/// 16 Ki elements is 64 KiB of fp32 — big enough to amortize the write
/// syscall, small enough to stay cache-resident.
const ENCODE_CHUNK_ELEMS: usize = 16 * 1024;

/// CRC block size (bytes) new sections are written with. Small enough
/// that a tensor-parallel slice of an inner dimension maps to whole blocks
/// with little overshoot, at a table cost of 4 bytes per block (~1.6%).
pub const RANGE_CRC_BLOCK: u32 = 256;

/// Sanity bounds on a *declared* CRC block size: outside this window the
/// field is corruption (and tiny values would make the table allocation
/// attacker-amplified).
const MIN_CRC_BLOCK: u32 = 64;
const MAX_CRC_BLOCK: u32 = 16 * 1024 * 1024;

fn check_crc_block(name: &str, crc_block: u32) -> Result<()> {
    if !(MIN_CRC_BLOCK..=MAX_CRC_BLOCK).contains(&crc_block) || !crc_block.is_power_of_two() {
        return Err(StorageError::Malformed(format!(
            "section {name}: crc block size {crc_block} is not a power of two in \
             [{MIN_CRC_BLOCK}, {MAX_CRC_BLOCK}]"
        )));
    }
    Ok(())
}

/// Read exactly `len` declared bytes without trusting `len` for the
/// allocation: the buffer grows only as data actually arrives (via
/// [`Read::take`]), so a corrupt length field hits EOF long before it
/// can exhaust memory.
fn read_bytes_bounded<R: Read>(r: &mut R, len: usize, what: &str) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(StorageError::Malformed(format!(
            "{what}: declared {len} bytes, file ends after {}",
            buf.len()
        )));
    }
    Ok(buf)
}

/// Reusable buffers for [`SectionInfo::read_range_at`]: one for
/// block-aligned payload data that cannot land in the caller's `f32`
/// storage directly (16-bit dtypes, ranges cut mid-block), one for the
/// CRC-table slice. A caller issuing many range reads holds one of these
/// and amortizes the allocations to the high-water mark of its largest read.
#[derive(Debug, Default)]
pub struct RangeScratch {
    data: Vec<u8>,
    table: Vec<u8>,
}

/// Which checksums held over the bytes a range read returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verified {
    /// All of them: the table entry of every block the range touches and,
    /// on a whole-section read, the trailing whole-payload CRC.
    All,
    /// A whole-section read whose blocks all matched their table entries
    /// but whose trailing whole-payload CRC did not: only that word is
    /// damaged.
    Blocks,
    /// A whole-section read whose payload matched the whole-payload CRC
    /// but not some block-table entry: only the table is damaged.
    Whole,
}

/// Any seekable reader as a [`ReadAt`]: seek, then `read_exact`.
struct SeekAt<'a, R>(&'a mut R);

impl<R: Read + Seek> ReadAt for SeekAt<'_, R> {
    fn read_exact_at(&mut self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.read_exact(buf)
    }
}

/// `f32` storage viewed as bytes, so a little-endian fp32 payload is read
/// straight into the values it decodes to.
fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    // SAFETY: every bit pattern is a valid `f32` and `u8` has alignment 1;
    // the byte length is exactly the slice's.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), values.len() * 4) }
}

/// The mirror of [`f32_bytes_mut`] for the write side: on a little-endian
/// target an fp32 payload *is* its values' memory, so it is written and
/// hashed from there with no encode pass. `None` on a big-endian target,
/// where the payload has to be encoded.
pub(crate) fn f32_le_bytes(values: &[f32]) -> Option<&[u8]> {
    // SAFETY: `f32` has no padding and every byte of an initialized `f32`
    // is an initialized `u8`; `u8` has alignment 1; the byte length is
    // exactly the slice's and the view shares its lifetime, so the values
    // cannot be written or freed while it is alive.
    cfg!(target_endian = "little")
        .then(|| unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), values.len() * 4) })
}

/// Read-ahead for parsing an index through [`ContainerIndex::read_head`]:
/// an atom file's preamble and section metadata (≈ 150–300 bytes) fit in
/// one fill.
const INDEX_READAHEAD: usize = 512;

/// Open the file at `path`. Every container open in the workspace goes
/// through here, so the `storage/open` counter reflects real handle churn.
pub fn open_file(path: &Path) -> std::io::Result<File> {
    if ucp_telemetry::enabled() {
        ucp_telemetry::count("storage/open", 1);
    }
    File::open(path)
}

/// A section to write, borrowed from wherever its values live — an
/// in-memory [`Container`], a parameter store, a live optimizer buffer —
/// so persisting never copies a payload first.
#[derive(Debug, Clone, Copy)]
pub struct SectionRef<'a> {
    /// Section name (parameter name or state key).
    pub name: &'a str,
    /// Logical dtype the values are stored in.
    pub dtype: DType,
    /// Tensor dimensions; their product is `data.len()`.
    pub dims: &'a [usize],
    /// Row-major values, already quantized to `dtype`.
    pub data: &'a [f32],
}

/// The one UCPT encoder: preamble, then per section its metadata, the
/// payload streamed in fixed-size chunks, and the checksum trailer.
fn encode<W: Write + ?Sized>(w: &mut W, header: &str, sections: &[SectionRef<'_>]) -> Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let header = header.as_bytes();
    w.write_all(&(header.len() as u32).to_le_bytes())?;
    w.write_all(header)?;
    w.write_all(&crc32c(header).to_le_bytes())?;
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    // One scratch buffer reused across all sections: payloads are
    // encoded and hashed in fixed-size chunks, so the writer's memory
    // high-water mark is one chunk, not the largest section.
    let mut scratch = Vec::with_capacity(ENCODE_CHUNK_ELEMS * 4);
    for s in sections {
        if s.dims.iter().product::<usize>() != s.data.len() {
            return Err(StorageError::Malformed(format!(
                "section {}: {} values do not fill dims {:?}",
                s.name,
                s.data.len(),
                s.dims
            )));
        }
        // The metadata goes out as one write, and its CRC seeds every
        // checksum of the payload that follows.
        let name = s.name.as_bytes();
        let payload_len = (s.data.len() * s.dtype.size_bytes()) as u64;
        scratch.clear();
        scratch.extend_from_slice(&(name.len() as u16).to_le_bytes());
        scratch.extend_from_slice(name);
        scratch.extend_from_slice(&[s.dtype.tag(), s.dims.len() as u8]);
        scratch.extend(s.dims.iter().flat_map(|d| (*d as u64).to_le_bytes()));
        scratch.extend_from_slice(&payload_len.to_le_bytes());
        scratch.extend_from_slice(&RANGE_CRC_BLOCK.to_le_bytes());
        w.write_all(&scratch)?;
        // Stream the payload: each chunk of elements is written out and
        // fed to the hasher in a single pass — the block-CRC table and
        // the whole-payload CRC come out of the same traversal that wrote
        // the bytes. A 16-bit chunk is encoded into the scratch buffer
        // first; a little-endian fp32 chunk goes out as it lies in memory.
        let mut crc = BlockCrc::new(RANGE_CRC_BLOCK as usize, crc32c(&scratch));
        for values in s.data.chunks(ENCODE_CHUNK_ELEMS) {
            let in_place = match s.dtype {
                DType::F32 => f32_le_bytes(values),
                DType::F16 | DType::BF16 => None,
            };
            let bytes = in_place.unwrap_or_else(|| {
                scratch.clear();
                s.dtype.encode(values, &mut scratch);
                &scratch
            });
            w.write_all(bytes)?;
            crc.update(bytes);
        }
        // The trailer goes out as one write: the block table, then a
        // whole-payload CRC independent of it — the redundancy that lets
        // a loader with a damaged table fall back to a verified
        // whole-section read ([`SectionInfo::read_range_at`]).
        let (table, whole) = crc.finish();
        scratch.clear();
        scratch.extend(table.iter().flat_map(|crc| crc.to_le_bytes()));
        scratch.extend_from_slice(&whole.to_le_bytes());
        w.write_all(&scratch)?;
    }
    Ok(())
}

/// Serialized size in bytes of a container holding `header` and
/// `sections` (what [`stage_file`] will write).
pub fn encoded_len(header: &str, sections: &[SectionRef<'_>]) -> usize {
    let mut n = 4 + 4 + 4 + header.len() + 4 + 4;
    for s in sections {
        let payload = s.data.len() * s.dtype.size_bytes();
        n += 2 + s.name.len() + 1 + 1 + 8 * s.dims.len() + 8 + 4;
        // Payload, per-block CRC table, trailing whole-payload CRC.
        n += payload + 4 * payload.div_ceil(RANGE_CRC_BLOCK as usize) + 4;
    }
    n
}

/// Stage `header` and `sections` into `group` as a container at `path`;
/// it becomes visible (and, for a durable group, durable) with the rest of
/// the group at [`commit::Group::commit`].
pub fn stage_file(
    group: &commit::Group,
    path: &Path,
    header: &str,
    sections: &[SectionRef<'_>],
) -> Result<()> {
    group.stage(path, |w| encode(w, header, sections))
}

/// Write `header` and `sections` to `path` as a container, staged to
/// `<path>.tmp` and renamed into place ([`commit::publish`]), so readers
/// see either the old file or the complete new one. `durable` adds the
/// fsyncs that make it survive power loss.
pub fn write_file(
    path: &Path,
    header: &str,
    sections: &[SectionRef<'_>],
    durable: bool,
) -> Result<()> {
    commit::publish(path, durable, |w| encode(w, header, sections))
}

/// Parse the file preamble — magic, version, the length-capped and
/// CRC-checked JSON header, section count — leaving `r` at the first
/// section. Returns `(header, section_count)`.
fn parse_preamble<R: Read>(r: &mut R) -> Result<(String, usize)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(StorageError::BadVersion(version));
    }
    let header_len = read_u32(r)? as usize;
    if header_len > MAX_HEADER_LEN {
        return Err(StorageError::Malformed(format!(
            "header length {header_len} exceeds cap {MAX_HEADER_LEN}"
        )));
    }
    let header = read_bytes_bounded(r, header_len, "header")?;
    let header_crc = read_u32(r)?;
    if crc32c(&header) != header_crc {
        return Err(StorageError::ChecksumMismatch {
            what: "header".into(),
        });
    }
    let header = String::from_utf8(header)
        .map_err(|_| StorageError::Malformed("header is not UTF-8".into()))?;
    Ok((header, read_u32(r)? as usize))
}

/// A reader that hashes every byte it passes on, so the metadata's CRC
/// comes out of the one parse of it.
struct Hashing<'a, R> {
    r: &'a mut R,
    crc: Crc32c,
}

impl<R: Read> Read for Hashing<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.r.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

/// Parse one section's metadata, leaving `r` at its first payload byte.
/// Everything a payload reader later computes with is validated here, once:
/// the dims product and `payload_len == elements × dtype size` in checked
/// arithmetic, and the declared CRC block size — and the bytes are hashed
/// into [`SectionInfo::meta_crc`], which every payload read checks them by.
/// `payload_offset` is left 0 for the indexer, which alone knows where `r`
/// stands in the file.
fn parse_section_meta<R: Read>(r: &mut R) -> Result<SectionInfo> {
    let r = &mut Hashing {
        r,
        crc: Crc32c::new(),
    };
    let name_len = read_u16(r)? as usize;
    let name = read_bytes_bounded(r, name_len, "section name")?;
    let name = String::from_utf8(name)
        .map_err(|_| StorageError::Malformed("section name is not UTF-8".into()))?;
    let mut tag = [0u8; 2];
    r.read_exact(&mut tag)?;
    let dtype = DType::from_tag(tag[0])
        .ok_or_else(|| StorageError::Malformed(format!("bad dtype tag {}", tag[0])))?;
    let rank = tag[1] as usize;
    let mut dims = Vec::with_capacity(rank.min(64));
    let mut elems: usize = 1;
    for _ in 0..rank {
        let d = usize::try_from(read_u64(r)?).map_err(|_| {
            StorageError::Malformed(format!("section {name}: dimension exceeds usize"))
        })?;
        elems = elems
            .checked_mul(d)
            .ok_or_else(|| StorageError::Malformed(format!("section {name}: shape overflows")))?;
        dims.push(d);
    }
    let expected = elems.checked_mul(dtype.size_bytes()).ok_or_else(|| {
        StorageError::Malformed(format!("section {name}: payload size overflows"))
    })?;
    let payload_len = read_u64(r)?;
    let shape = Shape::new(dims);
    if payload_len != expected as u64 {
        return Err(StorageError::Malformed(format!(
            "section {name}: payload {payload_len} bytes, shape {shape} implies {expected}"
        )));
    }
    let crc_block = read_u32(r)?;
    check_crc_block(&name, crc_block)?;
    Ok(SectionInfo {
        name,
        dtype,
        shape,
        payload_len,
        payload_offset: 0,
        crc_block,
        meta_crc: r.crc.finish(),
    })
}

/// A named tensor inside a container.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name (parameter name or state key).
    pub name: String,
    /// The tensor payload.
    pub tensor: Tensor,
}

/// An in-memory checkpoint container.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Container {
    /// JSON metadata header.
    pub header: String,
    /// Tensor sections, in insertion order.
    pub sections: Vec<Section>,
}

impl Container {
    /// Empty container with a header.
    pub fn new(header: impl Into<String>) -> Container {
        Container {
            header: header.into(),
            sections: Vec::new(),
        }
    }

    /// Append a tensor section.
    pub fn push(&mut self, name: impl Into<String>, tensor: Tensor) {
        self.sections.push(Section {
            name: name.into(),
            tensor,
        });
    }

    /// Find a section by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.tensor)
    }

    /// Serialized size in bytes (what [`Container::write_to`] will write).
    pub fn encoded_len(&self) -> usize {
        encoded_len(&self.header, &self.section_refs())
    }

    fn section_refs(&self) -> Vec<SectionRef<'_>> {
        self.sections
            .iter()
            .map(|s| SectionRef {
                name: &s.name,
                dtype: s.tensor.dtype(),
                dims: s.tensor.shape().dims(),
                data: s.tensor.as_slice(),
            })
            .collect()
    }

    /// Serialize into a writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        encode(w, &self.header, &self.section_refs())
    }

    /// Deserialize from a seekable reader, verifying every checksum
    /// ([`ContainerIndex::read_container`]).
    pub fn read_from<R: Read + Seek>(r: &mut R) -> Result<Container> {
        ContainerIndex::read_head(r)?.read_container(&mut SeekAt(r))
    }

    /// Write to a file path (creating parent directories). The container
    /// is staged to `<path>.tmp` and renamed into place, so readers see
    /// either the old container or the complete new one; this variant
    /// skips the fsyncs (atomic against concurrent readers, not against
    /// power loss).
    pub fn write_file(&self, path: &Path) -> Result<()> {
        write_file(path, &self.header, &self.section_refs(), false)
    }

    /// Write to a file path through the full crash-consistent commit
    /// protocol (stage, fsync, rename, fsync parent directory). The
    /// serialization cost and the durability cost show up as separate
    /// telemetry spans (`storage/write` vs `storage/fsync`).
    pub fn write_file_durable(&self, path: &Path) -> Result<()> {
        write_file(path, &self.header, &self.section_refs(), true)
    }

    /// Read from a file path through positioned reads, verifying every
    /// checksum.
    pub fn read_file(path: &Path) -> Result<Container> {
        let mut file = open_file(path)?;
        ContainerIndex::read_head(&mut file)?.read_container(&mut file)
    }
}

/// Metadata of one section, read without its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// Logical dtype.
    pub dtype: DType,
    /// Tensor shape.
    pub shape: Shape,
    /// Payload bytes on disk (always `num_elements() × dtype.size_bytes()`:
    /// the parser rejects anything else).
    pub payload_len: u64,
    /// Absolute file offset of the first payload byte.
    pub payload_offset: u64,
    /// CRC block size this section was written with.
    pub crc_block: u32,
    /// CRC-32C of the section's metadata bytes (`name_len` through
    /// `crc_block`), the prefix every payload checksum continues.
    pub meta_crc: u32,
}

impl SectionInfo {
    /// Elements in the section.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// Read elements `elems` of this section into `out` through positioned
    /// reads, verifying integrity of exactly what is read — the one payload
    /// read body — and report which checksums held.
    ///
    /// The kernel is asked for two things, once each: the block-aligned
    /// payload span covering the range and the CRC-table slice for those
    /// blocks. One [`BlockCrc`] pass over the span yields its block CRCs
    /// and its whole CRC, each seeded by [`SectionInfo::meta_crc`].
    /// Corruption outside the span goes unread and undetected; a block
    /// inside it that disagrees with its table entry — in its bytes or in
    /// the metadata it was decoded by — is
    /// [`StorageError::ChecksumMismatch`]. A read that covers the whole
    /// section takes the trailing whole-payload CRC along with the table
    /// and checks both: a mismatch on one side only is reported as
    /// [`Verified::Blocks`] or [`Verified::Whole`] (the independent CRC
    /// vouches for the payload), on both sides it is an error. Loaders
    /// accept either; [`SectionInfo::read_all_at`] does not.
    pub fn read_range_at<A: ReadAt>(
        &self,
        r: &mut A,
        elems: Range<usize>,
        scratch: &mut RangeScratch,
        out: &mut [f32],
    ) -> Result<Verified> {
        let name = &self.name;
        let total = self.num_elements();
        if elems.start > elems.end || elems.end > total || out.len() != elems.len() {
            return Err(StorageError::Malformed(format!(
                "section {name}: range {}..{} into {} values out of bounds for {total} elements",
                elems.start,
                elems.end,
                out.len()
            )));
        }
        // An empty range of a non-empty section reads nothing; an empty
        // section's whole read still checks its trailing CRC.
        if elems.is_empty() && total > 0 {
            return Ok(Verified::All);
        }
        let esize = self.dtype.size_bytes();
        let payload_len = self.payload_len as usize;
        let whole = elems.len() == total;
        let cb = self.crc_block as usize;
        let (b0, b1) = (elems.start * esize / cb, (elems.end * esize).div_ceil(cb));
        let span = b0 * cb..(b1 * cb).min(payload_len);
        // A little-endian fp32 span that is exactly the range lands in
        // `out`; anything else is staged in the scratch and decoded.
        let direct = cfg!(target_endian = "little")
            && self.dtype == DType::F32
            && span.len() == out.len() * 4;
        let data = if direct {
            f32_bytes_mut(out)
        } else {
            scratch.data.resize(span.len(), 0);
            &mut scratch.data[..]
        };
        r.read_exact_at(data, self.payload_offset + span.start as u64)?;
        let table_len = (b1 - b0) * 4;
        scratch
            .table
            .resize(table_len + if whole { 4 } else { 0 }, 0);
        r.read_exact_at(
            &mut scratch.table,
            self.payload_offset + self.payload_len + (b0 * 4) as u64,
        )?;
        let (table, whole_crc) = scratch.table.split_at(table_len);
        let mut crc = BlockCrc::new(cb, self.meta_crc);
        crc.update(data);
        let (blocks, computed_whole) = crc.finish();
        let bad_block = (blocks.iter().zip(table.chunks_exact(4)))
            .position(|(computed, stored)| computed.to_le_bytes() != stored);
        let whole_held = whole.then(|| computed_whole.to_le_bytes() == whole_crc);
        let verified = match (bad_block, whole_held) {
            (None, None | Some(true)) => Verified::All,
            (None, Some(false)) => Verified::Blocks,
            (Some(_), Some(true)) => Verified::Whole,
            (Some(i), _) => {
                let what = format!("{name} (block {})", b0 + i);
                return Err(StorageError::ChecksumMismatch { what });
            }
        };
        if ucp_telemetry::enabled() {
            ucp_telemetry::count("storage/range_reads", 1);
            let bytes = span.len() + scratch.table.len();
            ucp_telemetry::count("storage/range_bytes_read", bytes as u64);
        }
        if !direct {
            let skip = elems.start * esize - span.start;
            let values = (self.dtype.decode(&scratch.data[skip..], out.len()))
                .ok_or_else(|| StorageError::Malformed(format!("section {name}: short payload")))?;
            out.copy_from_slice(&values);
        }
        Ok(verified)
    }

    /// Read the whole section into `out` ([`SectionInfo::read_range_at`]),
    /// demanding every checksum it carries: each block-table entry *and*
    /// the trailing whole-payload CRC. What `fsck`, `ucp verify` and native
    /// loads judge a file by.
    pub fn read_all_at<A: ReadAt>(
        &self,
        r: &mut A,
        scratch: &mut RangeScratch,
        out: &mut [f32],
    ) -> Result<()> {
        let damaged = match self.read_range_at(r, 0..self.num_elements(), scratch, out)? {
            Verified::All => return Ok(()),
            Verified::Blocks => "whole payload",
            Verified::Whole => "block table",
        };
        let what = format!("{} ({damaged})", self.name);
        Err(StorageError::ChecksumMismatch { what })
    }
}

/// Values read from a section as a tensor of its shape and dtype (they are
/// already exact in it, so an fp32 section skips the copying cast).
fn section_tensor(values: Vec<f32>, shape: Shape, dtype: DType) -> Result<Tensor> {
    let tensor =
        Tensor::from_vec(values, shape).map_err(|e| StorageError::Malformed(e.to_string()))?;
    Ok(match dtype {
        DType::F32 => tensor,
        DType::F16 | DType::BF16 => tensor.cast(dtype),
    })
}

/// A container's header and section index, read by *skipping* payloads —
/// O(header) instead of O(file). Backs fast inspection, metadata-only
/// planning, and verified range reads over large checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerIndex {
    /// JSON metadata header (checksum verified).
    pub header: String,
    /// Per-section metadata, in file order.
    pub sections: Vec<SectionInfo>,
}

impl ContainerIndex {
    /// Read the index from a seekable reader.
    pub fn read_from<R: Read + Seek>(r: &mut R) -> Result<ContainerIndex> {
        let (header, count) = parse_preamble(r)?;
        let mut sections = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let mut info = parse_section_meta(r)?;
            info.payload_offset = r.stream_position()?;
            // Skip the payload, its block table and its trailing CRC. A
            // corrupt length must not wrap negative when cast for the
            // relative seek.
            let skip = (info.payload_len.div_ceil(info.crc_block as u64))
                .checked_mul(4)
                .and_then(|table| table.checked_add(4))
                .and_then(|c| info.payload_len.checked_add(c))
                .and_then(|n| i64::try_from(n).ok())
                .ok_or_else(|| {
                    StorageError::Malformed(format!(
                        "section {}: payload length {} overflows seek",
                        info.name, info.payload_len
                    ))
                })?;
            r.seek(SeekFrom::Current(skip))?;
            sections.push(info);
        }
        // Relative seeks past EOF succeed silently, so a truncated final
        // payload would otherwise index as present — verify the cursor
        // never left the file. Bytes after the last section mean the
        // (unchecksummed) section count lost some.
        let pos = r.stream_position()?;
        let end = r.seek(SeekFrom::End(0))?;
        if pos != end {
            let what = if pos > end {
                "file truncated mid-section".to_string()
            } else {
                format!("{} bytes after the last of {count} sections", end - pos)
            };
            return Err(StorageError::Malformed(what));
        }
        Ok(ContainerIndex { header, sections })
    }

    /// Read the index from a file.
    pub fn read_file(path: &Path) -> Result<ContainerIndex> {
        ContainerIndex::read_head(&mut open_file(path)?)
    }

    /// Find a section by name.
    pub fn get(&self, name: &str) -> Option<&SectionInfo> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// [`ContainerIndex::read_from`] through a small read-ahead over an
    /// unbuffered handle: the kernel is asked for half a kilobyte per
    /// single-section file, and the handle stays usable for positioned
    /// range reads afterwards.
    pub fn read_head<R: Read + Seek>(r: &mut R) -> Result<ContainerIndex> {
        ContainerIndex::read_from(&mut BufReader::with_capacity(INDEX_READAHEAD, r))
    }

    /// Every section this index describes, read whole from `r` — the file
    /// it was built from — by [`SectionInfo::read_all_at`]: each straight
    /// into the values it decodes to, every checksum demanded. The index
    /// has already proved the file holds each payload, so no buffer is
    /// sized from a length the file does not back.
    pub fn read_container<A: ReadAt>(self, r: &mut A) -> Result<Container> {
        let mut scratch = RangeScratch::default();
        let sections = (self.sections.into_iter())
            .map(|info| {
                let mut values = vec![0.0f32; info.num_elements()];
                info.read_all_at(r, &mut scratch, &mut values)?;
                let tensor = section_tensor(values, info.shape, info.dtype)?;
                Ok(Section {
                    name: info.name,
                    tensor,
                })
            })
            .collect::<Result<_>>()?;
        Ok(Container {
            header: self.header,
            sections,
        })
    }

    /// Read elements `elems` of `section` from the same reader the index
    /// was built from, verifying integrity of exactly what is read
    /// ([`SectionInfo::read_range_at`] behind a seek per read) with
    /// caller-owned scratch buffers, so repeated calls reuse the same
    /// allocations. Returns a 1-D tensor of `elems.len()` values in the
    /// section dtype.
    pub fn read_section_range_with<R: Read + Seek>(
        &self,
        r: &mut R,
        section: &str,
        elems: Range<usize>,
        scratch: &mut RangeScratch,
    ) -> Result<Tensor> {
        let info = (self.get(section)).ok_or_else(|| {
            StorageError::Malformed(format!("container has no section {section}"))
        })?;
        // Out-of-bounds ranges get no allocation; the body rejects them.
        let n = elems.len().min(info.num_elements());
        let mut values = vec![0.0f32; n];
        info.read_range_at(&mut SeekAt(r), elems, scratch, &mut values)?;
        section_tensor(values, Shape::new([n]), info.dtype)
    }
}

fn read_u16<R: Read>(r: &mut R) -> Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_tensor::DetRng;

    fn sample() -> Container {
        let rng = DetRng::new(1);
        let mut c = Container::new(r#"{"iteration": 42, "strategy": "tp2_pp1_dp2"}"#);
        c.push("a.weight", Tensor::randn([4, 3], 1.0, &rng.derive("a")));
        c.push(
            "b.bias",
            Tensor::randn([7], 1.0, &rng.derive("b")).cast(DType::BF16),
        );
        c.push("scalar", Tensor::scalar(3.5));
        c
    }

    /// `c` written by hand from the layout table in the module doc, at a
    /// 256-byte CRC block — sharing no code with [`encode`], so the writer
    /// and the reader are each held to an independent one.
    fn write_by_hand(c: &Container) -> Vec<u8> {
        let mut w = b"UCPT".to_vec();
        w.extend(3u32.to_le_bytes());
        w.extend((c.header.len() as u32).to_le_bytes());
        w.extend(c.header.as_bytes());
        w.extend(crc32c(c.header.as_bytes()).to_le_bytes());
        w.extend((c.sections.len() as u32).to_le_bytes());
        for s in &c.sections {
            let (dtype, dims) = (s.tensor.dtype(), s.tensor.shape().dims());
            let mut payload = Vec::new();
            dtype.encode(s.tensor.as_slice(), &mut payload);
            let mut meta = (s.name.len() as u16).to_le_bytes().to_vec();
            meta.extend(s.name.as_bytes());
            meta.extend([dtype.tag(), dims.len() as u8]);
            for d in dims {
                meta.extend((*d as u64).to_le_bytes());
            }
            meta.extend((payload.len() as u64).to_le_bytes());
            meta.extend(256u32.to_le_bytes());
            // Every checksum is the CRC of the metadata, then its bytes.
            let seeded = |bytes: &[u8]| crc32c(&[&meta[..], bytes].concat()).to_le_bytes();
            w.extend(&meta);
            w.extend(&payload);
            for block in payload.chunks(256) {
                w.extend(seeded(block));
            }
            w.extend(seeded(&payload));
        }
        w
    }

    /// A full read of the container encoded in `buf`.
    fn read(buf: &[u8]) -> Result<Container> {
        Container::read_from(&mut std::io::Cursor::new(buf))
    }

    /// A range read of `section` through `index` and a fresh scratch.
    fn read_range<R: Read + Seek>(
        index: &ContainerIndex,
        r: &mut R,
        section: &str,
        elems: Range<usize>,
    ) -> Result<Tensor> {
        index.read_section_range_with(r, section, elems, &mut RangeScratch::default())
    }

    /// A container big enough that sections span many CRC blocks.
    fn big_sample() -> Container {
        let rng = DetRng::new(9);
        let mut c = Container::new("{}");
        c.push("w", Tensor::randn([40, 33], 1.0, &rng.derive("w")));
        c.push(
            "h",
            Tensor::randn([777], 1.0, &rng.derive("h")).cast(DType::F16),
        );
        c
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), c.encoded_len());
        let back = read(&buf).unwrap();
        assert_eq!(back.header, c.header);
        assert_eq!(back.sections.len(), 3);
        for (orig, read) in c.sections.iter().zip(&back.sections) {
            assert_eq!(orig.name, read.name);
            assert_eq!(orig.tensor.dtype(), read.tensor.dtype());
            assert!(orig.tensor.bitwise_eq(&read.tensor), "{}", orig.name);
        }
    }

    #[test]
    fn bf16_sections_are_half_size() {
        let rng = DetRng::new(2);
        let t = Tensor::randn([1000], 1.0, &rng.derive("t"));
        let mut c32 = Container::new("{}");
        c32.push("w", t.clone());
        let mut c16 = Container::new("{}");
        c16.push("w", t.cast(DType::BF16));
        let diff = c32.encoded_len() - c16.encoded_len();
        // bf16 halves the payload 4000 → 2000 bytes, and with it the
        // block-CRC table (16 blocks → 8 at 4 bytes each).
        assert_eq!(diff, 2000 + 32);
    }

    #[test]
    fn corruption_is_detected() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // Flip one payload byte somewhere after the header.
        let idx = buf.len() - 10;
        buf[idx] ^= 0x01;
        match read(&buf) {
            Err(StorageError::ChecksumMismatch { .. }) | Err(StorageError::Malformed(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    /// A bf16 section whose dtype tag is flipped to F16 decodes the same
    /// bytes as other values; the tag is metadata, so every checksum of
    /// the payload now refuses it, through the full read and a range read.
    #[test]
    fn flipped_dtype_tag_is_a_checksum_mismatch_not_other_values() {
        let mut c = Container::new("{}");
        let t = Tensor::from_vec(vec![1.5, -2.25, 3.0, 0.125], Shape::new([4])).unwrap();
        c.push("w", t.cast(DType::BF16));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // The tag follows the preamble, `name_len` and the one-byte name.
        let tag = 4 + 4 + 4 + c.header.len() + 4 + 4 + 2 + 1;
        assert_eq!(buf[tag], DType::BF16.tag());
        buf[tag] ^= 0x03;
        assert_eq!(DType::from_tag(buf[tag]), Some(DType::F16));
        assert!(matches!(
            read(&buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        let mut cur = std::io::Cursor::new(&buf);
        let index = ContainerIndex::read_from(&mut cur).unwrap();
        assert_eq!(index.sections[0].dtype, DType::F16, "the index trusts it");
        for range in [0..4, 1..2] {
            assert!(matches!(
                read_range(&index, &mut cur, "w", range),
                Err(StorageError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read(b"NOPE").unwrap_err();
        assert!(matches!(err, StorageError::BadMagic));
    }

    /// One version is read: the legacy whole-CRC layout (1), the unseeded
    /// block-table layout (2) and a newer one are each refused by name.
    #[test]
    fn unknown_version_rejected() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert_eq!(buf[4..8], VERSION.to_le_bytes());
        for v in [1u32, 2, 4] {
            buf[4..8].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(read(&buf), Err(StorageError::BadVersion(got)) if got == v));
            assert!(matches!(
                ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)),
                Err(StorageError::BadVersion(got)) if got == v
            ));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ucpt_container_test");
        let path = dir.join("nested/dir/test.ucpt");
        let c = sample();
        c.write_file(&path).unwrap();
        let back = Container::read_file(&path).unwrap();
        assert_eq!(back, c.clone());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_write_file_roundtrip() {
        let dir = std::env::temp_dir().join("ucpt_container_durable_test");
        let path = dir.join("test.ucpt");
        let c = sample();
        c.write_file_durable(&path).unwrap();
        let back = Container::read_file(&path).unwrap();
        assert_eq!(back, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_by_name() {
        let c = sample();
        assert!(c.get("a.weight").is_some());
        assert!(c.get("missing").is_none());
    }

    #[test]
    fn index_matches_full_read() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(index.header, c.header);
        assert_eq!(index.sections.len(), c.sections.len());
        for (info, full) in index.sections.iter().zip(&c.sections) {
            assert_eq!(info.name, full.name);
            assert_eq!(info.dtype, full.tensor.dtype());
            assert_eq!(&info.shape, full.tensor.shape());
            assert_eq!(
                info.payload_len as usize,
                full.tensor.num_elements() * full.tensor.dtype().size_bytes()
            );
            assert_eq!(info.crc_block, RANGE_CRC_BLOCK);
            // The recorded offset really is where the payload starts.
            let esize = info.dtype.size_bytes();
            let first = &buf[info.payload_offset as usize..info.payload_offset as usize + esize];
            let mut enc = Vec::new();
            info.dtype.encode(&full.tensor.as_slice()[..1], &mut enc);
            assert_eq!(first, &enc[..], "payload offset of {}", info.name);
        }
        assert!(index.get("a.weight").is_some());
        assert!(index.get("nope").is_none());
    }

    #[test]
    fn index_skips_corrupt_payloads_but_catches_bad_header() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // Corrupt a payload byte: the index never reads it, so indexing
        // succeeds (payload verification belongs to the full read). The
        // first section's payload starts after the file preamble and the
        // section's name/dtype/rank/dims/len/crc_block fields.
        let idx = 4 + 4 + 4 + c.header.len() + 4 + 4 + 2 + "a.weight".len() + 1 + 1 + 16 + 8 + 4;
        buf[idx] ^= 1;
        assert!(matches!(
            read(&buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).is_ok());
        // Corrupt the header: the index must fail.
        buf[12] ^= 1;
        assert!(ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).is_err());
    }

    #[test]
    fn range_read_matches_full_read_slice() {
        let c = big_sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let mut cur = std::io::Cursor::new(&buf);
        let index = ContainerIndex::read_from(&mut cur).unwrap();
        for s in &c.sections {
            let total = s.tensor.num_elements();
            let full: Vec<f32> = s.tensor.flatten().as_slice().to_vec();
            for range in [0..total, 0..1, total - 1..total, 3..total / 2, 0..0] {
                let t = read_range(&index, &mut cur, &s.name, range.clone()).unwrap();
                assert_eq!(t.num_elements(), range.len());
                assert_eq!(t.dtype(), s.tensor.dtype());
                for (got, want) in t.as_slice().iter().zip(&full[range.clone()]) {
                    assert_eq!(got.to_bits(), want.to_bits(), "{} {range:?}", s.name);
                }
            }
        }
    }

    #[test]
    fn corrupt_block_outside_range_is_not_read() {
        let c = big_sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        let info = index.get("w").unwrap().clone();
        // Corrupt the last payload byte (the final block).
        buf[info.payload_offset as usize + info.payload_len as usize - 1] ^= 1;
        let mut cur = std::io::Cursor::new(&buf);
        // A range confined to the first block still reads clean...
        let t = read_range(&index, &mut cur, "w", 0..10).unwrap();
        assert_eq!(t.num_elements(), 10);
        // ...while a range touching the corrupt block errors, and the full
        // read errors too.
        let total = info.num_elements();
        assert!(matches!(
            read_range(&index, &mut cur, "w", total - 1..total),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(read(&buf).is_err());
    }

    #[test]
    fn corrupt_block_table_entry_fails_matching_range() {
        let c = big_sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        let info = index.get("w").unwrap().clone();
        // Corrupt the *table entry* of block 0 rather than the data.
        let table_off = (info.payload_offset + info.payload_len) as usize;
        buf[table_off] ^= 1;
        let mut cur = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_range(&index, &mut cur, "w", 0..10),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        // The full read verifies the table too.
        assert!(read(&buf).is_err());
        // Ranges entirely inside later blocks are unaffected.
        let cb = info.crc_block as usize / 4;
        let t = read_range(&index, &mut cur, "w", 2 * cb..3 * cb).unwrap();
        assert_eq!(t.num_elements(), cb);
    }

    #[test]
    fn whole_section_read_survives_damaged_block_table() {
        let c = big_sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        let info = index.get("w").unwrap();
        let total = info.num_elements();
        // Damage a block-table entry: the strict full read fails (and a
        // partial ranged read, above), a whole-section read settles the
        // mismatch against the whole-payload CRC and yields the right bytes.
        let table_off = (info.payload_offset + info.payload_len) as usize;
        buf[table_off] ^= 1;
        assert!(read(&buf).is_err());
        let (mut scratch, mut out) = (RangeScratch::default(), vec![0.0; total]);
        let mut cur = std::io::Cursor::new(&buf);
        let how = info.read_range_at(&mut SeekAt(&mut cur), 0..total, &mut scratch, &mut out);
        assert_eq!(how.unwrap(), Verified::Whole, "table damaged, not data");
        assert_eq!(out, c.sections[0].tensor.as_slice());
        // A damaged payload defeats the whole-payload CRC too.
        buf[table_off] ^= 1;
        buf[info.payload_offset as usize + 5] ^= 1;
        let mut cur = std::io::Cursor::new(&buf);
        assert!(matches!(
            info.read_range_at(&mut SeekAt(&mut cur), 0..total, &mut scratch, &mut out),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    /// Range reads of every section of the container encoded in `buf`: the
    /// positioned body over a real file against the seek adapter, bit for bit.
    fn assert_positioned_matches_seek(buf: &[u8], tag: &str) {
        let path =
            std::env::temp_dir().join(format!("ucpt_positioned_{tag}_{}.ucpt", std::process::id()));
        std::fs::write(&path, buf).unwrap();
        let mut file = open_file(&path).unwrap();
        let index = ContainerIndex::read_head(&mut file).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(index, ContainerIndex::read_from(&mut cur).unwrap());
        let mut scratch = RangeScratch::default();
        for info in &index.sections {
            let total = info.num_elements();
            let block = (info.crc_block as usize / info.dtype.size_bytes()).max(1);
            // Whole (short last block), empty, cut mid-block at both ends,
            // exactly one block, aligned into the short last block.
            let ranges = [
                0..total,
                0..0,
                3..block + 5,
                block..2 * block,
                2 * block..total,
            ];
            for range in ranges {
                let mut out = vec![f32::NAN; range.len()];
                let how = info.read_range_at(&mut file, range.clone(), &mut scratch, &mut out);
                assert_eq!(how.unwrap(), Verified::All, "{tag} {} {range:?}", info.name);
                let seek = index
                    .read_section_range_with(&mut cur, &info.name, range, &mut scratch)
                    .unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(seek.as_slice()), "{tag} {}", info.name);
            }
            // Out of bounds, reversed, or a destination of the wrong length.
            #[allow(clippy::reversed_empty_ranges)]
            for (range, len) in [(0..total + 1, total + 1), (5..2, 0), (0..4, 3)] {
                let bad = info.read_range_at(&mut file, range, &mut scratch, &mut vec![0.0; len]);
                assert!(matches!(bad, Err(StorageError::Malformed(_))));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn positioned_body_matches_seek_adapter() {
        let rng = DetRng::new(31);
        let mut c = Container::new("{}");
        for dtype in [DType::F32, DType::BF16, DType::F16] {
            c.push(
                dtype.to_string(),
                Tensor::randn([13, 31], 1.0, &rng).cast(dtype),
            );
        }
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert_positioned_matches_seek(&buf, "dtypes");
    }

    #[test]
    fn corrupt_trailing_whole_crc_fails_full_read_not_ranged() {
        let c = big_sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        let info = index.get("w").unwrap().clone();
        let table_bytes = info.payload_len.div_ceil(info.crc_block as u64) * 4;
        let whole_off = (info.payload_offset + info.payload_len + table_bytes) as usize;
        buf[whole_off] ^= 1;
        // The strict full read verifies the trailing CRC, and a whole-section
        // read reports that only the blocks held...
        assert!(matches!(
            read(&buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        let (mut scratch, mut out) = (RangeScratch::default(), vec![0.0; info.num_elements()]);
        let mut cur = std::io::Cursor::new(&buf);
        let how = info.read_range_at(&mut SeekAt(&mut cur), 0..out.len(), &mut scratch, &mut out);
        assert_eq!(how.unwrap(), Verified::Blocks);
        assert_eq!(out, c.sections[0].tensor.as_slice());
        // ...while ranged reads never touch it.
        let mut cur = std::io::Cursor::new(&buf);
        let t = read_range(&index, &mut cur, "w", 0..10).unwrap();
        assert_eq!(t.num_elements(), 10);
    }

    #[test]
    fn range_read_bounds_are_checked() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let mut cur = std::io::Cursor::new(&buf);
        let index = ContainerIndex::read_from(&mut cur).unwrap();
        assert!(read_range(&index, &mut cur, "a.weight", 0..13).is_err());
        assert!(read_range(&index, &mut cur, "nope", 0..1).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..2;
        assert!(read_range(&index, &mut cur, "a.weight", reversed).is_err());
    }

    /// Hand-rolled container bytes with attacker-controlled geometry:
    /// one F32 section named "w" with the given dims and payload length
    /// (and no payload bytes at all).
    fn raw_container(dims: &[u64], payload_len: u64) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        let header = b"{}";
        b.extend_from_slice(&(header.len() as u32).to_le_bytes());
        b.extend_from_slice(header);
        b.extend_from_slice(&crc32c(header).to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        let name = b"w";
        b.extend_from_slice(&(name.len() as u16).to_le_bytes());
        b.extend_from_slice(name);
        b.push(DType::F32.tag());
        b.push(dims.len() as u8);
        for d in dims {
            b.extend_from_slice(&d.to_le_bytes());
        }
        b.extend_from_slice(&payload_len.to_le_bytes());
        b.extend_from_slice(&RANGE_CRC_BLOCK.to_le_bytes());
        b
    }

    #[test]
    fn oversized_header_len_is_rejected_not_allocated() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // header_len lives at bytes 8..12.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read(&buf), Err(StorageError::Malformed(_))));
        assert!(matches!(
            ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)),
            Err(StorageError::Malformed(_))
        ));
    }

    #[test]
    fn shape_overflow_is_malformed_not_panic() {
        let buf = raw_container(&[u64::MAX, u64::MAX], 16);
        assert!(matches!(read(&buf), Err(StorageError::Malformed(_))));
        // Dims that fit a usize each but not multiplied, over a payload,
        // block table and trailing CRC that really are 16 + 4 + 4 bytes:
        // the skip-seek stays inside the file, so only the checked dims
        // product stands between the index and an overflowing
        // `num_elements()` in the first range read.
        let mut buf = raw_container(&[1 << 40, 1 << 40], 16);
        buf.extend_from_slice(&[0u8; 16 + 4 + 4]);
        assert!(matches!(read(&buf), Err(StorageError::Malformed(_))));
        assert!(matches!(
            ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)),
            Err(StorageError::Malformed(_))
        ));
    }

    #[test]
    fn huge_payload_len_hits_eof_not_oom() {
        // A "valid" terabyte-scale section on a tiny file: the full read
        // must fail with a typed error and never allocate the declared
        // size. The index's truncation check fires before any payload
        // buffer is sized, so the error is `Malformed`.
        let buf = raw_container(&[1 << 38], 4 << 38);
        assert!(matches!(read(&buf), Err(StorageError::Malformed(_))));
    }

    #[test]
    fn absurd_crc_block_is_rejected() {
        let mut buf = raw_container(&[4], 16);
        // Rewrite the crc_block field (the final 4 bytes of the raw
        // preamble) with an out-of-bounds value.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(read(&buf), Err(StorageError::Malformed(_))));
        assert!(matches!(
            ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)),
            Err(StorageError::Malformed(_))
        ));
    }

    #[test]
    fn index_seek_overflow_is_malformed_not_wrapped() {
        // payload_len near u64::MAX used to wrap negative through the
        // `as i64` cast and seek *backwards*; it must be rejected.
        let buf = raw_container(&[4], u64::MAX);
        assert!(matches!(
            ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)),
            Err(StorageError::Malformed(_))
        ));
    }

    #[test]
    fn index_detects_truncated_final_payload() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // Chop off most of the final section's payload: the skip-seek
        // lands past EOF, which must surface as Malformed, not Ok.
        buf.truncate(buf.len() - 16);
        assert!(ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).is_err());
    }

    mod range_read_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A verified range read agrees byte-for-byte with slicing a
            /// full `Container::read_from`, over random shapes, dtypes
            /// (including fp16/bf16) and ranges — with the empty and full
            /// ranges checked on every case.
            #[test]
            fn prop_range_read_matches_full_read_slice(
                dims in prop::collection::vec(1usize..12, 1..4),
                dtype_sel in 0usize..3,
                pick in 0.0f64..1.0,
                span in 0.0f64..1.0,
            ) {
                let dtype = [DType::F32, DType::F16, DType::BF16][dtype_sel];
                let shape = Shape::new(dims);
                let total = shape.num_elements();
                let rng = DetRng::new(0x5EC7 ^ total as u64);
                let t = Tensor::randn(shape, 1.0, &rng.derive("t")).cast(dtype);
                let mut c = Container::new("{}");
                c.push("w", t);
                let mut buf = Vec::new();
                c.write_to(&mut buf).unwrap();
                let full = read(&buf).unwrap();
                let full: Vec<f32> = full.sections[0].tensor.flatten().as_slice().to_vec();
                let mut cur = std::io::Cursor::new(&buf);
                let index = ContainerIndex::read_from(&mut cur).unwrap();
                let start = ((pick * total as f64) as usize).min(total);
                let len = ((span * (total - start + 1) as f64) as usize).min(total - start);
                for range in [start..start + len, 0..0, 0..total] {
                    let got = read_range(&index, &mut cur, "w", range.clone())
                        .unwrap();
                    prop_assert_eq!(got.num_elements(), range.len());
                    prop_assert_eq!(got.dtype(), dtype);
                    for (g, w) in got.as_slice().iter().zip(&full[range]) {
                        prop_assert_eq!(g.to_bits(), w.to_bits());
                    }
                }
            }

            /// Flipping one random byte inside a payload fails exactly
            /// the range reads that cover the flipped block — ranges
            /// entirely outside it still load.
            #[test]
            fn prop_corrupt_block_only_fails_covering_ranges(
                elems in 200usize..900,
                victim in 0.0f64..1.0,
            ) {
                let rng = DetRng::new(elems as u64);
                let t = Tensor::randn([elems], 1.0, &rng.derive("t"));
                let mut c = Container::new("{}");
                c.push("w", t);
                let mut buf = Vec::new();
                c.write_to(&mut buf).unwrap();
                let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
                let info = index.get("w").unwrap().clone();
                let byte = ((victim * info.payload_len as f64) as usize)
                    .min(info.payload_len as usize - 1);
                buf[info.payload_offset as usize + byte] ^= 0x40;
                let cb_elems = info.crc_block as usize / 4;
                let bad_block = byte / info.crc_block as usize;
                let mut cur = std::io::Cursor::new(&buf);
                // Any range covering the corrupt element must error...
                let bad = read_range(&index, &mut cur, "w", byte / 4..byte / 4 + 1);
                prop_assert!(matches!(bad, Err(StorageError::ChecksumMismatch { .. })));
                // ...while ranges confined to other blocks stay readable.
                let clean_block = if bad_block == 0 { 1 } else { 0 };
                let clean = read_range(&index,
                    &mut cur,
                    "w",
                    clean_block * cb_elems..(clean_block + 1) * cb_elems,
                );
                prop_assert!(clean.is_ok());
            }
        }
    }

    /// What the container encoded in `bytes` reads back as, held to
    /// `orig`, the container it was encoded from: the full read, and an
    /// index read followed by a whole and a partial range read of every
    /// section it lists, each yield `orig`'s values bit for bit or a typed
    /// error. Returns whether the full read succeeded.
    fn reads_original_or_fails(bytes: &[u8], orig: &Container, ctx: &str) -> bool {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let full = read(bytes);
        if let Ok(back) = &full {
            assert_eq!(back.header, orig.header, "{ctx}");
            assert_eq!(back.sections.len(), orig.sections.len(), "{ctx}");
            for (got, want) in back.sections.iter().zip(&orig.sections) {
                assert_eq!(got.name, want.name, "{ctx}");
                assert_eq!(got.tensor.dtype(), want.tensor.dtype(), "{ctx}");
                assert!(got.tensor.bitwise_eq(&want.tensor), "{ctx}: {}", want.name);
            }
        }
        let mut cur = std::io::Cursor::new(bytes);
        if let Ok(index) = ContainerIndex::read_from(&mut cur) {
            for info in &index.sections {
                let total = info.num_elements();
                for range in [0..total, total / 2..total] {
                    let Ok(got) = read_range(&index, &mut cur, &info.name, range.clone()) else {
                        continue;
                    };
                    let want = orig.get(&info.name);
                    let want = want.unwrap_or_else(|| panic!("{ctx}: read {:?}", info.name));
                    assert_eq!(got.dtype(), want.dtype(), "{ctx}: {}", info.name);
                    let want = &want.as_slice()[range];
                    assert_eq!(bits(got.as_slice()), bits(want), "{ctx}: {}", info.name);
                }
            }
        }
        full.is_ok()
    }

    /// Exhaustive single-byte substitution — every byte of `sample()`,
    /// which holds fp32, bf16 and rank-0 sections, replaced by each of the
    /// other 255 values — and every truncation: each reads back as the
    /// original values or a typed error, never as other values, a panic or
    /// an absurd allocation. A truncated file never reads.
    #[test]
    fn byte_substitutions_read_original_values_or_a_typed_error() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let mut mutated = buf.clone();
        for i in 0..buf.len() {
            for v in (0..=u8::MAX).filter(|&v| v != buf[i]) {
                mutated[i] = v;
                reads_original_or_fails(&mutated, &c, &format!("byte {i} = {v:#04x}"));
            }
            mutated[i] = buf[i];
        }
        for n in 0..buf.len() {
            let ctx = format!("truncated to {n} bytes");
            assert!(!reads_original_or_fails(&buf[..n], &c, &ctx), "{ctx}");
            let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf[..n]));
            assert!(index.is_err(), "{ctx}");
        }
    }

    /// Format pin: the encoder writes exactly what the layout table in the
    /// module doc says ([`write_by_hand`]), and those bytes are fixed, so
    /// writer and reader cannot drift together unnoticed.
    #[test]
    fn encoded_bytes_are_pinned() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert!(buf == write_by_hand(&c), "encoder departs from the layout");
        assert_eq!((buf.len(), crc32c(&buf)), (246, 0xad87_af1e));
        let big = big_sample();
        let mut buf = Vec::new();
        big.write_to(&mut buf).unwrap();
        assert!(buf == write_by_hand(&big), "multi-block sections");
    }

    /// Sections longer than one encode chunk, in each dtype: the payload
    /// the chunked encoder wrote (fp32 from the byte view, 16-bit a chunk
    /// at a time) equals the elements encoded one by one (`DType::encode`
    /// is itself held to `to_le_bytes()` in `ucp-tensor`), and reads back
    /// bit for bit.
    #[test]
    fn multi_chunk_sections_match_the_per_element_encoding() {
        let n = 2 * ENCODE_CHUNK_ELEMS + 4321;
        let mut c = Container::new("{}");
        for dtype in [DType::F32, DType::BF16, DType::F16] {
            let t = Tensor::randn([n], 3.0, &DetRng::new(77).derive(&dtype.to_string()));
            c.push(dtype.to_string(), t.cast(dtype));
        }
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let index = ContainerIndex::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        for (info, section) in index.sections.iter().zip(&c.sections) {
            let mut want = Vec::new();
            for v in section.tensor.as_slice() {
                info.dtype.encode(std::slice::from_ref(v), &mut want);
            }
            let at = info.payload_offset as usize;
            assert!(buf[at..at + want.len()] == want[..], "{}", info.name);
        }
        let back = read(&buf).unwrap();
        for (orig, read) in c.sections.iter().zip(&back.sections) {
            assert!(orig.tensor.bitwise_eq(&read.tensor), "{}", orig.name);
        }
    }

    #[test]
    fn encoder_rejects_values_that_do_not_fill_dims() {
        let section = SectionRef {
            name: "w",
            dtype: DType::F32,
            dims: &[3],
            data: &[1.0, 2.0],
        };
        assert!(matches!(
            encode(&mut Vec::new(), "{}", &[section]),
            Err(StorageError::Malformed(_))
        ));
    }
}
