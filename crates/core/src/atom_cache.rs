//! A load-session cache of atom-checkpoint contents, keyed by atom file
//! and filled by verified section-range reads.
//!
//! The ranged load path asks for exactly the element runs a rank's shard
//! needs. This cache turns those requests into positioned, block-aligned
//! disk reads ([`ucp_storage::SectionInfo::read_range_at`]) and remembers
//! what they verified, so when several ranks of one load session need the
//! same atom — every DP replica of a (tp, pp) slice reads the same fp32
//! shard, TP peers interleave their runs in the same rows — each byte is
//! fetched once and served from memory afterwards.
//!
//! A fetch fills its interval once: the read allocates the interval's
//! buffer and lands the span in it with no zeroing pass before, and the
//! interval keeps the verified bytes as they lie in the file
//! ([`ucp_storage::Payload`]: little-endian, in the section's dtype, so a
//! 16-bit atom is cached at two bytes an element). A gather decodes them
//! once, straight into the rank's destination (a `load::Fill`).
//!
//! Bookkeeping (telemetry counters, see `docs` in DESIGN.md):
//!
//! - `load/bytes_needed` — exact bytes of every requested range, hits
//!   included. The denominator of the read-amplification ratio.
//! - `load/bytes_read` — bytes the fetches asked the kernel for: index
//!   reads, block-aligned payload spans and their CRC table entries (what
//!   `/proc/self/io` counts). The numerator.
//! - `load/cache_hits` / `load/cache_misses` — requests served entirely
//!   from memory vs. requests that touched disk.
//! - `load/cache_hit_bytes` — exact bytes of the fully-cached requests.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ucp_storage::container::{self, Verified};
use ucp_storage::io::Throttled;
use ucp_storage::layout::{self, AtomFile};
use ucp_storage::{ContainerIndex, Device, Payload, RangeScratch, StorageError};
use ucp_tensor::{DType, Shape};

use crate::load::Fill;
use crate::{Result, UcpError};

/// Verified, disjoint element intervals of one atom section: start element
/// → the payload bytes read for it. Every boundary is CRC-block-aligned (or
/// clamped to the section end), so uncovered gaps are block-aligned too and
/// a fetch never re-reads cached bytes.
#[derive(Default)]
struct Intervals(BTreeMap<usize, Payload>);

/// One atom file's cached intervals per state section
/// ([`AtomFile::ALL`] order), plus the container index needed to fetch
/// more of them (built on first touch, so an atom's head is read once per
/// session, not once a state).
#[derive(Default)]
struct AtomEntry {
    index: Option<ContainerIndex>,
    cached: [Intervals; 3],
}

/// Atom entries keyed by file ([`layout::atom_file`]: one per (sub-)atom),
/// each behind its own lock so concurrent workers fetching different atoms
/// never serialize on each other.
type EntryMap = HashMap<PathBuf, Arc<Mutex<AtomEntry>>>;

/// Shared cache of atom contents for one load session over one universal
/// directory; [`crate::load::LoadSession`] owns it and loads every rank of
/// a target through it.
pub struct AtomCache {
    universal: PathBuf,
    device: Device,
    entries: Mutex<EntryMap>,
}

impl AtomCache {
    /// An empty cache over `universal_dir`, reading through `device`.
    pub fn new(universal_dir: &Path, device: Device) -> AtomCache {
        AtomCache {
            universal: universal_dir.to_path_buf(),
            device,
            entries: Mutex::default(),
        }
    }

    /// Make `ranges` — element ranges of the flattened (sub-)atom — of
    /// `file` for parameter `name` (of its sub-atom `part` when the
    /// parameter is split) resident in the cache, reading whatever is not
    /// cached yet, and return the (sub-)atom's state to gather them from.
    /// `expected_shape` is checked against the section header before
    /// anything is read.
    ///
    /// A fetch that is one contiguous piece reads exactly its block-aligned
    /// range. A fetch left with several gaps is a strided shard — the gaps
    /// between its ranges are its TP peers' runs, and the session serves
    /// them too — so it reads the span that covers the ranges and one
    /// stride either side, minus what is cached, and caches all of it: the
    /// peers hit memory. Either way a piece is one data read, one table
    /// read and one CRC pass into the fresh interval that caches it, never
    /// more than the section, and nothing unverified is ever cached.
    pub(crate) fn fetch(
        &self,
        name: &str,
        part: Option<usize>,
        file: AtomFile,
        expected_shape: &Shape,
        ranges: &[Range<usize>],
    ) -> Result<CachedState> {
        let path = layout::atom_file(&self.universal, name, part);
        let entry = {
            let mut map = self.entries.lock().expect("atom cache poisoned");
            match map.get(&path) {
                Some(entry) => Arc::clone(entry),
                None => Arc::clone(map.entry(path.clone()).or_default()),
            }
        };
        // What messages call the atom: a sub-atom goes by its part number.
        let atom = || match part {
            Some(part) => format!("{name} part {part:03}"),
            None => name.to_string(),
        };
        let mut guard = entry.lock().expect("atom cache entry poisoned");
        let key = file.state_key();
        // The fetch's file handle, opened on the first byte it needs from
        // disk: one open and one throttle clock per fetch that touches
        // disk, none on a cache hit.
        let open =
            || -> Result<Throttled<File>> { Ok(self.device.reader(container::open_file(&path)?)) };
        let mut handle = None;

        if guard.index.is_none() {
            guard.index = Some(ContainerIndex::read_head(handle.insert(open()?))?);
        }
        let AtomEntry { index, cached } = &mut *guard;
        let cached = &mut cached[file as usize];
        let info = index
            .as_ref()
            .and_then(|index| index.get(key))
            .ok_or_else(|| UcpError::Inconsistent(format!("atom {} missing {key}", atom())))?;
        if &info.shape != expected_shape {
            return Err(UcpError::Inconsistent(format!(
                "atom {} has shape {}, expected {}",
                atom(),
                info.shape,
                expected_shape
            )));
        }
        let total = info.num_elements();
        let dtype = info.dtype;
        let block_elems = info.crc_block as usize / dtype.size_bytes();
        let esize = dtype.size_bytes() as u64;

        // Plan: align each requested range outward to block boundaries and
        // subtract what the cache already holds, then coalesce the missing
        // pieces so adjacent/overlapping requests become one disk read.
        let (mut needed_bytes, mut hits, mut hit_bytes, mut misses) = (0u64, 0u64, 0u64, 0u64);
        let mut missing: Vec<Range<usize>> = Vec::new();
        for r in ranges {
            if r.start >= r.end {
                continue;
            }
            if r.end > total {
                return Err(UcpError::Inconsistent(format!(
                    "atom {} {key}: range {}..{} out of bounds for {total} elements",
                    atom(),
                    r.start,
                    r.end
                )));
            }
            needed_bytes += (r.end - r.start) as u64 * esize;
            let aligned = (r.start / block_elems * block_elems)
                ..r.end
                    .div_ceil(block_elems)
                    .saturating_mul(block_elems)
                    .min(total);
            let gaps = cached.uncovered(&aligned);
            if gaps.is_empty() {
                hits += 1;
                hit_bytes += (r.end - r.start) as u64 * esize;
            } else {
                misses += 1;
                missing.extend(gaps);
            }
        }
        missing.sort_by_key(|r| r.start);
        let mut pieces: Vec<Range<usize>> = Vec::new();
        for r in missing {
            match pieces.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => pieces.push(r),
            }
        }
        if pieces.len() > 1 {
            let n = pieces.len();
            let lead = pieces[1].start - pieces[0].end;
            let trail = pieces[n - 1].start - pieces[n - 2].end;
            let span = pieces[0].start.saturating_sub(lead)..(pieces[n - 1].end + trail).min(total);
            pieces = cached.uncovered(&span);
        }

        if !pieces.is_empty() {
            let _sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Load, "atom_fetch");
            let r = match &mut handle {
                Some(r) => r,
                None => handle.insert(open()?),
            };
            let mut scratch = RangeScratch::default();
            for piece in pieces {
                let mut read = info.read_range_at(r, piece.clone(), &mut scratch);
                if matches!(read, Err(StorageError::ChecksumMismatch { .. })) && piece.len() < total
                {
                    // Graceful degradation: a block mismatch on part of a
                    // section may mean the *table* is damaged, not the
                    // data. Read the whole section, where the read body
                    // settles a mismatch against the independent
                    // whole-payload CRC; only if that fails too is the
                    // atom truly corrupt.
                    read = info.read_range_at(r, 0..total, &mut scratch);
                }
                let (payload, verified) = read?;
                if verified == Verified::Whole {
                    eprintln!(
                        "warning: atom {} {key}: block CRCs disagree but the \
                         whole-payload CRC holds; served from a whole-section read",
                        atom()
                    );
                    if ucp_telemetry::enabled() {
                        ucp_telemetry::count("load/ranged_fallback", 1);
                    }
                }
                if payload.elems().len() == total {
                    // The whole section supersedes every cached interval
                    // and every remaining piece.
                    cached.0.clear();
                    cached.0.insert(0, payload);
                    break;
                }
                cached.0.insert(payload.elems().start, payload);
            }
        }
        if ucp_telemetry::enabled() {
            // What this fetch asked the kernel for — index, payload spans
            // and table slices — is what its handle transferred.
            let read = handle.as_ref().map_or(0, Throttled::bytes_transferred);
            ucp_telemetry::count("load/bytes_read", read);
            ucp_telemetry::count("load/bytes_needed", needed_bytes);
            ucp_telemetry::count("load/cache_hits", hits);
            ucp_telemetry::count("load/cache_misses", misses);
            ucp_telemetry::count("load/cache_hit_bytes", hit_bytes);
        }
        drop(guard);
        Ok(CachedState { entry, file, dtype })
    }
}

/// One (sub-)atom state in a session's cache, as [`AtomCache::fetch`]
/// left it: every range that fetch asked for is resident.
pub(crate) struct CachedState {
    entry: Arc<Mutex<AtomEntry>>,
    file: AtomFile,
    dtype: DType,
}

impl CachedState {
    /// The section's dtype.
    pub(crate) fn dtype(&self) -> DType {
        self.dtype
    }

    /// Decode elements `r` out of the cached intervals onto the end of
    /// `fill`. `r` must lie inside a range the fetch made resident (the
    /// cache never drops an interval, and a whole-section read that
    /// replaces some covers them all); a hole is an error, never a value.
    pub(crate) fn gather(&self, r: Range<usize>, fill: &mut Fill<'_>) -> Result<()> {
        let entry = self.entry.lock().expect("atom cache entry poisoned");
        entry.cached[self.file as usize].gather(r, fill)
    }
}

impl Intervals {
    /// Cached intervals that may overlap `r`, ascending: from the last one
    /// starting at or before `r.start` to the last one starting inside `r`.
    fn overlapping(&self, r: &Range<usize>) -> impl Iterator<Item = (usize, &Payload)> {
        let from = (self.0.range(..=r.start).next_back()).map_or(r.start, |(&start, _)| start);
        (self.0.range(from..r.end)).map(|(&start, payload)| (start, payload))
    }

    /// Sub-ranges of `r` not covered by any cached interval.
    fn uncovered(&self, r: &Range<usize>) -> Vec<Range<usize>> {
        let mut gaps = Vec::new();
        let mut cursor = r.start;
        for (start, payload) in self.overlapping(r) {
            if start > cursor {
                gaps.push(cursor..start);
            }
            cursor = cursor.max(payload.elems().end);
        }
        if cursor < r.end {
            gaps.push(cursor..r.end);
        }
        gaps
    }

    /// Decode elements `r` out of the cached intervals onto the end of
    /// `fill`, front to back. Elements no interval holds are an error, and
    /// nothing is written for them.
    fn gather(&self, r: Range<usize>, fill: &mut Fill<'_>) -> Result<()> {
        let mut cursor = r.start;
        for (start, payload) in self.overlapping(&r) {
            if start > cursor {
                break;
            }
            let hi = r.end.min(payload.elems().end);
            if cursor < hi {
                fill.decode(payload.dtype(), payload.bytes(cursor..hi))?;
                cursor = hi;
            }
        }
        if cursor < r.end {
            return Err(UcpError::Inconsistent(format!(
                "atom cache: elements {cursor}..{} were never fetched",
                r.end
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::filled;
    use ucp_storage::Container;
    use ucp_tensor::Tensor;

    /// A cache over one fp32 section holding `0.0, 1.0, ..`, with the
    /// block-aligned spans `spans` (start, len in elements) fetched into it.
    fn intervals(spans: &[(usize, usize)]) -> Intervals {
        let dir = std::env::temp_dir().join(format!("ucp_atom_cache_{}", std::process::id()));
        let path = dir.join(format!("{spans:?}.ucpt"));
        let values: Vec<f32> = (0..1024).map(|v| v as f32).collect();
        let mut c = Container::new("{}");
        c.push(
            "fp32",
            Tensor::from_vec(values, Shape::new([1024])).unwrap(),
        );
        c.write_file(&path).unwrap();
        let mut file = container::open_file(&path).unwrap();
        let index = ContainerIndex::read_head(&mut file).unwrap();
        let mut scratch = RangeScratch::default();
        let read = |&(start, len): &(usize, usize)| {
            let (payload, _) =
                (index.sections[0].read_range_at(&mut file, start..start + len, &mut scratch))
                    .unwrap();
            assert_eq!(payload.elems(), start..start + len, "block-aligned");
            (start, payload)
        };
        let cached = Intervals(spans.iter().map(read).collect());
        std::fs::remove_dir_all(&dir).ok();
        cached
    }

    #[test]
    fn uncovered_finds_gaps_between_intervals() {
        let e = intervals(&[(64, 64), (192, 64)]);
        assert_eq!(e.uncovered(&(0..320)), vec![0..64, 128..192, 256..320]);
        assert_eq!(e.uncovered(&(70..100)), Vec::<Range<usize>>::new());
        assert_eq!(e.uncovered(&(100..200)), vec![128..192]);
        assert_eq!(e.uncovered(&(256..300)), vec![256..300]);
    }

    #[test]
    fn gather_stitches_across_adjacent_intervals_and_refuses_holes() {
        let e = intervals(&[(0, 64), (64, 128), (256, 64)]);
        assert_eq!(e.uncovered(&(5..150)), Vec::<Range<usize>>::new());
        let gather = |r: Range<usize>| filled(r.len(), |fill| e.gather(r, fill)).map(|(v, ())| v);
        let got = gather(5..150).unwrap();
        assert_eq!(got, (5..150).map(|v| v as f32).collect::<Vec<_>>());
        assert!(gather(150..260).is_err(), "192..256 was never fetched");
        assert!(gather(300..330).is_err(), "past the last interval");
    }
}
