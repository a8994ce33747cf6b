//! A load-session cache of atom-checkpoint contents, keyed by atom file
//! and filled by verified section-range reads.
//!
//! The ranged load path asks for exactly the element runs a rank's shard
//! needs. This cache turns those requests into positioned, block-aligned
//! disk reads ([`ucp_storage::SectionInfo::read_range_at`]) and remembers
//! the decoded values, so when several ranks of one load session need the
//! same atom — every DP replica of a (tp, pp) slice reads the same fp32
//! shard, TP peers interleave their runs in the same rows — each byte is
//! fetched once and served from memory afterwards.
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
use ucp_storage::{ContainerIndex, Device, RangeScratch, StorageError};
use ucp_tensor::{DType, Shape};

use crate::{Result, UcpError};

/// Decoded, disjoint element intervals of one atom section: start element
/// → values. Every boundary is CRC-block-aligned (or clamped to the section
/// end), so uncovered gaps are block-aligned too and a fetch never re-reads
/// cached bytes.
#[derive(Default)]
struct Intervals(BTreeMap<usize, Vec<f32>>);

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

    /// Copy `runs` of `file` for parameter `name` — of its sub-atom `part`
    /// when the parameter is split — into `dst`, reading whatever is not
    /// cached yet. A run is `(offset in dst, element range of the flattened
    /// (sub-)atom)`. Returns the section dtype. `expected_shape` is checked
    /// against the section header before anything is read.
    ///
    /// A fetch that is one contiguous piece reads exactly its block-aligned
    /// range. A fetch left with several gaps is a strided shard — the gaps
    /// between its runs are its TP peers' runs, and the session serves them
    /// too — so it reads the span that covers the runs and one stride
    /// either side, minus what is cached, and caches all of it: the peers
    /// hit memory. Either way a piece is one data read, one table read and
    /// one CRC pass straight into the interval that caches it, never more
    /// than the section, and nothing unverified is ever served.
    pub fn fetch(
        &self,
        name: &str,
        part: Option<usize>,
        file: AtomFile,
        expected_shape: &Shape,
        runs: &[(usize, Range<usize>)],
        dst: &mut [f32],
    ) -> Result<DType> {
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
        let mut entry = entry.lock().expect("atom cache entry poisoned");
        let key = file.state_key();
        // The fetch's file handle, opened on the first byte it needs from
        // disk: one open and one throttle clock per fetch that touches
        // disk, none on a cache hit.
        let open =
            || -> Result<Throttled<File>> { Ok(self.device.reader(container::open_file(&path)?)) };
        let mut handle = None;

        if entry.index.is_none() {
            entry.index = Some(ContainerIndex::read_head(handle.insert(open()?))?);
        }
        let AtomEntry { index, cached } = &mut *entry;
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
        for (_, r) in runs {
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
                let mut start = piece.start;
                let mut vals = vec![0.0f32; piece.len()];
                let mut verified = info.read_range_at(r, piece.clone(), &mut scratch, &mut vals);
                if matches!(verified, Err(StorageError::ChecksumMismatch { .. }))
                    && piece.len() < total
                {
                    // Graceful degradation: a block mismatch on part of a
                    // section may mean the *table* is damaged, not the
                    // data. Read the whole section, where the read body
                    // settles a mismatch against the independent
                    // whole-payload CRC; only if that fails too is the
                    // atom truly corrupt.
                    (start, vals) = (0, vec![0.0f32; total]);
                    verified = info.read_range_at(r, 0..total, &mut scratch, &mut vals);
                }
                if verified? == Verified::Whole {
                    eprintln!(
                        "warning: atom {} {key}: block CRCs disagree but the \
                         whole-payload CRC holds; served from a whole-section read",
                        atom()
                    );
                    if ucp_telemetry::enabled() {
                        ucp_telemetry::count("load/ranged_fallback", 1);
                    }
                }
                if vals.len() == total {
                    // The whole section supersedes every cached interval
                    // and every remaining piece.
                    cached.0.clear();
                    cached.0.insert(0, vals);
                    break;
                }
                cached.0.insert(start, vals);
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

        for (offset, r) in runs.iter().filter(|(_, r)| !r.is_empty()) {
            cached.gather(r, &mut dst[*offset..*offset + r.len()]);
        }
        Ok(dtype)
    }
}

impl Intervals {
    /// Cached intervals that may overlap `r`, ascending: from the last one
    /// starting at or before `r.start` to the last one starting inside `r`.
    fn overlapping(&self, r: &Range<usize>) -> impl Iterator<Item = (usize, &[f32])> {
        let from = (self.0.range(..=r.start).next_back()).map_or(r.start, |(&start, _)| start);
        (self.0.range(from..r.end)).map(|(&start, vals)| (start, &vals[..]))
    }

    /// Sub-ranges of `r` not covered by any cached interval.
    fn uncovered(&self, r: &Range<usize>) -> Vec<Range<usize>> {
        let mut gaps = Vec::new();
        let mut cursor = r.start;
        for (start, vals) in self.overlapping(r) {
            if start > cursor {
                gaps.push(cursor..start);
            }
            cursor = cursor.max(start + vals.len());
        }
        if cursor < r.end {
            gaps.push(cursor..r.end);
        }
        gaps
    }

    /// Copy `r` out of the cached intervals into `out`. Callers only gather
    /// ranges whose aligned cover was fetched above, so coverage is total.
    fn gather(&self, r: &Range<usize>, out: &mut [f32]) {
        for (start, vals) in self.overlapping(r) {
            let lo = r.start.max(start);
            let hi = r.end.min(start + vals.len());
            if lo < hi {
                out[lo - r.start..hi - r.start].copy_from_slice(&vals[lo - start..hi - start]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intervals(spans: &[(usize, usize)]) -> Intervals {
        let filled = |&(start, len)| (start, (start..start + len).map(|v| v as f32).collect());
        Intervals(spans.iter().map(filled).collect())
    }

    #[test]
    fn uncovered_finds_gaps_between_intervals() {
        let e = intervals(&[(10, 10), (30, 10)]);
        assert_eq!(e.uncovered(&(0..50)), vec![0..10, 20..30, 40..50]);
        assert_eq!(e.uncovered(&(12..18)), Vec::<Range<usize>>::new());
        assert_eq!(e.uncovered(&(15..35)), vec![20..30]);
        assert_eq!(e.uncovered(&(40..45)), vec![40..45]);
    }

    #[test]
    fn gather_stitches_across_adjacent_intervals() {
        let e = intervals(&[(0, 10), (10, 15), (40, 5)]);
        assert_eq!(e.uncovered(&(5..25)), Vec::<Range<usize>>::new());
        let mut got = vec![0.0; 15];
        e.gather(&(5..20), &mut got);
        assert_eq!(got, (5..20).map(|v| v as f32).collect::<Vec<_>>());
    }
}
