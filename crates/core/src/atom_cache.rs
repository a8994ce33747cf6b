//! A load-session cache of atom-checkpoint contents, keyed by
//! `(parameter, atom file)` and filled by verified section-range reads.
//!
//! The ranged load path asks for exactly the element runs a rank's shard
//! needs. This cache turns those requests into block-aligned disk reads
//! ([`ucp_storage::ContainerIndex::read_section_range`]) and remembers the
//! decoded values, so when several ranks of one load session need the same
//! atom ranges — every DP replica of a (tp, pp) slice reads the same fp32
//! shard — the bytes are fetched once and served from memory afterwards.
//!
//! Bookkeeping (telemetry counters, see `docs` in DESIGN.md):
//!
//! - `load/bytes_needed` — exact bytes of every requested range, hits
//!   included. The denominator of the read-amplification ratio.
//! - `load/bytes_read` — bytes actually fetched from disk (block-aligned
//!   payload spans plus their CRC table entries). The numerator.
//! - `load/cache_hits` / `load/cache_misses` — requests served entirely
//!   from memory vs. requests that touched disk.
//! - `load/cache_hit_bytes` — exact bytes of the fully-cached requests.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

use ucp_storage::layout::{self, AtomFile};
use ucp_storage::{container, ContainerIndex, Device, RangeScratch};
use ucp_tensor::{DType, Shape};

use crate::util::par_map;
use crate::{Result, UcpError};

/// What fetching one coalesced gap produced.
enum GapOutcome {
    /// Decoded values, plus the bytes the fetch cost on disk (payload
    /// span + CRC table entries).
    Fetched(Vec<f32>, u64),
    /// Block-granular checksum mismatch — not fatal: the orchestrator
    /// falls back to one whole-section read verified against the
    /// independent whole-payload CRC.
    Mismatch(String),
}

/// Decoded, disjoint, non-adjacent element intervals of one atom section,
/// plus the container index needed to fetch more of it.
struct AtomEntry {
    /// Lazily-built index of the atom's container file.
    index: Option<ContainerIndex>,
    /// Cached intervals: start element → decoded values. Every boundary is
    /// CRC-block-aligned (or clamped to the section end), so uncovered
    /// gaps are block-aligned too and fetches never re-read cached bytes.
    intervals: BTreeMap<usize, Vec<f32>>,
}

/// Atom entries keyed by (parameter name, atom file kind), each behind
/// its own lock so concurrent workers fetching different atoms never
/// serialize on each other.
type EntryMap = HashMap<(String, AtomFile), Arc<Mutex<AtomEntry>>>;

/// Shared cache of atom contents for one load session. Cheap to create;
/// share one across the ranks of a load fan-out via
/// [`crate::load::LoadSession`].
#[derive(Default)]
pub struct AtomCache {
    entries: Mutex<EntryMap>,
}

impl AtomCache {
    /// An empty cache.
    pub fn new() -> AtomCache {
        AtomCache::default()
    }

    /// Fetch `ranges` (element ranges of the flattened atom) of `file` for
    /// parameter `name`, reading through `device` whatever is not cached
    /// yet. Returns the section dtype and one decoded vector per requested
    /// range, in order. `expected_shape` is checked against the section
    /// header before anything is decoded.
    pub fn fetch(
        &self,
        universal_dir: &Path,
        name: &str,
        file: AtomFile,
        expected_shape: &Shape,
        ranges: &[Range<usize>],
        device: &Device,
    ) -> Result<(DType, Vec<Vec<f32>>)> {
        let entry = self.entry(name, file);
        let mut entry = entry.lock().expect("atom cache entry poisoned");
        let path = layout::atom_path(universal_dir, name, file);
        let key = file.state_key();

        if entry.index.is_none() {
            let mut r = device.reader(container::open(&path)?);
            entry.index = Some(ContainerIndex::read_from(&mut r)?);
        }
        let info = entry
            .index
            .as_ref()
            .expect("index populated above")
            .get(key)
            .ok_or_else(|| UcpError::Inconsistent(format!("atom {name} missing {key}")))?;
        if &info.shape != expected_shape {
            return Err(UcpError::Inconsistent(format!(
                "atom {name} has shape {}, expected {}",
                info.shape, expected_shape
            )));
        }
        let total = info.num_elements();
        let dtype = info.dtype;
        // Elements per CRC block; v1 sections have no block table, so the
        // whole section is the fetch unit (cached in full on first touch).
        let block_elems = if info.crc_block == 0 {
            total.max(1)
        } else {
            info.crc_block as usize / dtype.size_bytes()
        };
        let esize = dtype.size_bytes() as u64;

        // Plan: align each requested range outward to block boundaries and
        // subtract what the cache already holds, then coalesce the missing
        // pieces so adjacent/overlapping requests become one disk read.
        let mut needed_bytes = 0u64;
        let mut hits = 0u64;
        let mut hit_bytes = 0u64;
        let mut misses = 0u64;
        let mut missing: Vec<Range<usize>> = Vec::new();
        for r in ranges {
            if r.start >= r.end {
                continue;
            }
            if r.end > total {
                return Err(UcpError::Inconsistent(format!(
                    "atom {name} {key}: range {}..{} out of bounds for {total} elements",
                    r.start, r.end
                )));
            }
            needed_bytes += (r.end - r.start) as u64 * esize;
            let aligned = (r.start / block_elems * block_elems)
                ..r.end
                    .div_ceil(block_elems)
                    .saturating_mul(block_elems)
                    .min(total);
            let gaps = entry.uncovered(&aligned);
            if gaps.is_empty() {
                hits += 1;
                hit_bytes += (r.end - r.start) as u64 * esize;
            } else {
                misses += 1;
                missing.extend(gaps);
            }
        }
        missing.sort_by_key(|r| r.start);
        missing.dedup();
        let mut coalesced: Vec<Range<usize>> = Vec::new();
        for r in missing {
            match coalesced.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => coalesced.push(r),
            }
        }

        if !coalesced.is_empty() {
            let _sp = ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Load, "atom_fetch");
            let payload_len = info.payload_len;

            // Fan the coalesced gaps out over the device's fetch pool.
            // Each worker holds one file handle and one scratch buffer for
            // its whole stripe of gaps; every gap is attempted regardless
            // of pool size, so decoded state and `load/bytes_read` are
            // identical from the serial path to any pool width.
            let pool = device.fetch_pool().min(coalesced.len()).max(1);
            let index = entry.index.as_ref().expect("index populated above");
            let info = index.get(key).expect("section checked above");
            let gaps = &coalesced;
            let stripes = par_map(pool, pool, |w| {
                let mut r = device.reader(container::open(&path)?);
                let mut scratch = RangeScratch::default();
                let mut out = Vec::new();
                for (i, gap) in gaps.iter().enumerate().skip(w).step_by(pool) {
                    // Payload span plus the CRC table entries covering it.
                    let gap_bytes = info.range_read_bytes(gap)
                        + if info.crc_block == 0 {
                            4
                        } else {
                            4 * ((gap.end as u64 * esize).div_ceil(info.crc_block as u64)
                                - gap.start as u64 * esize / info.crc_block as u64)
                        };
                    match index.read_section_range_with(&mut r, key, gap.clone(), &mut scratch) {
                        Ok(tensor) => out.push((
                            i,
                            GapOutcome::Fetched(tensor.as_slice().to_vec(), gap_bytes),
                        )),
                        Err(ucp_storage::StorageError::ChecksumMismatch { what }) => {
                            out.push((i, GapOutcome::Mismatch(what)));
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                Ok(out)
            })?;
            let mut outcomes: Vec<Option<GapOutcome>> =
                (0..coalesced.len()).map(|_| None).collect();
            for (i, o) in stripes.into_iter().flatten() {
                outcomes[i] = Some(o);
            }
            let mut read_bytes: u64 = outcomes
                .iter()
                .map(|o| match o {
                    Some(GapOutcome::Fetched(_, b)) => *b,
                    _ => 0,
                })
                .sum();
            let mismatch = outcomes.iter().find_map(|o| match o {
                Some(GapOutcome::Mismatch(what)) => Some(what.clone()),
                _ => None,
            });
            if let Some(what) = mismatch {
                // Graceful degradation: a block-granular mismatch may mean
                // the *table* is damaged, not the data. Re-read the whole
                // section verified against its independent whole-payload
                // CRC; only if that fails too is the atom truly corrupt.
                eprintln!(
                    "warning: atom {name} {key}: ranged read failed \
                     ({what}); falling back to a whole-section read"
                );
                if ucp_telemetry::enabled() {
                    ucp_telemetry::count("load/ranged_fallback", 1);
                }
                let mut r = device.reader(container::open(&path)?);
                let full = {
                    let index = entry.index.as_ref().expect("index populated above");
                    index.read_section_lenient(&mut r, key)?
                };
                read_bytes += payload_len + 4;
                entry.intervals.clear();
                entry.insert(0, full.as_slice().to_vec());
            } else {
                for (gap, o) in coalesced.iter().zip(outcomes) {
                    if let Some(GapOutcome::Fetched(vals, _)) = o {
                        entry.insert(gap.start, vals);
                    }
                }
            }
            if ucp_telemetry::enabled() {
                ucp_telemetry::count("load/bytes_read", read_bytes);
            }
        }
        if ucp_telemetry::enabled() {
            ucp_telemetry::count("load/bytes_needed", needed_bytes);
            ucp_telemetry::count("load/cache_hits", hits);
            ucp_telemetry::count("load/cache_misses", misses);
            ucp_telemetry::count("load/cache_hit_bytes", hit_bytes);
        }

        // Assemble the answers from cached intervals.
        let mut out = Vec::with_capacity(ranges.len());
        for r in ranges {
            out.push(entry.gather(r));
        }
        Ok((dtype, out))
    }

    fn entry(&self, name: &str, file: AtomFile) -> Arc<Mutex<AtomEntry>> {
        let mut map = self.entries.lock().expect("atom cache poisoned");
        map.entry((name.to_string(), file))
            .or_insert_with(|| {
                Arc::new(Mutex::new(AtomEntry {
                    index: None,
                    intervals: BTreeMap::new(),
                }))
            })
            .clone()
    }
}

impl AtomEntry {
    /// Sub-ranges of `r` not covered by any cached interval.
    fn uncovered(&self, r: &Range<usize>) -> Vec<Range<usize>> {
        let mut gaps = Vec::new();
        let mut cursor = r.start;
        for (&start, vals) in self.intervals.range(..r.end) {
            let end = start + vals.len();
            if end <= cursor {
                continue;
            }
            if start > cursor {
                gaps.push(cursor..start.min(r.end));
            }
            cursor = cursor.max(end);
            if cursor >= r.end {
                break;
            }
        }
        if cursor < r.end {
            gaps.push(cursor..r.end);
        }
        gaps
    }

    /// Insert a fetched interval, merging with adjacent cached neighbours
    /// so the map stays disjoint and non-adjacent.
    fn insert(&mut self, start: usize, mut vals: Vec<f32>) {
        let mut start = start;
        // Merge with a predecessor that touches our start.
        if let Some((&ps, pv)) = self.intervals.range(..=start).next_back() {
            if ps + pv.len() == start {
                let mut merged = self.intervals.remove(&ps).expect("present");
                merged.append(&mut vals);
                start = ps;
                vals = merged;
            }
        }
        // Merge with a successor that starts at our end.
        if let Some(mut next) = self.intervals.remove(&(start + vals.len())) {
            vals.append(&mut next);
        }
        self.intervals.insert(start, vals);
    }

    /// Copy `r` out of the cached intervals. Callers only gather ranges
    /// whose aligned cover was fetched above, so coverage is total.
    fn gather(&self, r: &Range<usize>) -> Vec<f32> {
        let n = r.end.saturating_sub(r.start);
        let mut out = vec![0.0f32; n];
        if n == 0 {
            return out;
        }
        for (&start, vals) in self.intervals.range(..r.end) {
            let end = start + vals.len();
            if end <= r.start {
                continue;
            }
            let lo = r.start.max(start);
            let hi = r.end.min(end);
            out[lo - r.start..hi - r.start].copy_from_slice(&vals[lo - start..hi - start]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_with(intervals: &[(usize, usize)]) -> AtomEntry {
        let mut e = AtomEntry {
            index: None,
            intervals: BTreeMap::new(),
        };
        for &(start, len) in intervals {
            e.intervals
                .insert(start, (start..start + len).map(|v| v as f32).collect());
        }
        e
    }

    #[test]
    fn uncovered_finds_gaps_between_intervals() {
        let e = entry_with(&[(10, 10), (30, 10)]);
        assert_eq!(e.uncovered(&(0..50)), vec![0..10, 20..30, 40..50]);
        assert_eq!(e.uncovered(&(12..18)), Vec::<Range<usize>>::new());
        assert_eq!(e.uncovered(&(15..35)), vec![20..30]);
        assert_eq!(e.uncovered(&(40..45)), vec![40..45]);
    }

    #[test]
    fn insert_merges_adjacent_intervals() {
        let mut e = entry_with(&[(0, 10), (20, 10)]);
        e.insert(10, (10..20).map(|v| v as f32).collect());
        assert_eq!(e.intervals.len(), 1);
        let vals = &e.intervals[&0];
        assert_eq!(vals.len(), 30);
        assert!(vals.iter().enumerate().all(|(i, v)| *v == i as f32));
    }

    #[test]
    fn gather_stitches_across_intervals() {
        let mut e = entry_with(&[(0, 10)]);
        e.insert(10, (10..25).map(|v| v as f32).collect());
        let got = e.gather(&(5..20));
        assert_eq!(got, (5..20).map(|v| v as f32).collect::<Vec<_>>());
    }
}
