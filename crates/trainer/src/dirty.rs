//! Dirty-fragment tracking for per-iteration checkpoint cadence.
//!
//! Lazy AdamW ([`ucp_optim::AdamState::step`]) leaves zero-gradient
//! elements bitwise untouched — no moment decay, no weight decay. The
//! tracker exploits that: every iteration it scans the all-reduced flat
//! gradient and marks the *blocks* containing any non-zero element dirty.
//! At snapshot time the accumulated dirty set rides along with the
//! snapshot; the save pipeline then sends only dirty sub-fragments over
//! the exchange, and atoms that received no fragments anywhere are
//! republished as hard links to the prior universal step's files.
//!
//! Soundness: the full flat gradient is identical on every ZeRO rank of a
//! (tp, pp) slice (the trainer all-reduces the *whole* flat buffer before
//! chunking), so all contributors of a slice agree on what is dirty, and
//! a block the tracker calls clean had exactly-zero gradient on every
//! iteration since the last snapshot — lazy Adam therefore left master
//! and both moments bitwise unchanged. Dirtiness is computed *before* the
//! f64→f32 gradient cast, so an element whose f64 gradient underflows the
//! cast is conservatively dirty (a lost skip, never a lost write).
//!
//! Granularity: [`ucp_model::ParamSpec::blocks`] blocks per parameter —
//! one per MoE expert for the expert weights (their flat slot is
//! `[E, rows, cols]`, contiguous per expert — the top-k router leaves
//! unrouted experts' gradients exactly zero), one block otherwise. The
//! same field splits the parameter into sub-atoms on disk, so a clean
//! block here is a hard-linked file there.

use std::collections::HashMap;

use ucp_model::{param_specs, ModelConfig};
use ucp_parallel::{FlatLayout, ParamSlot};

/// Dirty ranges per parameter, in the parameter's shard-flat coordinates
/// (the same space as [`ucp_core::ops::Fragment::param_offset`]). Sorted,
/// non-overlapping, non-empty. A parameter absent from the map is clean.
pub type DirtyMap = HashMap<String, Vec<(usize, usize)>>;

/// One piece of a ZeRO rank's chunk that a [`DirtyMap`] marks dirty.
pub(crate) struct DirtyPiece<'a> {
    /// The parameter it belongs to.
    pub slot: &'a ParamSlot,
    /// Where it starts in the parameter's flattened shard.
    pub param_offset: usize,
    /// Where it starts in the rank's chunk.
    pub chunk_offset: usize,
    /// Elements.
    pub len: usize,
}

/// Intersect `dirty`'s parameter-space ranges with ZeRO rank `dp`'s
/// fragments of `layout`: the only elements of that rank's chunk lazy Adam
/// touched since the tracker was drained, in slot, then fragment, then
/// range order. `None` dirty info is everything (a full save); a parameter
/// absent from the map is clean everywhere and contributes nothing.
pub(crate) fn dirty_pieces<'a>(
    layout: &'a FlatLayout,
    dp: usize,
    dirty: Option<&DirtyMap>,
) -> Vec<DirtyPiece<'a>> {
    let mut pieces = Vec::new();
    for slot in &layout.slots {
        let whole = [(0, slot.len)];
        let ranges = match dirty {
            None => &whole[..],
            Some(map) => match map.get(&slot.name) {
                Some(ranges) => ranges,
                None => continue,
            },
        };
        for f in layout.fragments_of(slot) {
            if f.dp_rank != dp {
                continue;
            }
            for &(lo, len) in ranges {
                let start = lo.max(f.param_offset);
                let end = (lo + len).min(f.param_offset + f.len);
                if start < end {
                    pieces.push(DirtyPiece {
                        slot,
                        param_offset: start,
                        chunk_offset: f.chunk_offset + (start - f.param_offset),
                        len: end - start,
                    });
                }
            }
        }
    }
    pieces
}

struct SlotDirt {
    name: String,
    /// Slot start in the rank's flat buffer.
    start: usize,
    /// Real (unpadded) element count.
    len: usize,
    /// Block granularity in elements.
    block: usize,
    flags: Vec<bool>,
}

/// Accumulates per-block dirtiness between checkpoint boundaries.
pub struct DirtyTracker {
    slots: Vec<SlotDirt>,
}

impl DirtyTracker {
    /// Build the tracker for one rank's flat layout. All blocks start
    /// dirty so the first save after construction (or restart) sends the
    /// complete state.
    pub fn new(layout: &FlatLayout, model: &ModelConfig) -> DirtyTracker {
        let spec_blocks: HashMap<String, usize> = param_specs(model)
            .into_iter()
            .map(|spec| (spec.name, spec.blocks))
            .collect();
        let slots = layout
            .slots
            .iter()
            .map(|s| {
                // The spec's blocks are slices of the leading dimension;
                // they are the shard's too as long as TP left it whole.
                let split = spec_blocks.get(&s.name).copied().unwrap_or(1);
                let leading = s.shape.dims().first().copied().unwrap_or(0);
                let block = if split > 1 && s.len > 0 && leading % split == 0 {
                    s.len / split
                } else {
                    s.len.max(1)
                };
                let blocks = s.len.div_ceil(block).max(1);
                SlotDirt {
                    name: s.name.clone(),
                    start: s.offset,
                    len: s.len,
                    block,
                    flags: vec![true; blocks],
                }
            })
            .collect();
        DirtyTracker { slots }
    }

    /// Scan one iteration's all-reduced flat gradient (the full buffer,
    /// `layout.total_len` long) and mark blocks containing any non-zero
    /// element. Call once per optimizer step, before the state is mutated.
    pub fn observe_grads(&mut self, flat: &[f64]) {
        for slot in &mut self.slots {
            let data = &flat[slot.start..slot.start + slot.len];
            for (bi, flag) in slot.flags.iter_mut().enumerate() {
                if *flag {
                    continue;
                }
                let lo = bi * slot.block;
                let hi = (lo + slot.block).min(slot.len);
                if data[lo..hi].iter().any(|&g| g != 0.0) {
                    *flag = true;
                }
            }
        }
    }

    /// Collect the accumulated dirty set as per-parameter ranges and reset
    /// every flag to clean — the caller owns shipping the returned map
    /// with the snapshot it was taken for.
    pub fn take(&mut self) -> DirtyMap {
        let mut map = DirtyMap::new();
        for slot in &mut self.slots {
            let mut ranges: Vec<(usize, usize)> = Vec::new();
            for (bi, flag) in slot.flags.iter_mut().enumerate() {
                if !*flag {
                    continue;
                }
                *flag = false;
                let lo = bi * slot.block;
                let hi = (lo + slot.block).min(slot.len);
                match ranges.last_mut() {
                    // Merge adjacent dirty blocks into one range.
                    Some((start, len)) if *start + *len == lo => *len += hi - lo,
                    _ => ranges.push((lo, hi - lo)),
                }
            }
            if !ranges.is_empty() {
                map.insert(slot.name.clone(), ranges);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_tensor::Shape;

    /// A dense parameter and an expert weight of [`moe_cfg`] (two
    /// experts, three elements each).
    const EXPERTS: &str = "layers.0.moe.experts.dense_4h_to_h.weight";

    fn layout() -> FlatLayout {
        FlatLayout::build(
            &[
                ("a.weight".to_string(), Shape::new([4])),
                (EXPERTS.to_string(), Shape::new([2, 3, 1])),
            ],
            1,
            1,
        )
    }

    fn moe_cfg() -> ModelConfig {
        let mut m = ModelConfig::gpt3_tiny();
        m.num_experts = 2;
        m
    }

    #[test]
    fn first_take_is_fully_dirty_then_clean() {
        let l = layout();
        let mut t = DirtyTracker::new(&l, &moe_cfg());
        let map = t.take();
        assert_eq!(map["a.weight"], vec![(0, 4)]);
        // Adjacent dirty expert blocks merge into one range.
        assert_eq!(map[EXPERTS], vec![(0, 6)]);
        assert!(t.take().is_empty(), "take resets to clean");
    }

    #[test]
    fn per_expert_blocks_track_independently() {
        let l = layout();
        let mut t = DirtyTracker::new(&l, &moe_cfg());
        t.take();
        // Gradient hits only expert 1 of the MoE slot (flat offsets 4..10
        // are the expert param; expert 1 is its second half).
        let mut flat = vec![0.0f64; l.total_len];
        flat[l.slot(EXPERTS).unwrap().offset + 4] = 0.5;
        t.observe_grads(&flat);
        let map = t.take();
        assert!(!map.contains_key("a.weight"));
        assert_eq!(map[EXPERTS], vec![(3, 3)]);
    }

    #[test]
    fn dense_param_dirties_whole_slot() {
        let l = layout();
        let mut t = DirtyTracker::new(&l, &moe_cfg());
        t.take();
        let mut flat = vec![0.0f64; l.total_len];
        flat[2] = -1.0;
        t.observe_grads(&flat);
        let map = t.take();
        assert_eq!(map["a.weight"], vec![(0, 4)]);
    }

    #[test]
    fn dirtiness_accumulates_across_iterations_until_taken() {
        let l = layout();
        let mut t = DirtyTracker::new(&l, &moe_cfg());
        t.take();
        let mut flat = vec![0.0f64; l.total_len];
        flat[0] = 1.0;
        t.observe_grads(&flat);
        // A later all-zero iteration must not wash out earlier dirtiness.
        t.observe_grads(&vec![0.0f64; l.total_len]);
        assert!(t.take().contains_key("a.weight"));
    }
}
