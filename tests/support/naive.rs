//! Algorithm 1 composed naively from Table 2's named operators — the
//! reference every production feed of `core::assemble::StageAssembler` and
//! every load of `core::load` is held to. It shares no code with
//! `core::assemble`, `core::convert` or `core::load`: take every rank's
//! optimizer shard, `union_flat` each parameter of each (tp, pp) slice from
//! its `extract_flat` fragments, `union_tp` the slices by pattern,
//! `strip_padding` to the true shape, index by name. The shards may come
//! from a native step's files ([`hot_shards`]) or from the chunks a
//! target's ranks were loaded with ([`loaded_shards`]): the same code
//! consolidates both sides of a reshard. It holds a whole step in memory
//! several times over; it exists to be obviously right.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::Path;

use ucp_repro::core::checkpoint::{load_optim_states, CommonState, OptimShard};
use ucp_repro::core::language::UcpSpec;
use ucp_repro::core::load::LoadPlan;
use ucp_repro::core::ops::{extract_flat, strip_padding, union_flat, union_tp, Fragment};
use ucp_repro::core::{HotShard, RankState};
use ucp_repro::model::param_specs;
use ucp_repro::parallel::ParallelConfig;
use ucp_repro::tensor::Tensor;

/// Consolidated `[fp32, exp_avg, exp_avg_sq]` per parameter name.
pub type Atoms = BTreeMap<String, [Tensor; 3]>;

/// Every rank's native optimizer shard of the step in `step_dir`, as the
/// hot tier would hold them.
pub fn hot_shards(step_dir: &Path) -> Vec<HotShard> {
    let src = load_optim_states(step_dir, 0, 0, 0).unwrap().0.parallel;
    let mut shards = Vec::new();
    for pp in 0..src.pp {
        for tp in 0..src.tp {
            for zi in 0..src.dp * src.sp {
                let (common, shard) = load_optim_states(step_dir, zi, tp, pp).unwrap();
                shards.push(HotShard {
                    common,
                    tp,
                    pp,
                    shard,
                });
            }
        }
    }
    shards
}

/// The chunks `states[rank]` that every rank of `target` was loaded with,
/// as shards of a checkpoint saved under `target`: rank `r` holds ZeRO
/// partition `dp · sp + sp` of its (tp, pp) slice. `common` is the
/// source's run metadata.
pub fn loaded_shards(
    common: &CommonState,
    target: ParallelConfig,
    states: &[RankState],
) -> Vec<HotShard> {
    assert_eq!(states.len(), target.world_size());
    let common = CommonState {
        parallel: target,
        ..common.clone()
    };
    (states.iter().enumerate())
        .map(|(rank, state)| {
            let c = target.coord(rank);
            let shard = OptimShard {
                dp: c.dp * target.sp + c.sp,
                layout: (*state.layout).clone(),
                fp32: state.fp32.clone(),
                exp_avg: state.exp_avg.clone(),
                exp_avg_sq: state.exp_avg_sq.clone(),
            };
            HotShard {
                common: common.clone(),
                tp: c.tp,
                pp: c.pp,
                shard,
            }
        })
        .collect()
}

/// Consolidate one step from all of its ranks' shards. A rule in `rules`
/// takes precedence over the pattern derived from the model.
pub fn naive_atoms(shards: &[HotShard], rules: Option<&UcpSpec>) -> Atoms {
    let common = &shards[0].common;
    let src = common.parallel;
    let zero = src.dp * src.sp;
    let derived = UcpSpec::from_model(&common.model, src.tp, &common.params_to_average);
    let specs = param_specs(&common.model);

    let mut atoms = Atoms::new();
    for pp in 0..src.pp {
        // slices[tp][name]: the (tp, pp) slice's three shard tensors.
        let slices: Vec<BTreeMap<String, [Tensor; 3]>> = (0..src.tp)
            .map(|tp| {
                let mut parts: Vec<&OptimShard> = (shards.iter())
                    .filter(|s| (s.tp, s.pp) == (tp, pp))
                    .map(|s| &s.shard)
                    .collect();
                parts.sort_by_key(|s| s.dp);
                // One shard per ZeRO partition, all of one layout that has
                // exactly that many partitions.
                let layout = &parts[0].layout;
                let owners: Vec<usize> = parts.iter().map(|s| s.dp).collect();
                assert_eq!(owners, (0..zero).collect::<Vec<_>>(), "tp {tp} pp {pp}");
                assert_eq!(layout.dp, zero, "tp {tp} pp {pp}: partitions");
                assert!(parts.iter().all(|s| &s.layout == layout));
                // fragments[key][name]: every partition's pieces of `name`.
                let mut fragments: [BTreeMap<String, Vec<Fragment>>; 3] = Default::default();
                for s in &parts {
                    for (ki, chunk) in s.keys().into_iter().enumerate() {
                        for (name, fragment) in extract_flat(layout, s.dp, chunk) {
                            fragments[ki].entry(name).or_default().push(fragment);
                        }
                    }
                }
                (layout.slots.iter())
                    .map(|slot| {
                        let per_key = [0, 1, 2].map(|ki| {
                            let flat = union_flat(slot.len, &fragments[ki][&slot.name]);
                            Tensor::from_vec(flat.unwrap(), slot.shape.clone()).unwrap()
                        });
                        (slot.name.clone(), per_key)
                    })
                    .collect()
            })
            .collect();
        for name in slices[0].keys() {
            let pattern = rules
                .and_then(|r| r.pattern_of(name))
                .or_else(|| derived.pattern_of(name))
                .unwrap();
            let shape = &specs.iter().find(|s| &s.name == name).unwrap().shape;
            let atom = [0, 1, 2].map(|ki| {
                let shards: Vec<Tensor> = slices.iter().map(|s| s[name][ki].clone()).collect();
                strip_padding(&union_tp(pattern, &shards, true).unwrap(), shape).unwrap()
            });
            // A tied embedding lives on both pipeline-end stages, and its
            // copies agree bit for bit.
            if let Some(other) = atoms.insert(name.clone(), atom) {
                for (ki, (a, b)) in other.iter().zip(&atoms[name]).enumerate() {
                    assert!(a.bitwise_eq(b), "{name} key {ki}: stage copies differ");
                }
            }
        }
    }
    atoms
}

/// Read a universal tree's atom files back as [`Atoms`], as the tree must
/// hold them: every atom one file in the flat `zero/` directory holding
/// the three states as sections; a parameter the manifest lists with
/// `parts: n` as `n` such files, each one slice of the leading dimension
/// under the parameter's name and pattern — joined here, file by file,
/// from paths spelled out by hand and with no call into the loader.
/// Comparing the result with [`naive_atoms`] is what holds every
/// producer's layout and split to the naive reference byte for byte.
pub fn tree_atoms(universal_dir: &Path) -> Atoms {
    use ucp_repro::core::manifest::{AtomMeta, UcpManifest};
    use ucp_repro::storage::layout::{atom_file, AtomFile};
    use ucp_repro::storage::Container;
    let manifest = UcpManifest::load(universal_dir).unwrap();
    assert_eq!(manifest.version, UcpManifest::VERSION);
    let zero = universal_dir.join("zero");
    // One (sub-)atom file: `[fp32, exp_avg, exp_avg_sq]` and its header.
    let read = |atom: &AtomMeta, part: Option<usize>, file_name: String| {
        let path = zero.join(file_name);
        assert_eq!(path, atom_file(universal_dir, &atom.name, part));
        let c = Container::read_file(&path).unwrap();
        let header: AtomMeta = serde_json::from_str(&c.header).unwrap();
        assert_eq!(c.sections.len(), 3, "{path:?}");
        let states = AtomFile::ALL.map(|state| c.get(state.state_key()).unwrap().clone());
        (header, states)
    };
    let whole = |atom: &AtomMeta| {
        let Some(parts) = atom.parts else {
            let (header, states) = read(atom, None, format!("{}.ucpt", atom.name));
            assert_eq!(&header, atom);
            return states;
        };
        let rows = atom.shape.dims()[0] / parts;
        let slices: Vec<[Tensor; 3]> = (0..parts)
            .map(|part| {
                let name = format!("{}.ucpt.{part:03}", atom.name);
                let (header, states) = read(atom, Some(part), name);
                assert_eq!(header.name, atom.name);
                assert_eq!(header.pattern, atom.pattern);
                assert_eq!(header.shape, atom.shape.with_dim(0, rows));
                assert_eq!(header.parts, None);
                states
            })
            .collect();
        [0, 1, 2].map(|ki| {
            let of_state: Vec<&Tensor> = slices.iter().map(|s| &s[ki]).collect();
            Tensor::concat(&of_state, 0).unwrap()
        })
    };
    manifest
        .params
        .iter()
        .map(|a| (a.name.clone(), whole(a)))
        .collect()
}

/// Bitwise equality of two atom sets, name by name and key by key.
pub fn assert_atoms_eq(ctx: &str, got: &Atoms, want: &Atoms) {
    let names = |a: &Atoms| a.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "{ctx}: parameter sets differ");
    for (name, atom) in want {
        for (ki, (g, w)) in got[name].iter().zip(atom).enumerate() {
            assert_eq!(g.shape(), w.shape(), "{ctx}: {name} key {ki} shape");
            assert!(g.bitwise_eq(w), "{ctx}: {name} key {ki} diverges");
        }
    }
}

/// Two loads delivered the same rank state, bit for bit.
pub fn assert_states_eq(ctx: &str, a: &RankState, b: &RankState) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(a.layout, b.layout, "{ctx}");
    for (key, x, y) in [
        ("fp32", &a.fp32, &b.fp32),
        ("exp_avg", &a.exp_avg, &b.exp_avg),
        ("exp_avg_sq", &a.exp_avg_sq, &b.exp_avg_sq),
    ] {
        assert_eq!(bits(x), bits(y), "{ctx}: {key}");
    }
    assert_eq!(a.model_params.len(), b.model_params.len(), "{ctx}");
    for ((na, ta), (nb, tb)) in a.model_params.iter().zip(&b.model_params) {
        assert_eq!(na, nb, "{ctx}: param order");
        assert!(ta.bitwise_eq(tb), "{ctx}: model param {na}");
    }
}

/// Every value of `state` that no atom element backs — padding segments of
/// the shards, the padding and alignment gaps of the chunks, the chunk
/// tail — is `+0.0`, bit for bit. Returns how many shard values are
/// padding.
pub fn assert_padding_is_positive_zero(plan: &LoadPlan, state: &RankState, ctx: &str) -> usize {
    let mut backed = vec![false; plan.layout.chunk];
    let mut padding = 0;
    for (entry, (name, shard)) in plan.entries.iter().zip(&state.model_params) {
        let segments =
            (entry.partition).shard_segments(&entry.full_shape, plan.target.tp, plan.coord.tp);
        for seg in &segments {
            let values = &shard.as_slice()[seg.shard_offset..seg.shard_offset + seg.len];
            if seg.src_offset.is_none() {
                padding += seg.len;
                assert!(
                    values.iter().all(|v| v.to_bits() == 0),
                    "{ctx}: padding of shard {name} is not +0.0"
                );
            }
            for f in &entry.fragments {
                let lo = f.param_offset.max(seg.shard_offset);
                let hi = (f.param_offset + f.len).min(seg.shard_offset + seg.len);
                if lo < hi && seg.src_offset.is_some() {
                    let at = f.chunk_offset + (lo - f.param_offset);
                    backed[at..at + (hi - lo)].fill(true);
                }
            }
        }
    }
    for (state_key, chunk) in [
        ("fp32", &state.fp32),
        ("exp_avg", &state.exp_avg),
        ("exp_avg_sq", &state.exp_avg_sq),
    ] {
        for (i, v) in chunk.iter().enumerate().filter(|(i, _)| !backed[*i]) {
            assert_eq!(v.to_bits(), 0, "{ctx}: {state_key} slot {i} not +0.0");
        }
    }
    padding
}
