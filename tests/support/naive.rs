//! Algorithm 1 composed naively from Table 2's named operators — the
//! reference every production feed of `core::assemble::StageAssembler` is
//! held to. It shares no code with `core::assemble` or `core::convert`:
//! read every rank's optimizer shard, `union_flat` each parameter of each
//! (tp, pp) slice from its `extract_flat` fragments, `union_tp` the slices
//! by pattern, `strip_padding` to the true shape, index by name. It holds
//! a whole step in memory several times over and is quadratic in the
//! parameter count; it exists to be obviously right.

use std::collections::BTreeMap;
use std::path::Path;

use ucp_repro::core::checkpoint::{load_optim_states, OptimShard};
use ucp_repro::core::language::UcpSpec;
use ucp_repro::core::ops::{extract_flat, strip_padding, union_flat, union_tp, Fragment};
use ucp_repro::core::RankState;
use ucp_repro::model::param_specs;
use ucp_repro::tensor::Tensor;

/// Consolidated `[fp32, exp_avg, exp_avg_sq]` per parameter name.
pub type Atoms = BTreeMap<String, [Tensor; 3]>;

/// Consolidate the native checkpoint in `step_dir`. A rule in `rules`
/// takes precedence over the pattern derived from the model.
pub fn naive_atoms(step_dir: &Path, rules: Option<&UcpSpec>) -> Atoms {
    let (common, _) = load_optim_states(step_dir, 0, 0, 0).unwrap();
    let src = common.parallel;
    let derived = UcpSpec::from_model(&common.model, src.tp, &common.params_to_average);
    let specs = param_specs(&common.model);
    let keys: [fn(&OptimShard) -> &[f32]; 3] = [|s| &s.fp32, |s| &s.exp_avg, |s| &s.exp_avg_sq];

    let mut atoms = Atoms::new();
    for pp in 0..src.pp {
        // slices[tp][name][key]: the (tp, pp) slice's shard tensors.
        let slices: Vec<BTreeMap<String, Vec<Tensor>>> = (0..src.tp)
            .map(|tp| {
                let shards: Vec<OptimShard> = (0..src.dp * src.sp)
                    .map(|zi| load_optim_states(step_dir, zi, tp, pp).unwrap().1)
                    .collect();
                let slots = &shards[0].layout.slots;
                slots
                    .iter()
                    .map(|slot| {
                        let per_key = keys.map(|key| {
                            let fragments: Vec<Fragment> = shards
                                .iter()
                                .flat_map(|s| extract_flat(&s.layout, s.dp, key(s)))
                                .filter(|(name, _)| name == &slot.name)
                                .map(|(_, fragment)| fragment)
                                .collect();
                            let flat = union_flat(slot.len, &fragments).unwrap();
                            Tensor::from_vec(flat, slot.shape.clone()).unwrap()
                        });
                        (slot.name.clone(), per_key.to_vec())
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
            // A tied embedding lives on both pipeline-end stages; its
            // copies are kept in sync, so either is the atom.
            atoms.insert(name.clone(), atom);
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
    use ucp_repro::storage::layout::{atom_file, AtomFile, TREE_VERSION};
    use ucp_repro::storage::Container;
    let manifest = UcpManifest::load(universal_dir).unwrap();
    assert_eq!(manifest.version, TREE_VERSION);
    let zero = universal_dir.join("zero");
    // One (sub-)atom file: `[fp32, exp_avg, exp_avg_sq]` and its header.
    let read = |atom: &AtomMeta, part: Option<usize>, file_name: String| {
        let path = zero.join(file_name);
        for state in AtomFile::ALL {
            let by_layout = atom_file(universal_dir, TREE_VERSION, &atom.name, part, state);
            assert_eq!(path, by_layout);
        }
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

/// The atoms a single-rank (TP1·PP1·DP1) load delivered: each flat slot
/// is a whole parameter, re-padded where the target pads its vocabulary.
pub fn rank_atoms(state: &RankState, like: &Atoms) -> Atoms {
    let slots = &state.layout.slots;
    slots
        .iter()
        .map(|slot| {
            let shape = like[&slot.name][0].shape();
            let atom = [&state.fp32, &state.exp_avg, &state.exp_avg_sq]
                .map(|flat| strip_padding(&state.layout.unflatten_one(flat, slot), shape).unwrap());
            (slot.name.clone(), atom)
        })
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
