//! A version-1 universal tree, written by hand: the layout every tree had
//! before an atom became one file. Nothing under `crates/` can write it
//! any more; readers still follow a manifest whose `version` is 1 to it
//! (`ucp_storage::layout::atom_file`), and this fixture — paths spelled
//! out, no call into `layout` — is what holds them to that.
//!
//! ```text
//! <universal_dir>/
//!   manifest.ucpt                      "version": 1
//!   zero/<param>/fp32.ucpt             one section each, named by state
//!   zero/<param>/exp_avg.ucpt
//!   zero/<param>/exp_avg_sq.ucpt
//!   zero/<split param>/<NNN>.ucpt      `parts: E`: E files of three sections,
//!                                      slice NNN of the leading dimension
//! ```

use std::path::Path;

use ucp_repro::core::manifest::{AtomMeta, UcpManifest};
use ucp_repro::storage::Container;
use ucp_repro::tensor::Tensor;

const STATES: [&str; 3] = ["fp32", "exp_avg", "exp_avg_sq"];

/// Write `atoms` — `[fp32, exp_avg, exp_avg_sq]` per entry of
/// `manifest.params`, split where the entry says `parts` — under
/// `universal_dir` in the version-1 layout, with `manifest` as its index.
pub fn write_v1_tree(universal_dir: &Path, manifest: &UcpManifest, atoms: &[[Tensor; 3]]) {
    assert_eq!(manifest.params.len(), atoms.len());
    for (atom, states) in manifest.params.iter().zip(atoms) {
        let dir = universal_dir.join("zero").join(&atom.name);
        let Some(parts) = atom.parts else {
            for (key, tensor) in STATES.into_iter().zip(states) {
                let mut c = Container::new(serde_json::to_string(atom).unwrap());
                c.push(key, tensor.clone());
                c.write_file(&dir.join(format!("{key}.ucpt"))).unwrap();
            }
            continue;
        };
        let rows = atom.shape.dims()[0] / parts;
        let header = AtomMeta {
            shape: atom.shape.with_dim(0, rows),
            parts: None,
            ..atom.clone()
        };
        for part in 0..parts {
            let mut c = Container::new(serde_json::to_string(&header).unwrap());
            for (key, tensor) in STATES.into_iter().zip(states) {
                c.push(key, tensor.narrow(0, part * rows, rows).unwrap());
            }
            c.write_file(&dir.join(format!("{part:03}.ucpt"))).unwrap();
        }
    }
    UcpManifest {
        version: 1,
        ..manifest.clone()
    }
    .save(universal_dir)
    .unwrap();
}
