//! The universal checkpoint manifest: the index of atom checkpoints plus
//! the training state needed to resume under any configuration.

use std::path::Path;

use serde::{Deserialize, Serialize};
use ucp_model::ModelConfig;
use ucp_storage::{layout, Container};
use ucp_tensor::Shape;

use crate::pattern::ParamPattern;
use crate::{Result, UcpError};

/// Metadata of one atom checkpoint.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct AtomMeta {
    /// Canonical parameter name (also the stem of the atom's file name:
    /// [`UcpManifest::load`] accepts only one plain path component).
    pub name: String,
    /// Full, consolidated shape (padding already stripped).
    pub shape: Shape,
    /// The source-side pattern this atom was consolidated from.
    pub pattern: ParamPattern,
    /// `Some(n)`: the parameter is stored as `n` sub-atoms, equal slices of
    /// its leading dimension in one file each ([`layout::atom_file`]), not
    /// as one whole file. Absent from the JSON when `None`.
    pub parts: Option<usize>,
}

impl AtomMeta {
    /// Number of files the atom is stored in: the sub-atom count, or 1
    /// when unsplit.
    pub fn parts(&self) -> usize {
        self.parts.unwrap_or(1)
    }

    /// The `part` of [`layout::atom_file`] for each of those files:
    /// `None` alone when unsplit, else every sub-atom in order.
    pub fn part_ids(&self) -> Vec<Option<usize>> {
        match self.parts {
            Some(parts) => (0..parts).map(Some).collect(),
            None => vec![None],
        }
    }
}

/// Derived, but for `parts`, which is left out when `None`.
impl Serialize for AtomMeta {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("shape".to_string(), self.shape.to_value()),
            ("pattern".to_string(), self.pattern.to_value()),
        ];
        if let Some(parts) = self.parts {
            fields.push(("parts".to_string(), parts.to_value()));
        }
        serde::Value::Object(fields)
    }
}

/// The universal checkpoint's top-level manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UcpManifest {
    /// Format version of the tree this manifest indexes: where
    /// [`layout::atom_file`] finds its atoms.
    pub version: u32,
    /// Completed training iterations at checkpoint time.
    pub iteration: u64,
    /// Run seed.
    pub seed: u64,
    /// Samples consumed from the data stream.
    pub data_cursor: u64,
    /// Adam step count.
    pub adam_step: u64,
    /// Model architecture.
    pub model: ModelConfig,
    /// Human-readable label of the source strategy (e.g.
    /// `tp2_pp2_dp2_sp1_z1`), informational only — targets never depend on
    /// it, which is the whole point.
    pub source_label: String,
    /// Atom index, sorted by name ([`crate::assemble::build_manifest`]
    /// writes it so, [`UcpManifest::load`] restores it): [`UcpManifest::atom`]
    /// searches it.
    pub params: Vec<AtomMeta>,
}

impl UcpManifest {
    /// The version this crate writes: [`layout::TREE_VERSION`].
    pub const VERSION: u32 = layout::TREE_VERSION;

    /// Look up an atom by name: a binary search of the sorted index, so a
    /// load plan's one lookup per owned parameter is not quadratic.
    pub fn atom(&self, name: &str) -> Option<&AtomMeta> {
        let at = self
            .params
            .binary_search_by(|a| a.name.as_str().cmp(name))
            .ok()?;
        Some(&self.params[at])
    }

    /// Persist to `manifest.ucpt` inside the universal directory,
    /// durably: the manifest is the commit record of a conversion, so it
    /// must never become readable before the atoms it indexes are on
    /// disk, nor survive a crash half-written.
    pub fn save(&self, universal_dir: &Path) -> Result<()> {
        let c = Container::new(serde_json::to_string(self)?);
        c.write_file_durable(&layout::manifest_path(universal_dir))?;
        Ok(())
    }

    /// Read from a universal directory. The manifest is outside input
    /// that readers turn into paths, so this is where it is checked: a
    /// version this reader does not know, or an atom name that is not one
    /// plain file-name component, is refused before any path is built.
    pub fn load(universal_dir: &Path) -> Result<UcpManifest> {
        let c = Container::read_file(&layout::manifest_path(universal_dir))?;
        let mut manifest: UcpManifest = serde_json::from_str(&c.header)?;
        if manifest.version > UcpManifest::VERSION {
            return Err(UcpError::Inconsistent(format!(
                "manifest version {} is newer than this reader's {}",
                manifest.version,
                UcpManifest::VERSION
            )));
        }
        for atom in &manifest.params {
            let name = atom.name.as_str();
            if matches!(name, "" | "." | "..") || name.contains(['/', '\0']) {
                return Err(UcpError::Inconsistent(format!(
                    "manifest atom name {name:?} is not a plain file name"
                )));
            }
        }
        // A no-op on every tree this crate wrote; a hand-assembled index
        // must not make `atom` miss an entry that is there.
        manifest.params.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::FragmentSpec;

    fn sample() -> UcpManifest {
        UcpManifest {
            version: UcpManifest::VERSION,
            iteration: 100,
            seed: 7,
            data_cursor: 12_800,
            adam_step: 100,
            model: ModelConfig::gpt3_tiny(),
            source_label: "tp2_pp2_dp2_sp1_z1".into(),
            params: vec![
                AtomMeta {
                    name: "embedding.word_embeddings.weight".into(),
                    shape: Shape::new([256, 32]),
                    pattern: ParamPattern::Fragment(FragmentSpec::Dim { dim: 0 }),
                    parts: None,
                },
                AtomMeta {
                    name: "final_layernorm.weight".into(),
                    shape: Shape::new([32]),
                    pattern: ParamPattern::Replicated,
                    parts: None,
                },
            ],
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("ucp_manifest_test");
        std::fs::remove_dir_all(&dir).ok();
        let m = sample();
        m.save(&dir).unwrap();
        let back = UcpManifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atom_lookup() {
        let m = sample();
        assert!(m.atom("final_layernorm.weight").is_some());
        assert!(m.atom("embedding.word_embeddings.weight").is_some());
        assert!(m.atom("nope").is_none());
    }

    /// The split is one optional field: an unsplit entry serializes to
    /// three fields (so a tree written whole, by a foreign adapter or
    /// before the field existed, loads), a split one adds `parts`.
    #[test]
    fn parts_field_is_absent_unless_split() {
        let mut meta = sample().params.remove(1);
        let plain = serde_json::to_string(&meta).unwrap();
        assert_eq!(
            plain,
            r#"{"name":"final_layernorm.weight","shape":[32],"pattern":"Replicated"}"#
        );
        let back: AtomMeta = serde_json::from_str(&plain).unwrap();
        assert_eq!((back.parts, back.parts()), (None, 1));
        meta.parts = Some(8);
        let split = serde_json::to_string(&meta).unwrap();
        assert!(split.ends_with(r#","parts":8}"#), "{split}");
        assert_eq!(serde_json::from_str::<AtomMeta>(&split).unwrap(), meta);
    }

    /// What `load` makes of `m` once it is on disk.
    fn reload(tag: &str, m: &UcpManifest) -> Result<UcpManifest> {
        let dir = std::env::temp_dir().join(format!("ucp_manifest_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        m.save(&dir).unwrap();
        let back = UcpManifest::load(&dir);
        std::fs::remove_dir_all(&dir).ok();
        back
    }

    #[test]
    fn atom_name_that_is_not_a_plain_file_name_is_refused() {
        for (i, bad) in ["", ".", "..", "../../etc/x", "a/b", "/abs", "nul\0byte"]
            .into_iter()
            .enumerate()
        {
            let mut m = sample();
            m.params[0].name = bad.into();
            match reload(&format!("badname{i}"), &m) {
                Err(UcpError::Inconsistent(msg)) => {
                    assert!(msg.contains("not a plain file name"), "{bad:?}: {msg}")
                }
                other => panic!("{bad:?} must be Inconsistent, got {other:?}"),
            }
        }
        // Dots and leading dots inside a component are ordinary names.
        let mut m = sample();
        m.params[0].name = "..a.b..".into();
        assert!(reload("dotted", &m).is_ok());
    }

    #[test]
    fn version_newer_than_this_reader_is_refused_older_is_kept() {
        let mut m = sample();
        m.version = UcpManifest::VERSION + 1;
        match reload("newer", &m) {
            Err(UcpError::Inconsistent(msg)) => assert!(msg.contains("newer"), "{msg}"),
            other => panic!("a newer version must be Inconsistent, got {other:?}"),
        }
        // A version-1 manifest loads and keeps its version: it is what
        // sends readers to the per-parameter directories.
        m.version = 1;
        assert_eq!(reload("older", &m).unwrap().version, 1);
    }

    #[test]
    fn load_sorts_a_hand_assembled_index() {
        let dir = std::env::temp_dir().join("ucp_manifest_unsorted");
        std::fs::remove_dir_all(&dir).ok();
        let mut m = sample();
        m.params.reverse();
        m.save(&dir).unwrap();
        let back = UcpManifest::load(&dir).unwrap();
        assert_eq!(back.params, sample().params);
        assert!(back.atom("embedding.word_embeddings.weight").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
