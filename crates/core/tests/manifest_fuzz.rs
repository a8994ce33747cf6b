//! Structured fuzzing of manifest loading. Byte flips and truncations of
//! a valid `manifest.ucpt` load the same manifest or fail with a typed
//! error; damage to the JSON header itself (re-wrapped in a container
//! whose checksum holds, so the parser sees it) loads or fails, and
//! never panics. A well-formed index that no writer produces and no
//! reader can serve is refused by what is wrong with it.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use ucp_core::manifest::{AtomMeta, ManifestError, UcpManifest};
use ucp_core::pattern::{FragmentSpec, ParamPattern};
use ucp_core::UcpError;
use ucp_model::ModelConfig;
use ucp_storage::{layout, Container};
use ucp_tensor::Shape;

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
                parts: Some(4),
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ucp_manifest_fuzz_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The bytes of `sample()`'s `manifest.ucpt` and its JSON header,
/// written once.
fn valid() -> &'static (Vec<u8>, String) {
    static VALID: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    VALID.get_or_init(|| {
        let dir = scratch("valid");
        sample().save(&dir).unwrap();
        let path = layout::manifest_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let header = Container::read_file(&path).unwrap().header;
        std::fs::remove_dir_all(&dir).ok();
        (bytes, header)
    })
}

/// Load a universal directory whose `manifest.ucpt` holds `bytes`.
fn load_bytes(tag: &str, bytes: &[u8]) -> ucp_core::Result<UcpManifest> {
    let dir = scratch(tag);
    std::fs::write(layout::manifest_path(&dir), bytes).unwrap();
    let got = UcpManifest::load(&dir);
    std::fs::remove_dir_all(&dir).ok();
    got
}

/// Load a manifest container, checksums intact, whose header is `header`.
fn load_header(tag: &str, header: String) -> ucp_core::Result<UcpManifest> {
    let dir = scratch(tag);
    Container::new(header)
        .write_file(&layout::manifest_path(&dir))
        .unwrap();
    let got = UcpManifest::load(&dir);
    std::fs::remove_dir_all(&dir).ok();
    got
}

/// Bytes that change a JSON document's structure when spliced in.
const STRUCTURAL: &[u8] = b"[]{}\",:\\0-.e";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn container_byte_flips_load_the_same_manifest_or_a_typed_error(
        at in 0.0f64..1.0,
        mask in 1u32..256,
    ) {
        let (bytes, _) = valid();
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut damaged = bytes.clone();
        damaged[i] ^= mask as u8;
        if let Ok(m) = load_bytes("flip", &damaged) {
            prop_assert_eq!(m, sample());
        }
    }

    #[test]
    fn container_truncations_are_a_typed_error(at in 0.0f64..1.0) {
        let (bytes, _) = valid();
        let cut = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(load_bytes("truncate", &bytes[..cut]).is_err());
    }

    #[test]
    fn damaged_header_json_loads_or_fails_without_panicking(
        at in 0.0f64..1.0,
        mask in 1u32..256,
        pick in 0..STRUCTURAL.len(),
        cut in 0.0f64..1.0,
    ) {
        let (_, header) = valid();
        let mut text = header.clone().into_bytes();
        let i = ((at * text.len() as f64) as usize).min(text.len() - 1);
        // A flip, a splice of a structural byte, and a truncation.
        let mut flipped = text.clone();
        flipped[i] ^= mask as u8;
        let _ = load_header("hflip", String::from_utf8_lossy(&flipped).into_owned());
        text[i] = STRUCTURAL[pick];
        let _ = load_header("hsplice", String::from_utf8_lossy(&text).into_owned());
        let end = (cut * header.len() as f64) as usize;
        let truncated = header.as_bytes()[..end].to_vec();
        prop_assert!(load_header("htrunc", String::from_utf8_lossy(&truncated).into_owned()).is_err());
    }
}

/// `sample()` with `edit` applied, saved and loaded back.
fn reload(tag: &str, edit: impl FnOnce(&mut UcpManifest)) -> ucp_core::Result<UcpManifest> {
    let mut m = sample();
    edit(&mut m);
    let dir = scratch(tag);
    m.save(&dir).unwrap();
    let got = UcpManifest::load(&dir);
    std::fs::remove_dir_all(&dir).ok();
    got
}

/// A split no writer produces and no load plan can cut — zero parts, or
/// parts that do not divide the leading dimension (256) — and a name
/// listed twice, of which a lookup would find either, are refused.
#[test]
fn unservable_splits_and_duplicate_names_are_refused() {
    for parts in [0, 3, 512] {
        match reload("parts", |m| m.params[0].parts = Some(parts)) {
            Err(UcpError::Manifest(ManifestError::Parts(name, p))) => {
                assert_eq!(
                    (name.as_str(), p),
                    ("embedding.word_embeddings.weight", parts)
                )
            }
            other => panic!("parts {parts} must be refused, got {other:?}"),
        }
    }
    assert!(reload("parts8", |m| m.params[0].parts = Some(8)).is_ok());
    match reload("duplicate", |m| m.params.push(m.params[1].clone())) {
        Err(UcpError::Manifest(ManifestError::DuplicateAtom(name))) => {
            assert_eq!(name, "final_layernorm.weight")
        }
        other => panic!("a duplicate must be refused, got {other:?}"),
    }
}

/// fsck's per-step check of a tree whose manifest splits an atom into zero
/// parts: that atom names no file to verify while every load of it fails,
/// so the step must not read as clean.
#[test]
fn a_zero_part_split_is_an_fsck_problem() {
    let base = scratch("fsck_zero_parts");
    let mut m = sample();
    m.params[1].parts = Some(0);
    m.save(&layout::universal_dir(&base, 2)).unwrap();
    let report = ucp_core::fsck::check_step(&base, 2);
    std::fs::remove_dir_all(&base).ok();
    assert_eq!(
        (report.universal_checked, report.files_verified),
        (vec![2], 0)
    );
    assert_eq!(report.problems.len(), 1, "{:?}", report.problems);
    assert!(report.problems[0]
        .detail
        .contains("cannot be cut into 0 parts"));
}
