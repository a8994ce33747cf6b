//! Structured fuzzing of manifest loading. Byte flips and truncations of
//! a valid `manifest.ucpt` load the same manifest or fail with a typed
//! error; damage to the JSON header itself (re-wrapped in a container
//! whose checksum holds, so the parser sees it) loads or fails, and
//! never panics.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use ucp_core::manifest::{AtomMeta, UcpManifest};
use ucp_core::pattern::{FragmentSpec, ParamPattern};
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
