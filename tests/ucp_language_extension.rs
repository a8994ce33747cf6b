//! The UCP language as an extension point (§3.2: "UCP is quite extensible
//! in that it allows users to easily define new (sub)-patterns"): a
//! user-written spec — authored as JSON, the language's textual form —
//! overrides the derived pattern rules during conversion.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{saving, scratch};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::language::{UcpSpec, UcpSpecBuilder};
use ucp_repro::core::pattern::ParamPattern;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::storage::Container;
use ucp_repro::trainer::{train_run, TrainConfig};

fn make_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = scratch(name);
    let cfg = TrainConfig::quick(
        ModelConfig::gpt3_tiny(),
        ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
        51,
    );
    train_run(&saving(cfg, 2, 2, &dir)).unwrap();
    dir
}

#[test]
fn user_rule_overrides_derived_pattern() {
    // Mark every layernorm weight params_to_average via a hand-written
    // rule. With TP=2 the replicas are identical, so averaging is a no-op
    // value-wise — but the manifest must record the user's pattern, and
    // the replica-equality verifier must not run for those params.
    let dir = make_checkpoint("override");
    let spec = UcpSpecBuilder::new()
        .rule("layers.*.input_layernorm.weight", ParamPattern::ToAverage)
        .build();
    // Author → serialize → reload, proving the textual form carries the
    // override (what a user would keep in a spec file).
    let spec = UcpSpec::from_json(&spec.to_json().unwrap()).unwrap();
    let (manifest, _) = convert_to_universal(
        &dir,
        2,
        &ConvertOptions {
            spec_override: Some(spec),
            ..ConvertOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        manifest
            .atom("layers.3.input_layernorm.weight")
            .unwrap()
            .pattern,
        ParamPattern::ToAverage
    );
    // Unmatched parameters fall back to the derived rules.
    assert_eq!(
        manifest
            .atom("layers.3.post_attention_layernorm.weight")
            .unwrap()
            .pattern,
        ParamPattern::Replicated
    );
    // Averaging identical replicas equals the replica value.
    let universal = layout::universal_dir(&dir, 2);
    let avg = Container::read_file(&layout::atom_path(
        &universal,
        "layers.3.input_layernorm.weight",
        layout::AtomFile::Fp32,
    ))
    .unwrap();
    let rep = Container::read_file(&layout::atom_path(
        &universal,
        "layers.3.post_attention_layernorm.weight",
        layout::AtomFile::Fp32,
    ))
    .unwrap();
    assert_eq!(
        avg.get("fp32").unwrap().shape(),
        rep.get("fp32").unwrap().shape()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_user_rule_is_reported() {
    // A user rule that misdescribes the sharding (wrong fragment dim) must
    // surface as a shape inconsistency, not silent corruption.
    use ucp_repro::core::pattern::FragmentSpec;
    let dir = make_checkpoint("bad_rule");
    let spec = UcpSpecBuilder::new()
        .rule(
            "layers.*.attention.dense.weight",
            // Truly sharded along dim 1; claim dim 0.
            ParamPattern::Fragment(FragmentSpec::Dim { dim: 0 }),
        )
        .build();
    let err = convert_to_universal(
        &dir,
        2,
        &ConvertOptions {
            spec_override: Some(spec),
            ..ConvertOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("shape"),
        "expected shape mismatch, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
