//! Vocabulary alignment padding (Megatron-style) through the full UCP
//! life cycle: train with a padded vocab, consolidate (StripPadding — the
//! atoms must be unpadded), and resume under TP degrees with *different*
//! padded extents.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::{resuming, saving, scratch};
use ucp_repro::core::convert::{convert_to_universal, ConvertOptions};
use ucp_repro::core::pattern::{FragmentSpec, ParamPattern};
use ucp_repro::model::{ModelConfig, Partition};
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::storage::Container;
use ucp_repro::tensor::{DetRng, Shape, Tensor};
use ucp_repro::trainer::{train_run, TrainConfig, TrainPlan};

#[test]
fn padded_extent_math() {
    // V=250, quantum 16: TP=1 pads to 256 (16·16), TP=2 pads to 256
    // (8·32), TP=4 pads to 256; quantum 24, TP=2 → 288.
    assert_eq!(Partition::padded_extent(250, 16, 1), 256);
    assert_eq!(Partition::padded_extent(250, 16, 2), 256);
    assert_eq!(Partition::padded_extent(250, 24, 2), 288);
    assert_eq!(
        Partition::padded_extent(256, 16, 2),
        256,
        "no-op when aligned"
    );
}

#[test]
fn padded_shard_roundtrip_via_strip() {
    let rng = DetRng::new(3);
    let full = Tensor::randn([250, 8], 1.0, &rng.derive("emb"));
    let p = Partition::PaddedShard {
        dim: 0,
        multiple: 16,
    };
    for tp in [1usize, 2, 4] {
        let shards: Vec<Tensor> = (0..tp).map(|r| p.shard(&full, tp, r)).collect();
        let padded_rows = Partition::padded_extent(250, 16, tp) / tp;
        for s in &shards {
            assert_eq!(s.shape().dims()[0], padded_rows);
        }
        let cat = p.unshard(&shards);
        assert_eq!(cat.shape().dims()[0], Partition::padded_extent(250, 16, tp));
        let back = cat.strip_dim(0, 250).unwrap();
        assert!(back.bitwise_eq(&full), "tp={tp}");
        // Padding rows are zero.
        let pad = cat.narrow(0, 250, cat.shape().dims()[0] - 250).unwrap();
        assert!(pad.as_slice().iter().all(|v| *v == 0.0));
    }
}

#[test]
fn padded_vocab_losses_match_across_tp() {
    let model = ModelConfig::gpt3_tiny_padded_vocab();
    assert_eq!(model.vocab_size, 250, "awkward vocab by construction");
    let run = |tp: usize| -> Vec<f64> {
        let cfg = TrainConfig::quick(
            model.clone(),
            ParallelConfig::new(tp, 1, 1, 1, ZeroStage::Zero1),
            81,
        );
        train_run(&TrainPlan::simple(cfg, 4))
            .unwrap()
            .losses
            .into_iter()
            .map(|(_, l)| l)
            .collect()
    };
    let base = run(1);
    let tp2 = run(2);
    for (i, (a, b)) in base.iter().zip(&tp2).enumerate() {
        assert!(
            (a - b).abs() < 2e-3,
            "padding must not change the math: iteration {i}, {a} vs {b}"
        );
    }
    // Initial loss near ln(250): padding rows get no probability mass.
    assert!((base[0] - (250f64).ln()).abs() < 0.5, "loss {}", base[0]);
}

#[test]
fn atoms_are_stripped_and_resume_repads() {
    let model = ModelConfig::gpt3_tiny_padded_vocab();
    let dir = scratch("lifecycle");
    // Source TP=2 (padded extent 256, 128 rows per rank).
    let src = TrainConfig::quick(
        model.clone(),
        ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
        82,
    );
    let baseline = train_run(&TrainPlan::simple(src.clone(), 6)).unwrap();
    train_run(&saving(src, 3, 3, &dir)).unwrap();
    let (manifest, _) = convert_to_universal(&dir, 3, &ConvertOptions::default()).unwrap();

    // The atom is unpadded [250, H] and carries the padded-dim pattern.
    let atom = manifest.atom("embedding.word_embeddings.weight").unwrap();
    assert_eq!(atom.shape, Shape::new([250, 32]));
    assert_eq!(
        atom.pattern,
        ParamPattern::Fragment(FragmentSpec::PaddedDim {
            dim: 0,
            multiple: 16
        })
    );
    let file = Container::read_file(&layout::atom_path(
        &layout::universal_dir(&dir, 3),
        "lm_head.weight",
        layout::AtomFile::Fp32,
    ))
    .unwrap();
    assert_eq!(file.get("fp32").unwrap().shape().dims(), &[250, 32]);

    // Resume under TP=4 (different padded extent) and TP=1.
    for tp in [4usize, 1] {
        let tgt = TrainConfig::quick(
            model.clone(),
            ParallelConfig::new(tp, 1, 1, 1, ZeroStage::Zero1),
            82,
        );
        let resumed = train_run(&resuming(tgt, 6, &dir, 3)).unwrap();
        for ((ia, la), (ib, lb)) in baseline.losses[3..].iter().zip(&resumed.losses) {
            assert_eq!(ia, ib);
            assert!(
                (la - lb).abs() < 2e-3,
                "tp={tp} iteration {ia}: baseline {la} vs resumed {lb}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
