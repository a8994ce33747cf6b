//! Correctness experiments: Figs. 6–10 and Table 3.
//!
//! Each experiment trains a *Source* configuration, checkpoints midway,
//! converts the distributed checkpoint to a universal checkpoint, resumes
//! one or more *Target* configurations, and compares the resumed loss
//! curves against the uninterrupted baseline. The paper accepts a ±0.02
//! band (GPU nondeterminism); our substrate is deterministic, so observed
//! divergences are orders of magnitude smaller.

use std::path::Path;

use ucp_core::convert::ConvertOptions;
use ucp_model::ModelConfig;
use ucp_optim::LrSchedule;
use ucp_parallel::{ParallelConfig, ZeroStage};
use ucp_trainer::{
    convert_checkpoint, run_elastic, train_run, ElasticPhase, ResumeMode, TrainConfig, TrainPlan,
};

use crate::report::{scratch_dir, Curve};

/// Iteration counts for an experiment: total run length and the
/// mid-training checkpoint step.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Total iterations (paper: 200 for GPT).
    pub total: u64,
    /// Checkpoint/transform iteration (paper: 100).
    pub ckpt: u64,
}

impl Schedule {
    /// Paper-scale (200 iters, convert at 100) or fast (30/15) schedule.
    pub fn new(fast: bool) -> Schedule {
        if fast {
            Schedule {
                total: 30,
                ckpt: 15,
            }
        } else {
            Schedule {
                total: 200,
                ckpt: 100,
            }
        }
    }

    /// Table 3's sampling iterations: first post-resume iteration plus five
    /// evenly spaced points up to the end.
    pub fn sample_points(&self) -> Vec<u64> {
        let mut pts = vec![self.ckpt + 1];
        let span = self.total - self.ckpt;
        for k in 1..=5 {
            pts.push(self.ckpt + span * k / 5);
        }
        pts.dedup();
        pts
    }
}

/// The result of one source → targets experiment.
#[derive(Debug, Clone)]
pub struct CurveSet {
    /// Experiment title.
    pub title: String,
    /// Source strategy label.
    pub source_label: String,
    /// Iteration the checkpoint was taken and conversion happened.
    pub ckpt_iteration: u64,
    /// Uninterrupted source run (the paper's gray line).
    pub baseline: Curve,
    /// Resumed target runs.
    pub resumed: Vec<Curve>,
}

impl CurveSet {
    /// Paper-style text rendering: per-target max divergence from the
    /// baseline over the resumed segment.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\n  source {} | checkpoint + convert @ iteration {}\n",
            self.title, self.source_label, self.ckpt_iteration
        );
        out.push_str(&format!(
            "  baseline final loss: {:.4}\n",
            self.baseline.last().unwrap_or(f64::NAN)
        ));
        for c in &self.resumed {
            let div = crate::report::max_divergence(&self.baseline, c);
            out.push_str(&format!(
                "  target {:<24} final {:.4}  max |Δloss| vs baseline {:.2e}  (paper band: 0.02)\n",
                c.label,
                c.last().unwrap_or(f64::NAN),
                div
            ));
        }
        out
    }
}

/// Build the experiment training config for a model + strategy.
pub fn experiment_config(
    model: ModelConfig,
    parallel: ParallelConfig,
    seed: u64,
    total: u64,
) -> TrainConfig {
    let mut cfg = TrainConfig::quick(model, parallel, seed);
    cfg.global_batch = 8;
    cfg.micro_batch = 2;
    cfg.lr = LrSchedule {
        max_lr: 1e-3,
        min_lr: 1e-4,
        warmup_iters: 10,
        decay_iters: total,
    };
    cfg
}

/// Train `source` fresh with a checkpoint at `sched.ckpt`, convert it to a
/// universal checkpoint, and return the source's loss curve.
pub fn run_source(source: &TrainConfig, dir: &Path, sched: Schedule) -> Curve {
    let plan = TrainPlan {
        config: source.clone(),
        until_iteration: sched.ckpt,
        resume: ResumeMode::Fresh,
        checkpoint_every: Some(sched.ckpt),
        checkpoint_dir: Some(dir.to_path_buf()),
    };
    let run = train_run(&plan).expect("source run");
    convert_checkpoint(dir, sched.ckpt, &ConvertOptions::default()).expect("conversion");
    Curve {
        label: source.parallel.label(),
        points: run.losses,
    }
}

/// Resume `target` from the universal checkpoint in `dir` and return its
/// loss curve over the resumed segment.
pub fn resume_target(target: &TrainConfig, dir: &Path, sched: Schedule) -> Curve {
    let plan = TrainPlan {
        config: target.clone(),
        until_iteration: sched.total,
        resume: ResumeMode::Universal {
            dir: dir.to_path_buf(),
            step: sched.ckpt,
        },
        checkpoint_every: None,
        checkpoint_dir: None,
    };
    let run = train_run(&plan).expect("target resume");
    Curve {
        label: target.parallel.label(),
        points: run.losses,
    }
}

/// Uninterrupted baseline run of a config to `sched.total`.
pub fn run_baseline(cfg: &TrainConfig, sched: Schedule) -> Curve {
    let run = train_run(&TrainPlan::simple(cfg.clone(), sched.total)).expect("baseline run");
    Curve {
        label: format!("{} (uninterrupted)", cfg.parallel.label()),
        points: run.losses,
    }
}

/// The 11 target strategies of Fig. 6 / Table 3 (TP/PP/DP/SP + ZeRO).
pub fn fig6_targets() -> Vec<ParallelConfig> {
    use ZeroStage::{Zero1, Zero2, Zero3};
    vec![
        ParallelConfig::new(2, 2, 2, 1, Zero1),
        ParallelConfig::new(1, 1, 1, 1, Zero1),
        ParallelConfig::new(1, 2, 2, 1, Zero1),
        ParallelConfig::new(2, 1, 1, 1, Zero1),
        ParallelConfig::new(1, 1, 2, 2, Zero1),
        ParallelConfig::new(2, 1, 2, 1, Zero1),
        ParallelConfig::new(2, 2, 1, 1, Zero1),
        ParallelConfig::new(1, 1, 4, 1, Zero2),
        ParallelConfig::new(2, 1, 2, 1, Zero2),
        ParallelConfig::new(1, 1, 2, 1, Zero3),
        ParallelConfig::new(1, 1, 4, 1, Zero3),
    ]
}

/// Fig. 6: single GPT source (TP2·PP2·DP2, ZeRO-1) to eleven targets.
pub fn fig6(fast: bool) -> CurveSet {
    let sched = Schedule::new(fast);
    let seed = 2024;
    let model = ModelConfig::gpt3_tiny();
    let src_parallel = ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1);
    let source = experiment_config(model.clone(), src_parallel, seed, sched.total);
    let dir = scratch_dir("fig6");

    run_source(&source, &dir, sched);
    let baseline = run_baseline(&source, sched);
    let resumed = fig6_targets()
        .into_iter()
        .map(|target| {
            let cfg = experiment_config(model.clone(), target, seed, sched.total);
            resume_target(&cfg, &dir, sched)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    CurveSet {
        title: "Fig. 6: one Source (GPT-3-scaled, TP2/PP2/DP2, ZeRO-1) → 11 Targets".into(),
        source_label: src_parallel.label(),
        ckpt_iteration: sched.ckpt,
        baseline,
        resumed,
    }
}

/// Table 3 view over the Fig. 6 curves: losses at the paper's sampled
/// iterations per target strategy.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Sampled iterations (paper: 101, 120, 140, 160, 180, 200).
    pub iterations: Vec<u64>,
    /// `(strategy label, losses at each sampled iteration)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table3 {
    /// Build from a Fig. 6 curve set.
    pub fn from_curves(set: &CurveSet, sched: Schedule) -> Table3 {
        let iterations = sched.sample_points();
        let rows = set
            .resumed
            .iter()
            .map(|c| {
                let losses = iterations
                    .iter()
                    .map(|it| c.at(*it).unwrap_or(f64::NAN))
                    .collect();
                (c.label.clone(), losses)
            })
            .collect();
        Table3 { iterations, rows }
    }

    /// Paper-style table rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("Table 3: training losses after loading UCP checkpoints\n");
        out.push_str(&format!("{:<24}", "target strategy"));
        for it in &self.iterations {
            out.push_str(&format!("  loss@{it:<5}"));
        }
        out.push('\n');
        for (label, losses) in &self.rows {
            out.push_str(&format!("{label:<24}"));
            for l in losses {
                out.push_str(&format!("  {l:<10.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Fig. 7: multiple GPT sources to a single target (TP2·PP2·DP1).
pub fn fig7(fast: bool) -> CurveSet {
    let sched = Schedule::new(fast);
    let seed = 2025;
    let model = ModelConfig::gpt3_tiny();
    use ZeroStage::{Zero1, Zero2, Zero3};
    let sources = vec![
        ParallelConfig::new(1, 1, 1, 1, Zero1),
        ParallelConfig::new(2, 1, 2, 1, Zero1),
        ParallelConfig::new(1, 2, 2, 1, Zero1),
        ParallelConfig::new(2, 2, 1, 1, Zero1),
        ParallelConfig::new(1, 1, 4, 1, Zero2),
        ParallelConfig::new(1, 1, 2, 1, Zero3),
    ];
    let target_parallel = ParallelConfig::new(2, 2, 1, 1, Zero1);
    let target = experiment_config(model.clone(), target_parallel, seed, sched.total);
    // All sources share the seed, so one uninterrupted run is the baseline
    // for every resumed curve.
    let baseline_cfg = experiment_config(model.clone(), sources[0], seed, sched.total);
    let baseline = run_baseline(&baseline_cfg, sched);

    let mut resumed = Vec::new();
    for src_parallel in sources {
        let dir = scratch_dir(&format!("fig7_{}", src_parallel.label()));
        let source = experiment_config(model.clone(), src_parallel, seed, sched.total);
        run_source(&source, &dir, sched);
        let mut curve = resume_target(&target, &dir, sched);
        curve.label = format!("from {}", src_parallel.label());
        resumed.push(curve);
        std::fs::remove_dir_all(&dir).ok();
    }
    CurveSet {
        title: "Fig. 7: multiple Sources → one Target (TP2/PP2/DP1)".into(),
        source_label: "various".into(),
        ckpt_iteration: sched.ckpt,
        baseline,
        resumed,
    }
}

/// Fig. 8: LLaMA architecture, TP2·PP2·DP2 → {TP2·PP1·DP2, TP2·PP2·DP1}.
pub fn fig8(fast: bool) -> CurveSet {
    arch_experiment(
        "Fig. 8: LLaMA-scaled architecture",
        ModelConfig::llama_tiny(),
        ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1),
        vec![
            ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
            ParallelConfig::new(2, 2, 1, 1, ZeroStage::Zero1),
        ],
        2026,
        fast,
    )
}

/// Fig. 9: BLOOM architecture (24 layers), TP2·PP6·DP2 → TP2·PP6·DP1
/// (elastic shrink; the paper's TP2·PP24·DP8 → DP4 scaled down per the
/// DESIGN.md substitution table).
pub fn fig9(fast: bool) -> CurveSet {
    arch_experiment(
        "Fig. 9: BLOOM-scaled architecture (elastic shrink)",
        ModelConfig::bloom_tiny(),
        ParallelConfig::new(2, 6, 2, 1, ZeroStage::Zero1),
        vec![ParallelConfig::new(2, 6, 1, 1, ZeroStage::Zero1)],
        2027,
        fast,
    )
}

/// Fig. 10: Mixtral-style MoE, TP1·PP2·DP4 → TP2·PP2·DP2.
pub fn fig10(fast: bool) -> CurveSet {
    arch_experiment(
        "Fig. 10: Mixtral-MoE-scaled architecture",
        ModelConfig::moe_tiny(),
        ParallelConfig::new(1, 2, 4, 1, ZeroStage::Zero1),
        vec![ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1)],
        2028,
        fast,
    )
}

fn arch_experiment(
    title: &str,
    model: ModelConfig,
    src_parallel: ParallelConfig,
    targets: Vec<ParallelConfig>,
    seed: u64,
    fast: bool,
) -> CurveSet {
    let sched = Schedule::new(fast);
    let dir = scratch_dir(&format!("arch_{}", src_parallel.label()));
    let source = experiment_config(model.clone(), src_parallel, seed, sched.total);
    run_source(&source, &dir, sched);
    let baseline = run_baseline(&source, sched);
    let resumed = targets
        .into_iter()
        .map(|t| {
            let cfg = experiment_config(model.clone(), t, seed, sched.total);
            resume_target(&cfg, &dir, sched)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    CurveSet {
        title: title.into(),
        source_label: src_parallel.label(),
        ckpt_iteration: sched.ckpt,
        baseline,
        resumed,
    }
}

/// Supplementary resilience experiment (the paper's Fig. 1 scenario as a
/// measured curve): a GPT run loses half its 8 "GPUs" mid-training,
/// continues on 4 via UCP, then scales back out to 8 — stitched against an
/// uninterrupted baseline.
pub fn elastic_demo(fast: bool) -> CurveSet {
    let sched = Schedule::new(fast);
    let seed = 2029;
    let model = ModelConfig::gpt3_tiny();
    let full = ParallelConfig::new(2, 1, 4, 1, ZeroStage::Zero1);
    let degraded = ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1);
    let base_cfg = experiment_config(model, full, seed, sched.total);

    let baseline = run_baseline(&base_cfg, sched);

    let third = sched.total / 3;
    let phases = [
        ElasticPhase {
            parallel: full,
            until_iteration: third,
        },
        ElasticPhase {
            parallel: degraded,
            until_iteration: 2 * third,
        },
        ElasticPhase {
            parallel: full,
            until_iteration: sched.total,
        },
    ];
    let dir = scratch_dir("elastic_demo");
    let results = run_elastic(base_cfg, &phases, &dir).expect("elastic schedule");
    std::fs::remove_dir_all(&dir).ok();
    let stitched = Curve {
        label: "elastic 8→4→8 GPUs (UCP)".into(),
        points: results.into_iter().flat_map(|r| r.losses).collect(),
    };
    CurveSet {
        title: "Elastic resilience: GPU failure at 1/3, recovery at 2/3 (paper Fig. 1 scenario)"
            .into(),
        source_label: full.label(),
        ckpt_iteration: third,
        baseline,
        resumed: vec![stitched],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sample_points() {
        let s = Schedule {
            total: 200,
            ckpt: 100,
        };
        assert_eq!(s.sample_points(), vec![101, 120, 140, 160, 180, 200]);
        let f = Schedule::new(true);
        assert!(f.sample_points().first() == Some(&(f.ckpt + 1)));
    }

    #[test]
    fn fig6_target_list_matches_table3() {
        let t = fig6_targets();
        assert_eq!(t.len(), 11);
        assert_eq!(t[0].label(), "tp2_pp2_dp2_sp1_z1");
        assert_eq!(t[4].label(), "tp1_pp1_dp2_sp2_z1");
        assert_eq!(t[10].label(), "tp1_pp1_dp4_sp1_z3");
    }
}
