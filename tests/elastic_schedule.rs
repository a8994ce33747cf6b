//! An elastic schedule hands each phase boundary over in RAM: the convert
//! writes and publishes the universal tree durably, and the next phase
//! resumes from the atoms that convert assembled, reading none back.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::scratch;
use ucp_repro::model::ModelConfig;
use ucp_repro::parallel::{ParallelConfig, ZeroStage};
use ucp_repro::storage::layout;
use ucp_repro::trainer::{
    run_elastic, train_run, ElasticPhase, ResumeMode, TrainConfig, TrainPlan,
};

#[test]
fn phase_boundaries_resume_from_the_converted_atoms_in_ram() {
    let dir = scratch("elastic_schedule");
    let base = TrainConfig::quick(ModelConfig::gpt3_tiny(), ParallelConfig::single(), 17);
    let phases = [
        ElasticPhase {
            parallel: ParallelConfig::new(2, 1, 2, 1, ZeroStage::Zero1),
            until_iteration: 2,
        },
        ElasticPhase {
            parallel: ParallelConfig::new(1, 2, 2, 1, ZeroStage::Zero2),
            until_iteration: 4,
        },
        ElasticPhase {
            parallel: ParallelConfig::new(2, 1, 1, 1, ZeroStage::Zero1),
            until_iteration: 5,
        },
    ];
    let rec = ucp_repro::telemetry::global();
    rec.reset();
    rec.set_enabled(true);
    let results = run_elastic(base.clone(), &phases, &dir);
    let metrics = rec.report("elastic");
    rec.set_enabled(false);
    let results = results.unwrap();
    assert_eq!(results.len(), phases.len());
    assert_eq!(
        metrics.counter("load/bytes_read").unwrap_or(0),
        0,
        "a resumed phase read atoms back from disk"
    );

    // Each boundary's tree is still written and published, and a resume
    // from it continues exactly as the in-RAM hand-over did.
    for (i, phase) in phases.iter().enumerate().skip(1) {
        let step = phases[i - 1].until_iteration;
        assert!(
            layout::universal_dir(&dir, step)
                .join("manifest.ucpt")
                .is_file(),
            "no universal tree at step {step}"
        );
        let mut config = base.clone();
        config.parallel = phase.parallel;
        let from_disk = train_run(&TrainPlan {
            config,
            until_iteration: phase.until_iteration,
            resume: ResumeMode::Universal {
                dir: dir.clone(),
                step,
            },
            checkpoint_every: None,
            checkpoint_dir: None,
        })
        .unwrap();
        let bits = |losses: &[(u64, f64)]| -> Vec<(u64, u64)> {
            losses.iter().map(|(it, l)| (*it, l.to_bits())).collect()
        };
        assert_eq!(
            bits(&results[i].losses),
            bits(&from_disk.losses),
            "phase {i} diverges from a resume of the step-{step} tree"
        );
    }
    let latest = std::fs::read_to_string(dir.join("latest_universal")).unwrap();
    let newest = layout::universal_dir(&dir, 4);
    assert_eq!(Some(latest.trim().as_ref()), newest.file_name());
    std::fs::remove_dir_all(&dir).ok();
}
