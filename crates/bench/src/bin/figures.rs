//! Regenerates the paper's evaluation tables and figures.
//!
//! ```text
//! figures --experiment all [--fast]
//! figures --experiment fig6          # also emits Table 3
//! figures --experiment cadence       # the --save-every sweep CI gates
//! ```
//!
//! Text renderings go to stdout; machine-readable CSV/TXT artifacts are
//! written under `results/` (override with `UCP_RESULTS_DIR`). The
//! efficiency figures additionally land as `BENCH_fig*.json` in the
//! `ucp-metrics-v1` schema shared with `ucp --metrics-out`.

use ucp_bench::cadence;
use ucp_bench::correctness::{
    elastic_demo, fig10, fig6, fig7, fig8, fig9, CurveSet, Schedule, Table3,
};
use ucp_bench::efficiency::{fig11, fig12};
use ucp_bench::load_scaling::fig13;
use ucp_bench::report::{curves_to_csv, write_artifact};

/// Every experiment `--experiment` accepts, in the order `all` runs them.
const EXPERIMENTS: [&str; 10] = [
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "elastic", "cadence",
];

fn usage() -> ! {
    eprintln!(
        "usage: figures --experiment <{}|all> [--fast]",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2)
}

/// Write one artifact under the results directory. CI gates read these
/// files, so one that cannot be written fails the run here rather than
/// one step later as a missing file.
fn emit(name: &str, contents: &str) {
    match write_artifact(name, contents) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {name}: {e}");
            std::process::exit(1)
        }
    }
}

fn emit_curves(name: &str, set: &CurveSet) {
    println!("{}", set.render());
    let mut curves = vec![set.baseline.clone()];
    curves.extend(set.resumed.iter().cloned());
    emit(&format!("{name}.csv"), &curves_to_csv(&curves));
    emit(&format!("{name}.txt"), &set.render());
}

fn run(which: &str, fast: bool) {
    match which {
        "fig6" => {
            let set = fig6(fast);
            emit_curves("fig6", &set);
            let table = Table3::from_curves(&set, Schedule::new(fast));
            println!("{}", table.render());
            emit("table3.txt", &table.render());
        }
        "fig7" => emit_curves("fig7", &fig7(fast)),
        "fig8" => emit_curves("fig8", &fig8(fast)),
        "fig9" => emit_curves("fig9", &fig9(fast)),
        "fig10" => emit_curves("fig10", &fig10(fast)),
        "elastic" => emit_curves("elastic", &elastic_demo(fast)),
        "fig11" => {
            let r = fig11();
            println!("{}", r.render());
            emit("fig11.txt", &r.render());
            emit("BENCH_fig11.json", &r.to_report().to_json());
        }
        "fig12" => {
            let r = fig12();
            println!("{}", r.render());
            emit("fig12.txt", &r.render());
            emit("BENCH_fig12.json", &r.to_report().to_json());
        }
        "fig13" => {
            let r = fig13(fast);
            println!("{}", r.render());
            emit("fig13.txt", &r.render());
            // BENCH_load.json feeds the CI read-amplification gate.
            emit("BENCH_load.json", &r.to_report().to_json());
        }
        "cadence" => {
            let r = cadence::run(fast);
            println!("{}", r.render());
            emit("cadence.txt", &r.render());
            // BENCH_cadence.json feeds the CI per-iteration cadence gate.
            emit("BENCH_cadence.json", &r.to_report().to_json());
        }
        "all" => {
            for exp in EXPERIMENTS {
                run(exp, fast);
            }
        }
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = None;
    let mut fast = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" | "-e" => {
                i += 1;
                which = args.get(i).cloned();
            }
            "--fast" => fast = true,
            _ => usage(),
        }
        i += 1;
    }
    let Some(which) = which else { usage() };
    run(&which, fast);
}
