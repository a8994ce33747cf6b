//! `ucp` — command-line tools for universal checkpoints.
//!
//! The Rust counterpart of DeepSpeed's `ds_to_universal.py`:
//!
//! ```text
//! ucp convert --dir <ckpt-base> [--step N] [--workers W] [--no-verify]
//! ucp load    --dir <ckpt-base> --step N --tp T --pp P --dp D [--rank R] [--mibps M]
//! ucp train   --dir <ckpt-base> --model <preset> --tp T --pp P --dp D [--iters I]
//! ucp inspect --dir <ckpt-base> [--step N]
//! ucp plan    --dir <ckpt-base> --step N --tp T --pp P --dp D [--sp S] [--zero Z] --rank R
//! ucp chaos   --dir <work-dir> --model <preset> --tp T --pp P --dp D
//!             [--kill-steps 2,3,4] [--kinds panic,hang] [--targets 1x1x2;1x1x1]
//! ucp status  --dir <ckpt-base> [--metrics <report.json>] [--json]
//!             [--max-stale-steps N] [--max-recovery-ms MS]
//! ```
//!
//! Every command accepts `--metrics-out <path>` / `--trace-out <path>` to
//! dump a `ucp-metrics-v1` telemetry report / Chrome trace of the run,
//! written whether it succeeded or failed; `status` joins such a report
//! with the checkpoint tree's run journal into an SLO-checked health
//! report.

use std::process::ExitCode;

use ucp_cli::{args, commands};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", args::USAGE);
        return ExitCode::from(2);
    };
    let parsed = match args::parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", args::USAGE);
        return ExitCode::SUCCESS;
    }
    match commands::dispatch(cmd, &parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
