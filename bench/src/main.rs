//! Command line of `ucp-e2e`.
//!
//! ```text
//! ucp-e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!         [--scratch <dir>] [--smoke] [--trace-out <file>]
//! ucp-e2e suite --seeds 1,2,3 [--seconds n] [--layers] [--rev label]
//!         [--workloads a,b] [--out file] [-- <args for every run>]
//! ucp-e2e compare <a.json> <b.json>
//! ucp-e2e manifest
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ucp_e2e::metrics::{RUN_SECONDS, WORKLOADS};
use ucp_e2e::report;
use ucp_e2e::run::{self, Options};
use ucp_e2e::suite::{self, SuiteOptions, FULL_PREFIX};
use ucp_e2e::workloads::Workload;

const USAGE: &str = "usage:
  ucp-e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--scratch <dir>] [--smoke] [--trace-out <file>]
  ucp-e2e suite --seeds <a,b,..> [--seconds <n>] [--layers] [--rev <label>] [--workloads <a,b>] [--out <file>] [-- <run args>]
  ucp-e2e compare <a.json> <b.json>
  ucp-e2e manifest        (prints BENCHMARK.json)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("suite") => run_suite(&args[1..]),
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ucp-e2e: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pull `--flag value` pairs and bare flags out of `args`.
struct Flags<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args,
            used: vec![false; args.len()],
        }
    }

    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, String> {
        let Some(i) = self.args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let v = self
            .args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        self.used[i] = true;
        self.used[i + 1] = true;
        Ok(Some(v))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn present(&mut self, flag: &str) -> bool {
        match self.args.iter().position(|a| a == flag) {
            Some(i) => {
                self.used[i] = true;
                true
            }
            None => false,
        }
    }

    fn rest(&self) -> Vec<&'a String> {
        self.args
            .iter()
            .zip(&self.used)
            .filter(|(_, used)| !**used)
            .map(|(a, _)| a)
            .collect()
    }

    fn finish(&self) -> Result<(), String> {
        match self.rest().first() {
            Some(extra) => Err(format!("unexpected argument {extra:?}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let mut f = Flags::new(args);
    let name = f
        .value("--workload")?
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = match f.value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let opts = Options {
        workload,
        seed: f.parsed("--seed")?.unwrap_or(1),
        seconds: f.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        trace,
        smoke: f.present("--smoke"),
        scratch: f.value("--scratch")?.map(PathBuf::from),
        trace_out: f.value("--trace-out")?.map(PathBuf::from).or_else(|| {
            // By default a traced run leaves its Chrome trace beside the
            // committed results, when run from the repository root.
            let results = PathBuf::from("bench/results");
            (trace && results.is_dir()).then(|| results.join(format!("TRACE_{name}.json")))
        }),
        corrupt_atom: f.present("--corrupt-atom"),
    };
    f.finish()?;
    quiet_injected_panics();
    let report = run::run(&opts)?;
    print!("{}", report::table(&report));
    let full = serde_json::to_string(&report::full_json(&report)).map_err(|e| e.to_string())?;
    println!("{FULL_PREFIX}{full}");
    println!("{}", report::result_line(&report));
    Ok(ExitCode::SUCCESS)
}

/// The kill workload panics a rank on purpose, every pass; keep those
/// (and only those) off stderr.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected fault:") {
            default(info);
        }
    }));
}

fn run_suite(args: &[String]) -> Result<ExitCode, String> {
    let (own, pass_through) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], args[i + 1..].to_vec()),
        None => (args, Vec::new()),
    };
    let mut f = Flags::new(own);
    let list = |v: Option<&str>| -> Vec<String> {
        v.map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_default()
    };
    let seeds = list(f.value("--seeds")?)
        .iter()
        .map(|s| s.parse::<u64>().map_err(|_| format!("bad seed {s:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    if seeds.is_empty() {
        return Err(format!("suite needs --seeds\n{USAGE}"));
    }
    let opts = SuiteOptions {
        seeds,
        seconds: f.parsed("--seconds")?.unwrap_or(RUN_SECONDS),
        workloads: list(f.value("--workloads")?),
        layers: f.present("--layers"),
        rev: f.value("--rev")?.unwrap_or("unknown").to_string(),
        pass_through,
    };
    let out = f.value("--out")?.map(PathBuf::from);
    f.finish()?;
    let set = suite::suite(&opts)?;
    let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
    match out {
        Some(path) => std::fs::write(&path, text + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?,
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let a = suite::read_set(&PathBuf::from(a))?;
    let b = suite::read_set(&PathBuf::from(b))?;
    let (rows, failures) = suite::compare(&a, &b);
    print!("{}", suite::render(&rows, &a, &b));
    if failures.is_empty() {
        println!("verdict: no regression");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            println!("REGRESSED: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}
