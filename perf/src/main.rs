//! End-to-end and per-layer benchmark of the ICPE system.
//!
//! ```text
//! icpe-perf --workload <convoy|hotspot|fleet-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's input from the seed, runs the serial oracle on it
//! (outside every timed window), then measures:
//!
//! * `--trace 0` — end-to-end metrics with tracing off: closed-loop
//!   throughput and set-up time, peak resident set, and delivery latency
//!   over an open-loop ladder of fixed rates;
//! * `--trace 1` — per-layer metrics: generator lag at the ladder's ends,
//!   the pipeline's metric registry, and a traced single-threaded replay
//!   through each layer's public functions (spans written to
//!   `.perf-out/spans-<workload>-<seed>.jsonl`).
//!
//! Every pass must reproduce the oracle's sealed pattern multiset and late
//! count; any difference exits non-zero. The last stdout line is the JSON
//! result `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod measure;
mod oracle;
mod prom;
mod replay;
mod stats;
mod sys;
mod trace;
mod workload;

use measure::{Run, WorkDirs};
use std::path::Path;
use std::process::ExitCode;
use workload::Spec;

/// Where checkpoints and span files go, inside the working directory.
const OUT_DIR: &str = ".perf-out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// The measured program must see only the benchmark's own settings: its
/// `ServeConfig::new` reads `ICPE_*` variables, so any set one is refused.
fn refuse_icpe_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ICPE_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn result_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    )
}

fn bench(args: &Args) -> Result<Run, String> {
    refuse_icpe_env()?;
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (convoy, hotspot, fleet-serve)",
            args.workload
        )
    })?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let dirs = WorkDirs::new(OUT_DIR);

    let input = spec.input(args.seed);
    let oracle = oracle::run(&spec.effective_engine(), &input.records);
    eprintln!(
        "{} seed {}: {} records, {} ticks, {} oracle patterns, {} late, serial oracle {:.0} \
         rec/s; host cpus {}",
        spec.name,
        args.seed,
        input.records.len(),
        input.tick_last_pos.len(),
        oracle.patterns.len(),
        oracle.late,
        input.records.len() as f64 / oracle.elapsed_s,
        sys::host_cpus()
    );
    let rss_base_kb = sys::rss_kb()?;
    if args.trace {
        let spans = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
        measure::per_layer(&spec, &input, &oracle, args.seconds, &dirs, &spans)
    } else {
        measure::end_to_end(&spec, &input, &oracle, args.seconds, &dirs, rss_base_kb)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("icpe-perf: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(run) => {
            println!("{}", result_line(&run));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("icpe-perf: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
