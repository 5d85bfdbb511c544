//! One seeded benchmark for the containment service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <registry_hot|audit_batch|stream_revalidate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The seed fixes every input; the program
//! under test only sees what the generators build from it. With `--trace 0`
//! the last line of stdout carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a traced run, whose spans are written
//! to `perfbench/out/`. Any wrong answer makes the run exit non-zero.

mod audit;
mod open_loop;
mod oracle;
mod registry;
mod report;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// What every workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Pool workers and generator threads: the host's available parallelism.
    pub cores: usize,
}

impl Ctx {
    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from("perfbench/out")
            .join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// The seed of repetition `index` of a run seeded with `seed`: rounds and
/// cycles draw fresh inputs, all fixed by the run's seed.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..=index)
        .map(|_| rng.next_u64())
        .last()
        .expect("non-empty range")
}

const WORKLOADS: &[&str] = &["registry_hot", "audit_batch", "stream_revalidate"];

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        cores: report::cores(),
    })
}

fn main() -> ExitCode {
    let cleared = report::pin_environment();
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    println!(
        "# host cores={} rustc=\"{}\" commit={} cleared_env={:?}",
        ctx.cores,
        env!("PERFBENCH_RUSTC"),
        report::commit(),
        cleared
    );
    let report: Report = match ctx.workload.as_str() {
        "registry_hot" => registry::run(&ctx),
        "audit_batch" => audit::run(&ctx),
        _ => stream::run(&ctx),
    };
    if let Err(e) = report.print(ctx.trace) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
