//! The host record, the environment pin, the engine counters and span
//! totals every workload reports, and the result line.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use shapex::prelude::EngineStats;

use crate::oracle::Tally;
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::Ctx;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them;
/// what each one times, and which percentile `latency_ms` is, is fixed per
/// workload (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.rtt_ms.p50", "ms"),
    ("service.rtt_ms.p99", "ms"),
    ("service.handle_ms.p50", "ms"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.deadline_refused", "count"),
    ("engine.check_ms.p50", "ms"),
    ("engine.check_ms.p99", "ms"),
    ("engine.matrix_ms.p50", "ms"),
    ("engine.coalesced_ratio", "ratio"),
    ("engine.validate_hit_ratio", "ratio"),
    ("engine.embed_hit_ratio", "ratio"),
    ("engine.pool_hit_ratio", "ratio"),
    ("engine.cancelled_branches", "count"),
    ("engine.deadline_exceeded", "count"),
    ("engine.resident_mb", "MB"),
    ("process.peak_rss_mb", "MB"),
    ("unfold.pools_built", "count"),
    ("unfold.candidates_validated", "count"),
    ("unfold.enumerate_ms.total", "ms"),
    ("simulation.embeds_ms.total", "ms"),
    ("simulation.embed_calls", "count"),
    ("det.characterizing_ms.total", "ms"),
    ("presburger.solver_calls", "count"),
    ("presburger.search_nodes", "count"),
    ("presburger.pruned_ratio", "ratio"),
    ("graph.parse_mb_per_s", "MB/s"),
    ("graph.delta_build_ms.total", "ms"),
    ("graph.apply_delta_ms.total", "ms"),
    ("graph.dirty_nodes", "count"),
    ("typing.incremental_ms.p50", "ms"),
    ("typing.incremental_ms.p99", "ms"),
    ("typing.affected_ratio", "ratio"),
    ("typing.full_ms", "ms"),
    ("shex.register_ms.total", "ms"),
    ("bench.send_lateness_p90_ms", "ms"),
    ("bench.undecided", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Environment variables that change engine behaviour behind the
/// benchmark's back; they are cleared before anything is built.
pub const PINNED_ENV: &[&str] = &["SOLVER_THREADS", "SHAPEX_CACHE_BUDGET"];

/// Clear [`PINNED_ENV`] for this process, returning what was set.
pub fn pin_environment() -> Vec<String> {
    let mut cleared = Vec::new();
    for var in PINNED_ENV {
        if let Some(value) = std::env::var_os(var) {
            cleared.push(format!("{var}={}", value.to_string_lossy()));
            std::env::remove_var(var);
        }
    }
    cleared
}

/// Cores the benchmark sizes its pools and generators from.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, when it is a git work tree; the benchmark
/// reads only the checkout's own `.git`, never a parent directory's.
pub fn commit() -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_owned();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&Path::new(".git").join(reference))
            .or_else(|| {
                read(Path::new(".git/packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            })
            .unwrap_or_else(|| "unknown".to_owned()),
        None => head,
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Judged operations.
    pub tally: Tally,
    /// Set when the run must not be trusted (a generator that fell behind).
    pub invalid: Option<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own names of the end-to-end metrics:
    /// `(alias, metric)`.
    pub aliases: Vec<(&'static str, &'static str)>,
    /// Values printed for the record but not gated: `(name, value, unit)`,
    /// `None` when too few samples support it.
    pub info: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Record the process's peak memory: a per-layer metric and a printed
    /// value. It is not an end-to-end metric: which allocator arena each
    /// worker thread draws from changes it by a third from run to run.
    pub fn record_peak_rss(&mut self) {
        let mb = peak_rss_mb();
        self.set("process.peak_rss_mb", mb);
        self.info.push(("peak_rss_mb", Some(mb), "MB"));
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every answer was right and the run is trustworthy.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0 && self.invalid.is_none()
    }

    /// Print the notes, the named metrics and the result line (last line of
    /// stdout). `traced` selects the per-layer set.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for line in &self.notes {
            println!("# {line}");
        }
        if let Some(why) = &self.tally.first_wrong {
            println!("# WRONG ANSWER: {why}");
        }
        if let Some(why) = &self.invalid {
            println!("# INVALID RUN: {why}");
        }
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .expect("every metric is listed")
        };
        for (alias, metric) in &self.aliases {
            if let Some(value) = self.metrics.get(metric) {
                println!("metric {alias} = {value} {} ({metric})", unit(metric));
            }
        }
        for (name, value, unit) in &self.info {
            match value {
                Some(v) => println!("metric {name} = {v} {unit} (printed, not gated)"),
                None => println!("metric {name} = n/a (fewer than 10 samples beyond it)"),
            }
        }
        println!(
            "# answers: {} attempted, {} failed, {} undecided (an Unknown on a pair the baseline decides counts as failed too)",
            self.tally.attempted, self.tally.failed, self.tally.undecided
        );
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in set {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("metric {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

/// The engine's counters summed over `(before, after)` snapshot pairs;
/// `queries` is the number of check or matrix-cell queries in between.
pub fn engine_metrics(report: &mut Report, deltas: &[(EngineStats, EngineStats)], queries: u64) {
    let d = |f: fn(&EngineStats) -> u64| -> u64 { deltas.iter().map(|(b, a)| f(a) - f(b)).sum() };
    report.set(
        "engine.coalesced_ratio",
        ratio(d(|s| s.coalesced_queries), queries),
    );
    let hit_ratio = |hits: u64, misses: u64| ratio(hits, hits + misses);
    report.set(
        "engine.validate_hit_ratio",
        hit_ratio(d(|s| s.validate_hits), d(|s| s.validate_misses)),
    );
    report.set(
        "engine.embed_hit_ratio",
        hit_ratio(d(|s| s.embed_hits), d(|s| s.embed_misses)),
    );
    report.set(
        "engine.pool_hit_ratio",
        hit_ratio(d(|s| s.pool_hits), d(|s| s.pools_built)),
    );
    report.set(
        "engine.cancelled_branches",
        d(|s| s.cancelled_branches) as f64,
    );
    report.set(
        "engine.deadline_exceeded",
        d(|s| s.deadline_exceeded) as f64,
    );
    let resident = deltas.last().map_or(0, |(_, a)| a.resident_bytes());
    report.set("engine.resident_mb", resident as f64 / (1 << 20) as f64);
    report.set("unfold.pools_built", d(|s| s.pools_built) as f64);
    report.set(
        "unfold.candidates_validated",
        d(|s| s.validate_misses) as f64,
    );
    let nodes = d(|s| s.solver_search_nodes);
    report.set("presburger.solver_calls", d(|s| s.solver_calls) as f64);
    report.set("presburger.search_nodes", nodes as f64);
    report.set(
        "presburger.pruned_ratio",
        ratio(d(|s| s.solver_pruned_branches), nodes),
    );
}

/// Registration time from the spans, the span count, and the span file.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, ctx: &Ctx) {
    if !tracer.enabled() {
        return;
    }
    report.set("shex.register_ms.total", tracer.total_ms("shex.register"));
    let path = ctx.trace_path();
    match tracer.write_jsonl(&path) {
        Ok(n) => {
            report.set("trace.spans", n as f64);
            report.note(format!("{n} spans written to {}", path.display()));
        }
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in `BENCHMARK.json` are the ones printed here.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[start..];
            rest[..rest.find(']').expect("section closes")].to_owned()
        };
        let names = |section: &str| -> Vec<(String, String)> {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk[..chunk.find('"').unwrap()].to_owned();
                    let unit_at = chunk.find("\"unit\": \"").unwrap() + 9;
                    let unit =
                        chunk[unit_at..unit_at + chunk[unit_at..].find('"').unwrap()].to_owned();
                    (name, unit)
                })
                .collect()
        };
        let listed = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&section("end_to_end")), listed(END_TO_END));
        assert_eq!(names(&section("per_layer")), listed(PER_LAYER));
    }
}
