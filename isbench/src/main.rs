//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path isbench/Cargo.toml -- \
//!     --workload prove-table1|explore-large|serve-edit --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for about `S` seconds, checks every output, prints a
//! human-readable summary and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced, the per-layer metrics traced. See `README.md` for the layer
//! map and the reasons behind each metric.

mod explore;
mod prove;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units.
/// `op_ms` is the time of the workload's unit of work: a Table-1 pass
/// (mean over the run), an explore call (geometric mean over the items of
/// each item's mean) or a daemon request (median over the run).
const END_TO_END: &[(&str, &str)] = &[("op_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// The per-layer metrics of the traced run, with their units. Every traced
/// run prints all of them; a layer the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // prove-table1
    ("prove.pass_s.p50", "s"),
    ("protocols.verify_s.broadcast", "s"),
    ("protocols.verify_s.ping-pong", "s"),
    ("protocols.verify_s.producer-consumer", "s"),
    ("protocols.verify_s.n-buyer", "s"),
    ("protocols.verify_s.chang-roberts", "s"),
    ("protocols.verify_s.two-phase-commit", "s"),
    ("protocols.verify_s.paxos", "s"),
    ("protocols.rest_s", "s"),
    ("core.premise_s.abstraction", "s"),
    ("core.premise_s.i1", "s"),
    ("core.premise_s.i2", "s"),
    ("core.premise_s.i3", "s"),
    ("core.premise_s.co", "s"),
    ("mover.lm_s", "s"),
    ("mover.cache_hits", "count"),
    ("mover.cache_misses", "count"),
    ("mover.pairwise_checks", "count"),
    ("kernel.explore_s", "s"),
    ("kernel.intern_hits", "count"),
    ("kernel.intern_misses", "count"),
    ("lang.vm_evals", "count"),
    ("lang.compile_s", "s"),
    // explore-large
    ("explore.configs_per_s.w1", "1/s"),
    ("explore.configs_per_s.w2", "1/s"),
    ("explore.reduced_s", "s"),
    ("lang.vm_evals.broadcast-n6", "count"),
    ("lang.vm_evals.producer-consumer-k256", "count"),
    ("lang.vm_evals.paxos-r3n2", "count"),
    ("lang.vm_evals.chang-roberts-n8", "count"),
    ("engine.explore_s.broadcast-n6.w1", "s"),
    ("engine.explore_s.broadcast-n6.w2", "s"),
    ("engine.explore_s.producer-consumer-k256.w1", "s"),
    ("engine.explore_s.producer-consumer-k256.w2", "s"),
    ("engine.explore_s.paxos-r3n2.w1", "s"),
    ("engine.explore_s.paxos-r3n2.w2", "s"),
    ("engine.explore_s.chang-roberts-n8.w1", "s"),
    ("engine.explore_s.chang-roberts-n8.w2", "s"),
    ("engine.explore_s.paxos-r4n2.both", "s"),
    ("engine.explore_s.producer-consumer-k256.por", "s"),
    ("engine.evals_per_edge.broadcast-n6", "ratio"),
    ("engine.evals_per_edge.producer-consumer-k256", "ratio"),
    ("engine.evals_per_edge.paxos-r3n2", "ratio"),
    ("engine.evals_per_edge.chang-roberts-n8", "ratio"),
    ("engine.steals.w2", "count"),
    ("engine.stolen.w2", "count"),
    ("engine.max_shard_share.w2", "ratio"),
    ("engine.reduce.pruned", "count"),
    ("engine.reduce.orbit_collapses", "count"),
    ("kernel.cintern.lock_waits.w2", "count"),
    ("kernel.cintern.lock_wait_s.w2", "s"),
    // serve-edit
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.p99", "ms"),
    ("serve.ack_ms.p50", "ms"),
    ("serve.verdict_after_ack_ms.p50", "ms"),
    ("serve.latency_ms.warm.p50", "ms"),
    ("serve.latency_ms.warm.p99", "ms"),
    ("serve.latency_ms.edit.p50", "ms"),
    ("serve.latency_ms.edit.p99", "ms"),
    ("serve.latency_ms.cold.p50", "ms"),
    ("serve.latency_ms.cold.p99", "ms"),
    ("core.incr.full_hit_ratio", "ratio"),
    ("core.incr.full_lookups", "count"),
    ("core.incr.obligation_hit_ratio", "ratio"),
    ("core.incr.obligation_lookups", "count"),
    ("core.incr.rerun_obligations_per_edit", "count"),
    ("core.incr.cached_obligations", "count"),
    ("serve.known_programs", "count"),
    // every workload
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (verify calls, explore calls, requests).
    pub attempted: u64,
    /// Attempted operations whose output was wrong or missing, one line each.
    pub failures: Vec<String>,
    /// Harness-level problems: an output could not be checked, or a count
    /// that must be deterministic drifted. Any problem makes `correct` false.
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form summary lines for the human-readable output.
    pub notes: Vec<String>,
    /// Counts that must repeat within the run, by key: the first value seen.
    pub counts: BTreeMap<String, u64>,
}

impl Report {
    /// Sets a per-layer metric; panics on a name missing from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Sets an end-to-end metric; panics on a name missing from [`END_TO_END`].
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Records a count that must repeat within the run: the first value
    /// under `key` is kept, and a later different one is a problem.
    pub fn repeat(&mut self, key: String, value: u64) {
        match self.counts.get(&key) {
            None => {
                self.counts.insert(key, value);
            }
            Some(&first) if first != value => {
                self.problems
                    .push(format!("count drift: {key} was {first}, now {value}"));
            }
            Some(_) => {}
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return serve::daemon_main();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let report = match args.workload.as_str() {
        "prove-table1" => prove::run(args.seed, args.seconds, &mut tracer),
        "explore-large" => explore::run(args.seconds, &mut tracer),
        "serve-edit" => serve::run(args.seed, args.seconds, &mut tracer),
        other => {
            eprintln!("isbench: unknown workload `{other}` (expected prove-table1, explore-large or serve-edit)");
            return ExitCode::from(2);
        }
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("isbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed();
    report.layer("trace.overhead_pct", 100.0 * tracer.overhead_share(wall));
    if tracer.enabled() {
        let path = trace::spans_path(&args.workload, args.seed);
        match tracer.write(&path) {
            Ok(()) => report.notes.push(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => report
                .problems
                .push(format!("writing spans to {}: {e}", path.display())),
        }
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let values = if args.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    let mut unmeasured = Vec::new();
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            // A layer this workload never calls did no work in it.
            let value = match values.get(name) {
                Some(v) => *v,
                None if args.trace => 0.0,
                None => f64::NAN,
            };
            if !value.is_finite() {
                unmeasured.push(*name);
            }
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    if !unmeasured.is_empty() {
        report
            .problems
            .push(format!("metrics not measured: {unmeasured:?}"));
    }

    // Human-readable summary first; the JSON result is the last line.
    println!(
        "isbench {} seed {} ({:.1} s wall, trace {})",
        args.workload,
        args.seed,
        wall.as_secs_f64(),
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (kind, catalogue, values) in [
        ("end-to-end", END_TO_END, &report.end_to_end),
        ("layer", PER_LAYER, &report.layers),
    ] {
        for (name, unit) in catalogue {
            if let Some(v) = values.get(name) {
                println!("  {kind:<10} {name:<44} {v:>16.6} {unit}");
            }
        }
    }
    for failure in &report.failures {
        println!("  FAILED {failure}");
    }
    for problem in &report.problems {
        println!("  PROBLEM {problem}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
