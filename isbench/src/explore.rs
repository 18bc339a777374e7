//! `explore-large`: exploration throughput on the large tier.
//!
//! `ParallelExplorer` runs the first four `large_exploration_cases()`
//! unreduced at 1 and at 2 workers, plus two reduced items at 1 worker:
//! Paxos R=4 N=2 under `Both` and Producer-Consumer K=256 under `Por`.
//! Items run round-robin in a fixed order until the time is up, so host
//! drift hits every item alike. The inputs do not depend on the seed.
//!
//! `peak_rss_mb` is the peak over the first round's six single-worker
//! calls, which run first on a fresh heap and repeat to the megabyte. The
//! two-worker calls leave allocator arenas behind whose reuse varies with
//! thread scheduling: a peak over the whole run moved between 384 and
//! 508 MB, with how many rounds the host's speed allowed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use inseq_engine::{ParallelExplorer, Reducer};
use inseq_kernel::ReduceMode;
use inseq_obs::EngineSnapshot;
use inseq_protocols::common::ExplorationCase;
use inseq_protocols::large_exploration_cases;

use crate::stats::{geomean, mean, median, secs};
use crate::trace::Tracer;
use crate::Report;

/// One explore call of a round.
struct Item {
    /// Sample key, e.g. `paxos-r3n2.w2`.
    key: &'static str,
    /// Index into `large_exploration_cases()`.
    case: usize,
    workers: usize,
    reduce: ReduceMode,
    /// Visited configurations and edges the call must report: the
    /// `large_exploration_cases()` doc table unreduced, the deterministic
    /// single-worker counts reduced.
    expected: (usize, usize),
    /// The per-layer metric of the item's median explore time.
    metric: &'static str,
}

const fn item(
    key: &'static str,
    case: usize,
    workers: usize,
    reduce: ReduceMode,
    expected: (usize, usize),
    metric: &'static str,
) -> Item {
    Item {
        key,
        case,
        workers,
        reduce,
        expected,
        metric,
    }
}

/// The calls of a round, in the order they run: single-worker calls first.
const ITEMS: [Item; 10] = [
    item(
        "broadcast-n6.w1",
        0,
        1,
        ReduceMode::Off,
        (128, 385),
        "engine.explore_s.broadcast-n6.w1",
    ),
    item(
        "producer-consumer-k256.w1",
        1,
        1,
        ReduceMode::Off,
        (33_154, 65_793),
        "engine.explore_s.producer-consumer-k256.w1",
    ),
    item(
        "paxos-r3n2.w1",
        2,
        1,
        ReduceMode::Off,
        (54_873, 245_509),
        "engine.explore_s.paxos-r3n2.w1",
    ),
    item(
        "chang-roberts-n8.w1",
        3,
        1,
        ReduceMode::Off,
        (362_881, 2_239_345),
        "engine.explore_s.chang-roberts-n8.w1",
    ),
    item(
        "paxos-r4n2.both",
        5,
        1,
        ReduceMode::Both,
        (3_139, 11_567),
        "engine.explore_s.paxos-r4n2.both",
    ),
    item(
        "producer-consumer-k256.por",
        1,
        1,
        ReduceMode::Por,
        (32_140, 63_765),
        "engine.explore_s.producer-consumer-k256.por",
    ),
    item(
        "broadcast-n6.w2",
        0,
        2,
        ReduceMode::Off,
        (128, 385),
        "engine.explore_s.broadcast-n6.w2",
    ),
    item(
        "producer-consumer-k256.w2",
        1,
        2,
        ReduceMode::Off,
        (33_154, 65_793),
        "engine.explore_s.producer-consumer-k256.w2",
    ),
    item(
        "paxos-r3n2.w2",
        2,
        2,
        ReduceMode::Off,
        (54_873, 245_509),
        "engine.explore_s.paxos-r3n2.w2",
    ),
    item(
        "chang-roberts-n8.w2",
        3,
        2,
        ReduceMode::Off,
        (362_881, 2_239_345),
        "engine.explore_s.chang-roberts-n8.w2",
    ),
];

/// Unreduced visited count of each reduced item's instance: a reduction
/// may never visit more.
fn unreduced_bound(key: &str) -> usize {
    match key {
        "paxos-r4n2.both" => 2_085_137,
        _ => 33_154,
    }
}

/// The four unreduced instances: name, visited configs, and the per-layer
/// metrics of their single-worker VM evals and evals per edge.
const INSTANCES: [(&str, usize, &str, &str); 4] = [
    (
        "broadcast-n6",
        128,
        "lang.vm_evals.broadcast-n6",
        "engine.evals_per_edge.broadcast-n6",
    ),
    (
        "producer-consumer-k256",
        33_154,
        "lang.vm_evals.producer-consumer-k256",
        "engine.evals_per_edge.producer-consumer-k256",
    ),
    (
        "paxos-r3n2",
        54_873,
        "lang.vm_evals.paxos-r3n2",
        "engine.evals_per_edge.paxos-r3n2",
    ),
    (
        "chang-roberts-n8",
        362_881,
        "lang.vm_evals.chang-roberts-n8",
        "engine.evals_per_edge.chang-roberts-n8",
    ),
];

/// One set-up sample: construct the large-tier cases and compile every
/// action of each.
fn setup_sample() -> (Vec<ExplorationCase>, Duration) {
    let start = Instant::now();
    let cases = large_exploration_cases();
    for case in &cases {
        case.program.prepare_actions();
    }
    (cases, start.elapsed())
}

/// What one explore call reported.
struct Sample {
    secs: f64,
    snapshot: EngineSnapshot,
}

pub fn run(seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (cases, first_setup) = setup_sample();
    let mut setups = vec![secs(first_setup)];
    let mut samples: BTreeMap<&'static str, Vec<Sample>> = BTreeMap::new();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut calls = 0usize;
    let single_worker_calls = ITEMS.iter().filter(|i| i.workers == 1).count();
    let mut single_worker_rss = None;
    while started.elapsed() < deadline {
        if calls == single_worker_calls {
            single_worker_rss = crate::stats::peak_rss_mb(None);
        }
        let item = &ITEMS[calls % ITEMS.len()];
        let round = calls / ITEMS.len();
        calls += 1;
        setups.push(secs(setup_sample().1));
        let case = &cases[item.case];
        let reducer = match &case.symmetry {
            Some(spec) => Reducer::new(item.reduce).with_symmetry(spec.clone()),
            None => Reducer::new(item.reduce),
        };
        let mut explorer = ParallelExplorer::new(&case.program).with_workers(item.workers);
        if item.reduce != ReduceMode::Off {
            explorer = explorer.with_reduction(&reducer);
        }
        let evals_before = case.program.exec_stats().vm_evals;
        report.attempted += 1;
        let (result, dur) = tracer.time(format!("round{round}/{}", item.key), || {
            explorer.explore([case.init.clone()])
        });
        let evals = case.program.exec_stats().vm_evals - evals_before;
        let exp = match result {
            Ok(exp) => exp,
            Err(e) => {
                report
                    .failures
                    .push(format!("round {round}: {}: {e}", item.key));
                continue;
            }
        };
        let (visited, edges) = (exp.config_count(), exp.edge_count());
        let wrong = if exp.has_failure() {
            Some("reports a failing configuration".to_owned())
        } else if item.reduce != ReduceMode::Off && visited > unreduced_bound(item.key) {
            Some(format!(
                "reduced run visited {visited}, more than unreduced"
            ))
        } else {
            (item.expected != (visited, edges)).then(|| {
                format!(
                    "visited {visited} / {edges} edges, expected {} / {}",
                    item.expected.0, item.expected.1
                )
            })
        };
        if let Some(why) = wrong {
            report
                .failures
                .push(format!("round {round}: {}: {why}", item.key));
        }
        let snapshot = exp.stats().engine_snapshot();
        if item.workers == 1 {
            report.repeat(format!("{}.visited", item.key), visited as u64);
            report.repeat(format!("{}.edges", item.key), edges as u64);
            report.repeat(format!("{}.vm_evals", item.key), evals);
            report.repeat(format!("{}.pruned", item.key), snapshot.pruned);
            report.repeat(
                format!("{}.orbit_collapses", item.key),
                snapshot.orbit_collapses,
            );
        }
        samples.entry(item.key).or_default().push(Sample {
            secs: secs(dur),
            snapshot,
        });
    }

    let times = |key: &str| -> Vec<f64> {
        samples
            .get(key)
            .map(|s| s.iter().map(|x| x.secs).collect())
            .unwrap_or_default()
    };
    let count = |key: String| report.counts.get(&key).copied().unwrap_or(0) as f64;
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for item in &ITEMS {
        layers.push((item.metric, median(&times(item.key))));
        report.notes.push(format!(
            "{}: {} calls, median {:.4} s, expected {} visited / {} edges",
            item.key,
            times(item.key).len(),
            median(&times(item.key)),
            item.expected.0,
            item.expected.1,
        ));
    }
    for (workers, metric) in [
        ("w1", "explore.configs_per_s.w1"),
        ("w2", "explore.configs_per_s.w2"),
    ] {
        let rates: Vec<f64> = INSTANCES
            .iter()
            .map(|(name, visited, ..)| {
                *visited as f64 / median(&times(&format!("{name}.{workers}")))
            })
            .collect();
        layers.push((metric, geomean(&rates)));
    }
    layers.push((
        "explore.reduced_s",
        geomean(&[
            median(&times("paxos-r4n2.both")),
            median(&times("producer-consumer-k256.por")),
        ]),
    ));
    for (name, _, evals_metric, ratio_metric) in INSTANCES {
        let evals = count(format!("{name}.w1.vm_evals"));
        layers.push((evals_metric, evals));
        layers.push((ratio_metric, evals / count(format!("{name}.w1.edges"))));
    }
    // Reduction counters of the two single-worker reduced items.
    for (what, metric) in [
        ("pruned", "engine.reduce.pruned"),
        ("orbit_collapses", "engine.reduce.orbit_collapses"),
    ] {
        let total = count(format!("paxos-r4n2.both.{what}"))
            + count(format!("producer-consumer-k256.por.{what}"));
        layers.push((metric, total));
    }

    // Work stealing and interner contention at two workers: the sum over
    // the four unreduced instances of each one's median.
    let w2: Vec<&Sample> = ITEMS
        .iter()
        .filter(|i| i.workers == 2)
        .flat_map(|i| samples.get(i.key).into_iter().flatten())
        .collect();
    let per_instance = |f: &dyn Fn(&EngineSnapshot) -> f64| -> f64 {
        ITEMS
            .iter()
            .filter(|i| i.workers == 2)
            .map(|i| {
                let xs: Vec<f64> = samples
                    .get(i.key)
                    .into_iter()
                    .flatten()
                    .map(|s| f(&s.snapshot))
                    .collect();
                median(&xs)
            })
            .sum()
    };
    layers.push(("engine.steals.w2", per_instance(&|s| s.steals as f64)));
    layers.push(("engine.stolen.w2", per_instance(&|s| s.stolen as f64)));
    layers.push((
        "kernel.cintern.lock_waits.w2",
        per_instance(&|s| s.lock_waits as f64),
    ));
    layers.push((
        "kernel.cintern.lock_wait_s.w2",
        per_instance(&|s| s.lock_wait_nanos as f64 * 1e-9),
    ));
    let merged = w2
        .iter()
        .fold(EngineSnapshot::default(), |acc, s| acc.merged(&s.snapshot));
    layers.push(("engine.max_shard_share.w2", merged.max_shard_share()));

    let means: Vec<f64> = ITEMS.iter().map(|i| mean(&times(i.key))).collect();
    report
        .notes
        .push(format!("{calls} explore calls over {} items", ITEMS.len()));
    report.e2e("op_ms", 1e3 * geomean(&means));
    report.e2e("setup_s", median(&setups));
    report.e2e(
        "peak_rss_mb",
        single_worker_rss
            .or_else(|| crate::stats::peak_rss_mb(None))
            .ok_or("cannot read VmHWM")?,
    );
    for (name, value) in layers {
        report.layer(name, value);
    }
    Ok(report)
}
