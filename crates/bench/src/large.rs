//! The `table1 --large` tier: exploration throughput on parametric
//! instances, with configs/sec as the headline metric.
//!
//! Unlike the Table 1 rows — which time the *whole* verification pipeline —
//! the large tier times exploration alone, on instances sized to visit
//! 10^4–10^6+ configurations ([`inseq_protocols::large_exploration_cases`]).
//! Each case runs on a selectable engine: the sequential kernel explorer
//! (`seq`) or the work-stealing engine (`steal`). Several engines of one
//! run are interleaved per case, so before/after rows come from adjacent
//! measurements, not separate sessions.
//!
//! Every row cross-checks its visited/edge counts against the other engines
//! of the same case and run — a configuration dropped or duplicated by a
//! parallel engine fails the benchmark instead of silently skewing it.

use std::time::{Duration, Instant};

use inseq_engine::{ParallelExplorer, Reducer};
use inseq_kernel::{Explorer, ReduceMode};
use inseq_obs::EngineSnapshot;
use inseq_protocols::common::{CaseError, ExplorationCase};
use inseq_protocols::large_exploration_cases;

/// Which exploration engine a [`LargeRow`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LargeEngine {
    /// The sequential kernel explorer (`inseq_kernel::Explorer`).
    Seq,
    /// The work-stealing engine (`inseq_engine::ParallelExplorer`).
    Steal,
}

impl LargeEngine {
    /// The CLI name of the engine (`--engine seq|steal`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LargeEngine::Seq => "seq",
            LargeEngine::Steal => "steal",
        }
    }
}

/// Options of one `table1 --large` invocation.
#[derive(Debug, Clone)]
pub struct LargeOptions {
    /// Engines to run, in per-case interleaving order.
    pub engines: Vec<LargeEngine>,
    /// Worker counts for the parallel engines (`seq` ignores this).
    pub workers: Vec<usize>,
    /// Measurement repetitions; rows carry their run index.
    pub runs: usize,
    /// Case-name needles (`--only`), case-insensitive; `None` = all cases.
    pub only: Option<Vec<String>>,
    /// State-space reduction (`--reduce off|por|sym|both`).
    pub reduce: ReduceMode,
    /// Run over the scenario-zoo cases (`table1 --zoo`) — the protocols
    /// promoted from the coverage-guided fuzz campaign
    /// ([`inseq_protocols::zoo`]) — instead of the parametric large
    /// instances. Zoo state spaces are tiny; the tier exists so the zoo's
    /// verdicts get the same cross-engine agreement checks as everything
    /// else, not for throughput numbers.
    pub zoo: bool,
}

impl Default for LargeOptions {
    fn default() -> Self {
        LargeOptions {
            engines: vec![LargeEngine::Steal],
            workers: vec![2, 4],
            runs: 1,
            only: None,
            reduce: ReduceMode::Off,
            zoo: false,
        }
    }
}

/// One measurement: a case explored once by one engine at one worker count.
#[derive(Debug, Clone)]
pub struct LargeRow {
    /// Protocol name as in Table 1.
    pub name: String,
    /// Instance label (e.g. `R = 4, N = 2`).
    pub instance: String,
    /// Engine that ran.
    pub engine: LargeEngine,
    /// Worker threads (always 1 for `seq`).
    pub workers: usize,
    /// Zero-based measurement repetition.
    pub run: usize,
    /// Reduction the row ran under.
    pub reduce: ReduceMode,
    /// Exploration wall clock.
    pub time: Duration,
    /// Visited configurations. Identical across engines when unreduced;
    /// under reduction the count depends on visit order (ample choices and
    /// orbit encounters differ per schedule), so only verdicts are
    /// cross-checked.
    pub visited: usize,
    /// Transition edges (see `visited` for the cross-engine contract).
    pub edges: usize,
    /// Whether any reachable configuration fails a gate (cross-checked
    /// across engines in every mode).
    pub failed: bool,
    /// Engine shape: per-shard occupancy and steal/migration traffic
    /// (default for `seq`).
    pub stats: EngineSnapshot,
}

impl LargeRow {
    /// The headline metric: visited configurations per second.
    #[must_use]
    pub fn configs_per_sec(&self) -> f64 {
        let secs = self.time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)] // display statistic only
            {
                self.visited as f64 / secs
            }
        }
    }
}

/// The machine's core count as reported by the OS, recorded in bench
/// entries so a speedup figure can be read against the hardware it ran on.
#[must_use]
pub fn machine_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn selected_cases(only: Option<&[String]>, zoo: bool) -> Result<Vec<ExplorationCase>, CaseError> {
    let (cases, tier) = if zoo {
        (inseq_protocols::zoo::zoo_exploration_cases(), "--zoo")
    } else {
        (large_exploration_cases(), "--large")
    };
    let Some(needles) = only else {
        return Ok(cases);
    };
    if needles.is_empty() {
        return Err(CaseError::new(
            "--only",
            "no needles given; pass one or more protocol-name fragments".to_owned(),
        ));
    }
    let matched_by = |needle: &String| {
        let needle = needle.to_lowercase();
        move |name: &str| name.to_lowercase().contains(&needle)
    };
    if let Some(unmatched) = needles
        .iter()
        .find(|needle| !cases.iter().any(|c| matched_by(needle)(&c.name)))
    {
        let known: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        return Err(CaseError::new(
            "--only",
            format!("needle `{unmatched}` matches no {tier} case; known cases: {known:?}"),
        ));
    }
    Ok(cases
        .into_iter()
        .filter(|c| needles.iter().any(|needle| matched_by(needle)(&c.name)))
        .collect())
}

/// The reducer for a case: the requested mode, with the case's symmetry
/// group attached when it has one.
fn reducer_for(case: &ExplorationCase, reduce: ReduceMode) -> Reducer {
    match &case.symmetry {
        Some(spec) => Reducer::new(reduce).with_symmetry(spec.clone()),
        None => Reducer::new(reduce),
    }
}

fn explore_once(
    case: &ExplorationCase,
    engine: LargeEngine,
    workers: usize,
    run: usize,
    reduce: ReduceMode,
) -> Result<LargeRow, CaseError> {
    let reducer = reducer_for(case, reduce);
    let start = Instant::now();
    let (visited, edges, failed, stats) = match engine {
        LargeEngine::Seq => {
            let mut explorer = Explorer::new(&case.program);
            if reduce != ReduceMode::Off {
                explorer = explorer.with_reduction(&reducer);
            }
            let exp = explorer
                .explore([case.init.clone()])
                .map_err(|e| CaseError::new(&case.name, e))?;
            let snapshot = EngineSnapshot {
                pruned: exp.pruned(),
                orbit_collapses: exp.orbit_collapses(),
                ..EngineSnapshot::default()
            };
            (
                exp.config_count(),
                exp.edge_count(),
                exp.has_failure(),
                snapshot,
            )
        }
        LargeEngine::Steal => {
            let mut explorer = ParallelExplorer::new(&case.program).with_workers(workers);
            if reduce != ReduceMode::Off {
                explorer = explorer.with_reduction(&reducer);
            }
            let exp = explorer
                .explore([case.init.clone()])
                .map_err(|e| CaseError::new(&case.name, e))?;
            (
                exp.config_count(),
                exp.edge_count(),
                exp.has_failure(),
                exp.stats().engine_snapshot(),
            )
        }
    };
    Ok(LargeRow {
        name: case.name.clone(),
        instance: case.instance.clone(),
        engine,
        workers: if engine == LargeEngine::Seq {
            1
        } else {
            workers
        },
        run,
        reduce,
        time: start.elapsed(),
        visited,
        edges,
        failed,
        stats,
    })
}

/// Runs the large tier and returns one row per (case, run, engine, worker
/// count) in execution order. Engines of the same case and run are
/// interleaved (each engine/worker combination runs back-to-back on the
/// same case), so a before/after comparison reads adjacent measurements.
///
/// # Errors
///
/// Returns the first failing exploration, an unmatched `--only` needle, or
/// a cross-engine disagreement. Unreduced, the engines must agree on
/// visited/edge counts bit-for-bit (a dropped or duplicated configuration
/// in a parallel engine); under `--reduce` the reduced frontier is
/// schedule-dependent, so only the verdict is cross-checked.
pub fn large_rows(opts: &LargeOptions) -> Result<Vec<LargeRow>, CaseError> {
    let cases = selected_cases(opts.only.as_deref(), opts.zoo)?;
    let worker_counts = if opts.workers.is_empty() {
        vec![2]
    } else {
        opts.workers.clone()
    };
    let mut rows = Vec::new();
    for run in 0..opts.runs.max(1) {
        for case in &cases {
            let mut reference: Option<(usize, usize, bool, &'static str, usize)> = None;
            for &workers in &worker_counts {
                for &engine in &opts.engines {
                    if engine == LargeEngine::Seq && workers != worker_counts[0] {
                        continue; // seq has no worker axis; run it once per case+run
                    }
                    let row = explore_once(case, engine, workers, run, opts.reduce)?;
                    if let Some((v, e, f, ref_engine, ref_workers)) = reference {
                        if opts.reduce == ReduceMode::Off && (row.visited != v || row.edges != e) {
                            return Err(CaseError::new(
                                &case.name,
                                format!(
                                    "engine disagreement: {} at {} worker(s) visited {} configs \
                                     ({} edges) but {ref_engine} at {ref_workers} worker(s) \
                                     visited {v} ({e} edges)",
                                    row.engine.name(),
                                    row.workers,
                                    row.visited,
                                    row.edges
                                ),
                            ));
                        }
                        if row.failed != f {
                            return Err(CaseError::new(
                                &case.name,
                                format!(
                                    "verdict disagreement under --reduce {}: {} at {} worker(s) \
                                     reports failed = {} but {ref_engine} at {ref_workers} \
                                     worker(s) reports failed = {f}",
                                    opts.reduce,
                                    row.engine.name(),
                                    row.workers,
                                    row.failed
                                ),
                            ));
                        }
                    } else {
                        reference = Some((
                            row.visited,
                            row.edges,
                            row.failed,
                            row.engine.name(),
                            row.workers,
                        ));
                    }
                    rows.push(row);
                }
            }
        }
    }
    Ok(rows)
}

/// Renders large-tier rows as a text table, configs/sec last.
#[must_use]
pub fn render_large(rows: &[LargeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<14} {:>5} {:>3} {:>3} {:>4} {:>9} {:>10} {:>10} {:>12}\n",
        "Example", "Instance", "eng", "w", "run", "red", "visited", "edges", "time", "configs/sec"
    ));
    out.push_str(&format!("{}\n", "-".repeat(101)));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<14} {:>5} {:>3} {:>3} {:>4} {:>9} {:>10} {:>9.2}s {:>12.0}\n",
            r.name,
            r.instance,
            r.engine.name(),
            r.workers,
            r.run,
            r.reduce.name(),
            r.visited,
            r.edges,
            r.time.as_secs_f64(),
            r.configs_per_sec()
        ));
    }
    out
}

/// The `--stats` section for large rows: engine shape per parallel row.
#[must_use]
pub fn render_large_stats(rows: &[LargeRow]) -> String {
    let mut out = String::from("\nEngine shape (per parallel row):\n");
    for r in rows {
        if r.stats.ran() {
            out.push_str(&format!(
                "  {:<22} {:<14} {:>5} w={}: {}\n",
                r.name,
                r.instance,
                r.engine.name(),
                r.workers,
                r.stats
            ));
        }
    }
    out
}

/// Large-tier rows as a JSON array. Every row records the machine's core
/// count and its worker count so throughput figures stay interpretable.
#[must_use]
pub fn large_rows_as_json(rows: &[LargeRow]) -> String {
    use inseq_core::json;
    let cores = machine_cores();
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"example\": \"{}\", \"instance\": \"{}\", \"engine\": \"{}\", \
             \"workers\": {}, \"machine_cores\": {cores}, \"run\": {}, \
             \"reduce\": \"{}\", \"time_seconds\": {:.6}, \"visited_configs\": {}, \
             \"edges\": {}, \"configs_per_sec\": {:.1}, {}}}",
            json::escape(&r.name),
            json::escape(&r.instance),
            r.engine.name(),
            r.workers,
            r.run,
            r.reduce.name(),
            r.time.as_secs_f64(),
            r.visited,
            r.edges,
            r.configs_per_sec(),
            json::engine_fields(&r.stats),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmatched_needle_is_an_error_not_a_silent_shrink() {
        let err = selected_cases(Some(&["no-such-protocol".to_owned()]), false)
            .expect_err("bogus needle must not silently select nothing");
        assert!(err.to_string().contains("no-such-protocol"));
        assert!(err.to_string().contains("known cases"));
    }

    #[test]
    fn needles_select_case_insensitively() {
        let cases = selected_cases(Some(&["broadcast".to_owned()]), false).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].name, "Broadcast consensus");
    }

    #[test]
    fn empty_needle_list_is_rejected() {
        assert!(selected_cases(Some(&[]), false).is_err());
    }

    #[test]
    fn zoo_tier_selects_the_zoo_roster() {
        let cases = selected_cases(None, true).unwrap();
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["starved-relay", "inc-double-race", "sum-guard"]);
        let err = selected_cases(Some(&["broadcast".to_owned()]), true)
            .expect_err("table 1 protocols are not zoo cases");
        assert!(err.to_string().contains("--zoo"));
    }

    #[test]
    fn zoo_rows_agree_across_engines_including_verdicts() {
        let rows = large_rows(&LargeOptions {
            engines: vec![LargeEngine::Seq, LargeEngine::Steal],
            workers: vec![2],
            zoo: true,
            ..LargeOptions::default()
        })
        .expect("zoo tier must agree across engines");
        assert_eq!(rows.len(), 6, "3 cases × 2 engines");
        assert!(
            rows.iter().any(|r| r.name == "inc-double-race" && r.failed),
            "the race's failure verdict must survive every engine"
        );
        assert!(
            rows.iter().all(|r| r.name != "starved-relay" || !r.failed),
            "starved-relay deadlocks but never fails"
        );
    }

    #[test]
    fn configs_per_sec_is_visited_over_wall() {
        let row = LargeRow {
            name: "x".into(),
            instance: "y".into(),
            engine: LargeEngine::Seq,
            workers: 1,
            run: 0,
            reduce: ReduceMode::Off,
            time: Duration::from_secs(2),
            visited: 10_000,
            edges: 0,
            failed: false,
            stats: EngineSnapshot::default(),
        };
        assert!((row.configs_per_sec() - 5_000.0).abs() < 1e-9);
    }
}
