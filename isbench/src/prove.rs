//! `prove-table1`: the paper's evaluation in a closed loop.
//!
//! One pass runs `<protocol>::verify` on each of the seven Table-1
//! reference instances (P1 ≼ P2, the IS check, P2 ≼ P′ and the spec), in
//! an order rotated by the seed. Passes repeat until the time is up, so
//! host drift hits every protocol alike. Each pass is preceded by one
//! set-up sample: constructing the seven reference cases and compiling
//! every action.
//!
//! `op_ms` is the mean pass time over the run: host speed drifts between
//! two levels about 1.6x apart for seconds at a time, and a run-wide mean
//! moves less with that mix than the median, which jumps between levels.

use std::time::{Duration, Instant};

use inseq_protocols::common::{CaseError, CaseReport};
use inseq_protocols::{
    broadcast, chang_roberts, exploration_cases, n_buyer, paxos, ping_pong, producer_consumer,
    two_phase_commit,
};

use crate::stats::{mean, median, secs};
use crate::trace::Tracer;
use crate::Report;

/// Protocol keys, in Table-1 order.
const PROTOCOLS: [&str; 7] = [
    "broadcast",
    "ping-pong",
    "producer-consumer",
    "n-buyer",
    "chang-roberts",
    "two-phase-commit",
    "paxos",
];

/// Per-layer metric name of each protocol's verify time, in Table-1 order.
const VERIFY_METRICS: [&str; 7] = [
    "protocols.verify_s.broadcast",
    "protocols.verify_s.ping-pong",
    "protocols.verify_s.producer-consumer",
    "protocols.verify_s.n-buyer",
    "protocols.verify_s.chang-roberts",
    "protocols.verify_s.two-phase-commit",
    "protocols.verify_s.paxos",
];

/// Reachable configurations and edges each protocol's IS check(s) must
/// report on its reference instance, summed over its IS applications.
const EXPECTED: [(usize, usize); 7] = [
    (25, 38),
    (11, 10),
    (16, 21),
    (24, 20),
    (28, 49),
    (160, 392),
    (1_445, 4_645),
];

/// Runs protocol `i`'s full pipeline on its Table-1 reference instance
/// (the instances of `table1`'s Table 1 rows).
fn verify(i: usize) -> Result<CaseReport, CaseError> {
    match i {
        0 => broadcast::verify(&broadcast::Instance::new(&[3, 1, 2])),
        1 => ping_pong::verify(ping_pong::Instance::new(4)),
        2 => producer_consumer::verify(producer_consumer::Instance::new(4)),
        3 => n_buyer::verify(&n_buyer::Instance::new(10, &[6, 6, 9])),
        4 => chang_roberts::verify(&chang_roberts::Instance::new(&[10, 30, 20])),
        5 => two_phase_commit::verify(&two_phase_commit::Instance::new(&[true, false, true])),
        _ => paxos::verify(paxos::Instance::new(2, 2)),
    }
}

/// One set-up sample: construct the seven reference cases and compile
/// every action of each.
fn setup_sample() -> Duration {
    let start = Instant::now();
    for case in exploration_cases() {
        case.program.prepare_actions();
    }
    start.elapsed()
}

/// Per-pass totals of one layer quantity.
#[derive(Default)]
struct PassLayers {
    rest: f64,
    abstraction: f64,
    i1: f64,
    i2: f64,
    i3: f64,
    co: f64,
    lm: f64,
    explore: f64,
    compile: f64,
}

/// The counts one verify call reports; they must repeat on every pass.
fn counts(rep: &CaseReport) -> [(&'static str, u64); 8] {
    let sum = |f: &dyn Fn(&inseq_core::IsReport) -> u64| rep.reports.iter().map(f).sum::<u64>();
    [
        ("configs", sum(&|r| r.reachable_configs as u64)),
        ("edges", sum(&|r| r.edges as u64)),
        ("vm_evals", sum(&|r| r.stats.exec.vm_evals)),
        ("intern_hits", sum(&|r| r.stats.intern.hits)),
        ("intern_misses", sum(&|r| r.stats.intern.misses)),
        ("mover_hits", sum(&|r| r.stats.mover_cache.hits)),
        ("mover_misses", sum(&|r| r.stats.mover_cache.misses)),
        ("pairwise_checks", sum(&|r| r.stats.pairwise_checks)),
    ]
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let rotate = (seed % 7) as usize;
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<f64> = Vec::new();
    let mut verify_s: [Vec<f64>; 7] = Default::default();
    let mut layers: Vec<PassLayers> = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut pass_no = 0usize;
    while started.elapsed() < deadline {
        setups.push(secs(setup_sample()));
        let mut pass = PassLayers::default();
        let mut pass_time = 0.0;
        for k in 0..7 {
            let i = (k + rotate) % 7;
            let name = PROTOCOLS[i];
            report.attempted += 1;
            let start = Instant::now();
            let (result, dur) = tracer.time(format!("pass{pass_no}/{name}::verify"), || verify(i));
            let t = secs(dur);
            pass_time += t;
            verify_s[i].push(t);
            let rep = match result {
                Ok(rep) => rep,
                Err(e) => {
                    report.failures.push(format!("pass {pass_no}: {name}: {e}"));
                    continue;
                }
            };
            let c = counts(&rep);
            let (configs, edges) = (c[0].1 as usize, c[1].1 as usize);
            if EXPECTED[i] != (configs, edges) {
                report.failures.push(format!(
                    "pass {pass_no}: {name}: {configs} configs / {edges} edges, expected {} / {}",
                    EXPECTED[i].0, EXPECTED[i].1
                ));
            }
            for (what, v) in c {
                report.repeat(format!("{name}.{what}"), v);
            }
            // Spans derived from the premise phases the IS check reports,
            // laid end to end from the start of the call.
            let mut premise_total = 0.0;
            let mut offset = Duration::ZERO;
            for is in &rep.reports {
                for phase in &is.stats.premises {
                    let w = secs(phase.wall);
                    premise_total += w;
                    let slot = match phase.name.as_str() {
                        "explore" => &mut pass.explore,
                        n if n.starts_with("(I1)") => &mut pass.i1,
                        n if n.starts_with("(I2)") => &mut pass.i2,
                        n if n.starts_with("(I3)") => &mut pass.i3,
                        n if n.starts_with("(LM)") => &mut pass.lm,
                        n if n.starts_with("(CO)") => &mut pass.co,
                        _ => &mut pass.abstraction,
                    };
                    *slot += w;
                    tracer.record(
                        format!("pass{pass_no}/{name}::verify/{}", phase.name),
                        start + offset,
                        phase.wall,
                    );
                    offset += phase.wall;
                }
                pass.compile += is.stats.exec.compile_nanos as f64 * 1e-9;
            }
            pass.rest += t - premise_total;
        }
        passes.push(pass_time);
        layers.push(pass);
        pass_no += 1;
    }

    report.notes.push(format!(
        "{} passes of 7 verify calls; pass time median {:.4} s, mean {:.4} s",
        passes.len(),
        median(&passes),
        mean(&passes)
    ));
    report.e2e("op_ms", 1e3 * mean(&passes));
    report.e2e("setup_s", median(&setups));
    report.e2e(
        "peak_rss_mb",
        crate::stats::peak_rss_mb(None).ok_or("cannot read VmHWM")?,
    );

    report.layer("prove.pass_s.p50", median(&passes));
    for (i, samples) in verify_s.iter().enumerate() {
        report.layer(VERIFY_METRICS[i], median(samples));
    }
    let per_pass =
        |f: &dyn Fn(&PassLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    report.layer("protocols.rest_s", per_pass(&|p| p.rest));
    report.layer("core.premise_s.abstraction", per_pass(&|p| p.abstraction));
    report.layer("core.premise_s.i1", per_pass(&|p| p.i1));
    report.layer("core.premise_s.i2", per_pass(&|p| p.i2));
    report.layer("core.premise_s.i3", per_pass(&|p| p.i3));
    report.layer("core.premise_s.co", per_pass(&|p| p.co));
    report.layer("mover.lm_s", per_pass(&|p| p.lm));
    report.layer("kernel.explore_s", per_pass(&|p| p.explore));
    report.layer("lang.compile_s", per_pass(&|p| p.compile));
    // Counts per pass: each protocol's count, checked to repeat, summed.
    let counts = report.counts.clone();
    let count = |what: &str| -> f64 {
        PROTOCOLS
            .iter()
            .filter_map(|name| counts.get(&format!("{name}.{what}")))
            .sum::<u64>() as f64
    };
    for (what, metric) in [
        ("mover_hits", "mover.cache_hits"),
        ("mover_misses", "mover.cache_misses"),
        ("pairwise_checks", "mover.pairwise_checks"),
        ("intern_hits", "kernel.intern_hits"),
        ("intern_misses", "kernel.intern_misses"),
        ("vm_evals", "lang.vm_evals"),
    ] {
        report.layer(metric, count(what));
    }
    for (i, name) in PROTOCOLS.iter().enumerate() {
        let get = |what: &str| {
            report
                .counts
                .get(&format!("{name}.{what}"))
                .copied()
                .unwrap_or(0)
        };
        report.notes.push(format!(
            "{name}: median {:.4} s, {} configs, {} edges, {} vm evals",
            median(&verify_s[i]),
            get("configs"),
            get("edges"),
            get("vm_evals")
        ));
    }
    Ok(report)
}
