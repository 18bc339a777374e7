//! A coverage signature is a property of the measured program alone.
//!
//! Another thread that keeps the register VM busy on an unrelated program —
//! a concurrently running test, a daemon request, a second campaign — must
//! not move the signature by a single bit. The measured program's actions
//! record into their own sink, so evaluations of any other program cannot
//! reach it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use inseq_fuzz::corpus::zoo_specs;
use inseq_fuzz::coverage::{measure_battery, MeasureOptions};
use inseq_kernel::ActionSemantics;
use inseq_lang::build::*;
use inseq_lang::{DslAction, GlobalDecls, Sort};

/// Rounds measured under load: each one is a fresh chance for a foreign
/// evaluation to land inside the recorded section.
const NOISY_ROUNDS: usize = 32;

/// An action whose dispatch edges the zoo race never produces:
/// quantifiers, comprehensions, range sets and folds.
fn noise_action() -> Arc<DslAction> {
    let mut globals = GlobalDecls::new();
    globals.declare("y", Sort::Int);
    let globals = Arc::new(globals);
    let squares = image("i", range(int(1), int(12)), mul(var("i"), var("i")));
    let evens = filter(
        "j",
        range(int(0), int(9)),
        eq(mul(var("j"), int(2)), add(var("j"), var("j"))),
    );
    DslAction::build("Noise", &globals)
        .body(vec![assign(
            "y",
            add(
                sum_of(squares),
                ite(
                    and(
                        forall("k", evens.clone(), ge(var("k"), int(0))),
                        exists("k", evens, gt(var("k"), var("y"))),
                    ),
                    max_of(range(int(3), int(7))),
                    size(range(var("y"), int(4))),
                ),
            ),
        )])
        .finish()
        .expect("noise action typechecks")
}

#[test]
fn signature_ignores_concurrent_vm_evaluations_of_another_program() {
    let (name, spec) = zoo_specs()
        .into_iter()
        .find(|(name, _)| name == "zoo-inc-double-race")
        .expect("the zoo ships the inc-double-race protocol");
    let opts = MeasureOptions::default();
    let quiet = measure_battery(&spec, &opts).coverage.signature();

    let noise = noise_action();
    let store = noise.globals().initial_store();
    let stop = AtomicBool::new(false);
    let evals = AtomicU64::new(0);
    let noisy: Vec<String> = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let out = noise.eval(&store, &[]);
                assert!(out.transitions().is_some(), "noise action must not fail");
                evals.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Measure only once the noise is demonstrably running.
        while evals.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let sigs = (0..NOISY_ROUNDS)
            .map(|_| measure_battery(&spec, &opts).coverage.signature())
            .collect();
        stop.store(true, Ordering::Relaxed);
        sigs
    });

    assert!(evals.load(Ordering::Relaxed) > 0);
    for (round, sig) in noisy.iter().enumerate() {
        assert_eq!(
            sig, &quiet,
            "{name}: signature moved while another thread evaluated a different \
             program on the VM (round {round})"
        );
    }
}
