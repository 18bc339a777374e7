//! Property tests for footprint-incremental re-checking.
//!
//! The cache-key scheme in [`inseq_core::incr`] promises that a
//! footprint-disjoint edit can never change the verdict of any obligation
//! that does not involve the edited action. This test randomizes such edits:
//! two-phase commit is extended with an `Audit` action whose body touches
//! only a fresh `audit` global (disjoint from every other action's
//! footprint), the body is drawn from a small grammar of shapes and
//! constants, and the incremental checker is run warm (v2 over v1's cache)
//! and cold (v2 in a fresh cache). The warm run must (a) report the same
//! pass/fail verdict and violated premise as the cold run on every
//! obligation, with bit-identical diagnostics on every obligation it
//! actually recomputed, and (b) serve every obligation not involving
//! `Audit` straight from cache.
//!
//! Cache-served *failing* obligations replay the diagnostic stored by the
//! base run. Witness messages render the full counterexample store — the
//! projected-out `audit` coordinate included — so a replayed message is
//! guaranteed verdict- and premise-accurate but can differ textually from
//! a fresh recomputation in exactly those projected-out coordinates (the
//! same way an incremental compiler replays warnings from the cached run).

use std::collections::BTreeMap;

use proptest::prelude::*;

use inseq_core::{mechanical_application, ArtifactKeys, ObligationCache};
use inseq_engine::Engine;
use inseq_fuzz::corpus::table1_specs;
use inseq_kernel::{ActionName, Value};
use inseq_lang::build::{add, eq, int, var};
use inseq_lang::serial::{action_hash, canonical_hash};
use inseq_lang::spec::{ActionSpec, ProgramSpec, SpecStmt};
use inseq_lang::Sort;

const BUDGET: usize = 4_000;

/// One observed obligation outcome, minus the cache/wall bookkeeping.
type Verdict = (String, bool, Option<String>, Option<String>);

/// Runs the incremental checker on `spec` over `cache`, returning
/// `(verdicts in canonical order, cached flags in the same order)`.
fn run_incremental(
    engine: &Engine,
    cache: &ObligationCache,
    spec: &ProgramSpec,
) -> (Vec<Verdict>, Vec<bool>) {
    let built = spec.build().expect("spec builds");
    let program_key = canonical_hash(spec);
    let mut action_keys: BTreeMap<ActionName, u64> = BTreeMap::new();
    for name in built.program.action_names() {
        if let Some(action) = spec.action(name.as_str()) {
            action_keys.insert(name.clone(), action_hash(action));
        }
    }
    let keys = ArtifactKeys::mechanical(program_key, action_keys, built.program.main());
    let app = mechanical_application(&built.program, built.init.clone(), BUDGET);
    let on_outcome = |_: &inseq_core::ObligationOutcome| {};
    let rep = app
        .check_incremental(engine, cache, &keys, &on_outcome)
        .expect("2pc+audit discharges without structural errors");
    let verdicts = rep
        .outcomes
        .iter()
        .map(|o| {
            (
                o.kind.label(),
                o.passed,
                o.premise.clone(),
                o.message.clone(),
            )
        })
        .collect();
    let cached = rep.outcomes.iter().map(|o| o.cached).collect();
    (verdicts, cached)
}

/// Two-phase commit with an extra `Audit` action over a fresh global.
fn audited_2pc(body: Vec<SpecStmt>) -> ProgramSpec {
    let mut spec = table1_specs()
        .into_iter()
        .find(|(name, _)| *name == "two_phase_commit")
        .expect("2pc in corpus")
        .1;
    spec.globals
        .push(("audit".to_owned(), Sort::Int, Value::Int(0)));
    spec.pending.push(("Audit".to_owned(), Vec::new()));
    spec.actions.push(ActionSpec {
        name: "Audit".to_owned(),
        params: Vec::new(),
        locals: Vec::new(),
        body,
    });
    spec
}

/// Bodies that read and write only the `audit` global.
fn audit_body() -> impl Strategy<Value = Vec<SpecStmt>> {
    (0usize..3, -3i64..4).prop_map(|(shape, c)| match shape {
        0 => vec![SpecStmt::Assign("audit".to_owned(), int(c))],
        1 => vec![SpecStmt::Assign(
            "audit".to_owned(),
            add(var("audit"), int(c)),
        )],
        _ => vec![SpecStmt::If(
            eq(var("audit"), int(0)),
            vec![SpecStmt::Assign("audit".to_owned(), int(c))],
            Vec::new(),
        )],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn footprint_disjoint_edits_preserve_unrelated_verdicts(
        body_v1 in audit_body(),
        body_v2 in audit_body(),
    ) {
        let engine = Engine::new().with_threads(2);
        let v1 = audited_2pc(body_v1);
        let v2 = audited_2pc(body_v2);

        // Warm: v1 populates the cache, then v2 reuses it.
        let shared = ObligationCache::new();
        run_incremental(&engine, &shared, &v1);
        let (warm_verdicts, warm_cached) = run_incremental(&engine, &shared, &v2);

        // Cold reference: v2 from scratch.
        let fresh = ObligationCache::new();
        let (cold_verdicts, _) = run_incremental(&engine, &fresh, &v2);

        // (a) Cache reuse never changes a verdict or its violated premise,
        // and whatever the warm run recomputed is bit-identical to cold.
        prop_assert_eq!(warm_verdicts.len(), cold_verdicts.len());
        for ((warm, &cached), cold) in
            warm_verdicts.iter().zip(&warm_cached).zip(&cold_verdicts)
        {
            let (warm_label, warm_passed, warm_premise, warm_message) = warm;
            let (cold_label, cold_passed, cold_premise, cold_message) = cold;
            prop_assert_eq!(warm_label, cold_label);
            prop_assert_eq!(warm_passed, cold_passed, "verdict of `{}`", warm_label);
            prop_assert_eq!(warm_premise, cold_premise, "premise of `{}`", warm_label);
            if !cached {
                prop_assert_eq!(warm_message, cold_message, "message of `{}`", warm_label);
            }
        }

        // (b) Only obligations involving the edited action may recompute;
        // (I3) evaluates every eliminated action's abstraction, so it is
        // an Audit-involving obligation too.
        for ((label, _, _, _), cached) in warm_verdicts.iter().zip(warm_cached) {
            let involves_audit = label.contains("Audit") || label == "(I3) induction";
            if !involves_audit {
                prop_assert!(
                    cached,
                    "obligation `{}` recomputed after a disjoint edit",
                    label
                );
            }
        }
        engine.shutdown();
    }
}
