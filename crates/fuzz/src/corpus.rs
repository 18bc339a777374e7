//! Exporting hand-written protocols through the generator's spec format.
//!
//! The corpus under `fuzz/corpus/` is seeded with the paper's Table 1
//! protocols: each `P2` atomic-action program is converted back into a
//! [`ProgramSpec`] (name-based statements, globals with initial values, the
//! initial pending bag) and serialized with [`inseq_lang::serial::write_spec`].
//! Replaying those files exercises the exact same parse → build → explore
//! path that minimized fuzz repros use, on programs whose behavior the
//! protocol test suites pin down independently.

use std::sync::Arc;

use inseq_kernel::Config;
use inseq_lang::spec::{spec_stmts, ActionSpec, ProgramSpec};
use inseq_lang::{DslAction, GlobalDecls};
use inseq_protocols::{
    broadcast, chang_roberts, n_buyer, paxos, ping_pong, producer_consumer, two_phase_commit, zoo,
};

/// Converts built DSL actions plus an initial configuration into a spec.
///
/// `actions` must list callees before callers (every protocol's
/// `p2_dsl_actions` does) and must include every `async`/`call` target;
/// `main` is the entry action; `init` supplies both the global initial
/// values (in `decls` schema order) and the initial pending bag.
#[must_use]
pub fn export_program(
    decls: &Arc<GlobalDecls>,
    actions: &[Arc<DslAction>],
    main: &str,
    init: &Config,
) -> ProgramSpec {
    let globals = decls
        .iter()
        .enumerate()
        .map(|(i, (name, sort))| (name.to_owned(), sort.clone(), init.globals.get(i).clone()))
        .collect();
    let actions = actions
        .iter()
        .map(|a| ActionSpec {
            name: a.name().to_owned(),
            params: a.params().to_vec(),
            locals: a.locals().to_vec(),
            body: spec_stmts(a.body()),
        })
        .collect();
    let pending = init
        .pending
        .iter()
        .map(|pa| (pa.action.as_str().to_owned(), pa.args.clone()))
        .collect();
    ProgramSpec {
        globals,
        actions,
        main: main.to_owned(),
        pending,
    }
}

/// The seven Table 1 protocols as specs, on deliberately tiny instances so
/// corpus replay stays cheap: `(file stem, spec)`.
#[must_use]
pub fn table1_specs() -> Vec<(&'static str, ProgramSpec)> {
    let mut out = Vec::new();

    {
        let a = broadcast::build();
        let instance = broadcast::Instance::new(&[3, 1]);
        let init = broadcast::init_config(&a.p2, &a, &instance);
        out.push((
            "broadcast",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }
    {
        let a = ping_pong::build();
        let init = ping_pong::init_config(&a.p2, &a, ping_pong::Instance::new(2));
        out.push((
            "ping_pong",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }
    {
        let a = producer_consumer::build();
        let init = producer_consumer::init_config(&a.p2, &a, producer_consumer::Instance::new(2));
        out.push((
            "producer_consumer",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }
    {
        let a = n_buyer::build();
        let instance = n_buyer::Instance::new(10, &[6, 6]);
        let init = n_buyer::init_config(&a.p2, &a, &instance);
        out.push((
            "n_buyer",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }
    {
        let a = chang_roberts::build();
        let instance = chang_roberts::Instance::new(&[20, 10]);
        let init = chang_roberts::init_config(&a.p2, &a, &instance);
        out.push((
            "chang_roberts",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }
    {
        let a = two_phase_commit::build();
        let instance = two_phase_commit::Instance::new(&[true, false]);
        let init = two_phase_commit::init_config(&a.p2, &a, &instance);
        out.push((
            "two_phase_commit",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }
    {
        let a = paxos::build();
        let init = paxos::init_config(&a.p2, &a, paxos::Instance::new(1, 2));
        out.push((
            "paxos",
            export_program(&a.decls, &a.p2_dsl_actions(), a.main.name(), &init),
        ));
    }

    out
}

/// The scenario-zoo protocols as specs, on their default instances:
/// `(file stem, spec)`. Stems carry a `zoo-` prefix so the corpus
/// directory sorts the campaign's promotions apart from the Table 1 seeds.
#[must_use]
pub fn zoo_specs() -> Vec<(String, ProgramSpec)> {
    zoo::zoo_cases()
        .iter()
        .map(|case| {
            (
                format!("zoo-{}", case.name),
                export_program(&case.decls, &case.actions, "Main", &case.init),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::Explorer;
    use inseq_lang::serial::{parse_spec, write_spec};

    #[test]
    fn every_table1_export_builds_and_round_trips() {
        let specs = table1_specs();
        assert_eq!(specs.len(), 7);
        for (name, spec) in &specs {
            let built = spec
                .build()
                .unwrap_or_else(|e| panic!("{name}: exported spec does not build: {e}"));
            // The exported program must actually run: explore a little.
            let exploration = Explorer::new(&built.program)
                .with_budget(50_000)
                .explore([built.init])
                .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
            assert!(
                exploration.config_count() > 1,
                "{name}: export is inert — only the initial config is reachable"
            );
            assert!(
                !exploration.has_failure(),
                "{name}: exported P2 program reaches an assertion failure"
            );
            // Text round trip is the identity on the canonical form.
            let text = write_spec(spec);
            let reparsed = parse_spec(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                write_spec(&reparsed),
                text,
                "{name}: unstable serialization"
            );
        }
    }

    #[test]
    fn zoo_exports_round_trip_and_keep_their_verdicts() {
        let cases = zoo::zoo_cases();
        let specs = zoo_specs();
        assert_eq!(specs.len(), cases.len());
        for (case, (name, spec)) in cases.iter().zip(&specs) {
            let built = spec
                .build()
                .unwrap_or_else(|e| panic!("{name}: exported spec does not build: {e}"));
            let exported = Explorer::new(&built.program)
                .with_budget(50_000)
                .explore([built.init])
                .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
            let native = Explorer::new(&case.program)
                .with_budget(50_000)
                .explore([case.init.clone()])
                .unwrap_or_else(|e| panic!("{name}: native exploration failed: {e}"));
            // The export must preserve the verdict class *and* the size of
            // the reachable space — the zoo's whole value is pinning these.
            assert_eq!(exported.has_failure(), native.has_failure(), "{name}");
            assert_eq!(exported.has_deadlock(), native.has_deadlock(), "{name}");
            assert_eq!(exported.config_count(), native.config_count(), "{name}");
            let text = write_spec(spec);
            let reparsed = parse_spec(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                write_spec(&reparsed),
                text,
                "{name}: unstable serialization"
            );
        }
    }
}
