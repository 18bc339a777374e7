//! Negative-path coverage: budget exhaustion while work is moving between
//! work-stealing deques.
//!
//! With a budget far below the reachable-set size, exhaustion lands while
//! workers are stealing from each other — the case where the shared atomic
//! counter, cancellation flag, and post-join `visited` aggregation must
//! still produce a coherent error, and per-shard counters must still be
//! aggregated after the join ([`ParallelExplorer::explore_with_stats`]).

use inseq_engine::ParallelExplorer;
use inseq_kernel::{
    ActionOutcome, ExploreError, Explorer, GlobalSchema, GlobalStore, Multiset, NativeAction,
    PendingAsync, Program, Transition, Value,
};

/// `Main` spawns `k` `IncA` and `k` `IncB` tasks; each bumps its own
/// counter. Every firing changes the store, and the reachable set has
/// `Θ(k²)` configurations.
fn two_counter_program(k: usize) -> Program {
    let mut b = Program::builder(GlobalSchema::new(["a", "b"]));
    b.action(
        "Main",
        NativeAction::new("Main", 0, move |g: &GlobalStore, _: &[Value]| {
            let next = g.with(0, Value::Int(0)).with(1, Value::Int(0));
            let mut created = Multiset::new();
            created.insert_n(PendingAsync::new("IncA", vec![]), k);
            created.insert_n(PendingAsync::new("IncB", vec![]), k);
            ActionOutcome::Transitions(vec![Transition::new(next, created)])
        }),
    );
    for (name, slot) in [("IncA", 0), ("IncB", 1)] {
        b.action(
            name,
            NativeAction::new(name, 0, move |g: &GlobalStore, _: &[Value]| {
                let next = g.with(slot, Value::Int(g.get(slot).as_int() + 1));
                ActionOutcome::Transitions(vec![Transition::pure(next)])
            }),
        );
    }
    b.build().expect("two-counter program is well-formed")
}

fn init(p: &Program) -> inseq_kernel::Config {
    p.initial_config(vec![]).expect("Main has arity 0")
}

#[test]
fn budget_exceeded_mid_steal_reports_limit_and_witness() {
    let p = two_counter_program(6);
    let sequential_size = Explorer::new(&p)
        .explore([init(&p)])
        .expect("sequential exploration fits in the default budget")
        .config_count();
    let budget = 10;
    assert!(
        sequential_size > 4 * budget,
        "state space too small to exhaust the budget mid-steal"
    );

    for workers in [2, 4] {
        let err = ParallelExplorer::new(&p)
            .with_workers(workers)
            .with_budget(budget)
            .explore([init(&p)])
            .expect_err("budget far below the reachable set must be exceeded");
        match err {
            ExploreError::BudgetExceeded {
                limit,
                visited,
                trace,
            } => {
                assert_eq!(limit, budget, "{workers} workers: limit not preserved");
                assert!(
                    visited > budget,
                    "{workers} workers: exhaustion implies visited ({visited}) > budget"
                );
                assert!(
                    visited <= sequential_size + budget * workers,
                    "{workers} workers: post-join visited aggregate ({visited}) is absurd"
                );
                // The engine keeps a parent forest in the shared arena and
                // reports a concrete witness to the exhaustion point.
                let trace = trace.unwrap_or_else(|| {
                    panic!("{workers} workers: budget exhaustion must carry a witness trace")
                });
                assert!(!trace.is_empty());
                assert_eq!(trace.steps[0].before, init(&p));
                for pair in trace.steps.windows(2) {
                    assert_eq!(pair[0].after, pair[1].before, "steps must chain");
                }
            }
            other => panic!("{workers} workers: expected BudgetExceeded, got {other}"),
        }
    }
}

/// Exhaustion mid-steal must not lose per-shard counters: the error path of
/// the work-stealing engine still joins every worker and aggregates its
/// stats, and the steal bookkeeping stays conserved — everything stolen in
/// was stolen from some deque.
#[test]
fn budget_exceeded_mid_steal_still_aggregates_shard_stats() {
    let p = two_counter_program(6);
    let budget = 10;
    for workers in [2, 4, 8] {
        let (result, stats) = ParallelExplorer::new(&p)
            .with_workers(workers)
            .with_budget(budget)
            .explore_with_stats([init(&p)]);
        let err = result.expect_err("budget far below the reachable set must be exceeded");
        assert!(
            matches!(err, ExploreError::BudgetExceeded { limit, .. } if limit == budget),
            "{workers} workers: expected BudgetExceeded, got {err}"
        );
        assert_eq!(
            stats.shards.len(),
            workers,
            "{workers} workers: every shard reports, even mid-steal"
        );
        // The exploration made progress before exhausting, and counters are
        // internally consistent on the error path.
        assert!(stats.expanded() >= 1, "{workers} workers: nothing expanded");
        assert!(
            stats.intern().misses as usize > budget,
            "{workers} workers: exhaustion implies more misses than budget"
        );
        assert_eq!(
            stats.stolen(),
            stats.migrated(),
            "{workers} workers: steal conservation broken"
        );
    }
}

/// The sequential explorer agrees the same budget is insufficient — the
/// parallel error is not an artifact of sharding.
#[test]
fn sequential_explorer_agrees_budget_is_insufficient() {
    let p = two_counter_program(6);
    let err = Explorer::new(&p)
        .with_budget(10)
        .explore([init(&p)])
        .expect_err("budget 10 is far below the reachable set");
    assert!(
        matches!(err, ExploreError::BudgetExceeded { limit: 10, .. }),
        "expected BudgetExceeded, got {err}"
    );
}
