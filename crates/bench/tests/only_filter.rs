//! Negative-path coverage for the `table1 --only` needle filter — on both
//! the Table-1 rows and the `--large` tier: a misspelled or empty selection
//! must error out instead of silently shrinking the benchmark to nothing.
//! Also pins the `--large --json` row shape.

use inseq_bench::{
    large_rows, large_rows_as_json, table1_rows_only, LargeEngine, LargeOptions, LargeRow,
};

#[test]
fn empty_needle_list_is_rejected() {
    let err = table1_rows_only(&[]).expect_err("--only with no needles must error");
    assert_eq!(err.case, "--only");
    assert!(
        err.message.contains("no needles given"),
        "unexpected message: {}",
        err.message
    );
}

#[test]
fn unmatched_needle_is_rejected_with_the_known_protocol_list() {
    let needles = vec!["ping".to_owned(), "paxoss".to_owned()];
    let err = table1_rows_only(&needles).expect_err("misspelled needle must error");
    assert_eq!(err.case, "--only");
    assert!(
        err.message.contains("`paxoss` matches no Table-1 protocol"),
        "error must name the unmatched needle: {}",
        err.message
    );
    assert!(
        err.message.contains("Paxos") && err.message.contains("Ping-Pong"),
        "error must list the known protocols: {}",
        err.message
    );
}

#[test]
fn any_unmatched_needle_fails_even_when_others_match() {
    // A matching needle must not mask the typo next to it.
    let needles = vec!["Two-phase".to_owned(), "no-such-protocol".to_owned()];
    let err = table1_rows_only(&needles).expect_err("one bad needle poisons the selection");
    assert!(
        err.message.contains("`no-such-protocol`"),
        "unexpected message: {}",
        err.message
    );
}

#[test]
fn large_tier_rejects_unmatched_needles_the_same_way() {
    let opts = LargeOptions {
        only: Some(vec!["producer".to_owned(), "paxoss".to_owned()]),
        ..LargeOptions::default()
    };
    let err = large_rows(&opts).expect_err("misspelled --large needle must error");
    assert_eq!(err.case, "--only");
    assert!(
        err.message.contains("`paxoss` matches no --large case"),
        "error must name the unmatched needle: {}",
        err.message
    );
    assert!(
        err.message.contains("known cases") && err.message.contains("Paxos"),
        "error must list the known cases: {}",
        err.message
    );
}

#[test]
fn large_selection_runs_only_the_matched_case_and_emits_json() {
    // Broadcast `n = 6` is the smallest large case by visited count, so
    // this end-to-end pass through selection, exploration, and JSON
    // emission stays cheap.
    let opts = LargeOptions {
        engines: vec![LargeEngine::Steal],
        workers: vec![2],
        runs: 1,
        only: Some(vec!["broadcast".to_owned()]),
        reduce: inseq_kernel::ReduceMode::Off,
        zoo: false,
    };
    let rows = large_rows(&opts).expect("broadcast large case explores cleanly");
    assert_eq!(rows.len(), 1, "one case, one engine, one worker count");
    let row = &rows[0];
    assert_eq!(row.name, "Broadcast consensus");
    assert_eq!(row.engine, LargeEngine::Steal);
    assert_eq!(row.workers, 2);
    assert!(row.visited > 0 && row.edges > 0);
    assert!(row.configs_per_sec() > 0.0);

    let json = large_rows_as_json(&rows);
    for field in [
        "\"example\": \"Broadcast consensus\"",
        "\"engine\": \"steal\"",
        "\"workers\": 2",
        "\"machine_cores\": ",
        "\"configs_per_sec\": ",
        "\"visited_configs\": ",
        "\"engine_workers\": 2",
        "\"engine_expanded\": [",
    ] {
        assert!(json.contains(field), "missing `{field}` in: {json}");
    }
}

#[test]
fn large_json_rows_carry_worker_and_core_counts() {
    // Shape pin on a fabricated row: no exploration, just the emitter.
    let row = LargeRow {
        name: "X".into(),
        instance: "n = 1".into(),
        engine: LargeEngine::Steal,
        workers: 4,
        run: 2,
        reduce: inseq_kernel::ReduceMode::Off,
        time: std::time::Duration::from_millis(500),
        visited: 1000,
        edges: 2000,
        failed: false,
        stats: inseq_obs::EngineSnapshot {
            workers: 4,
            expanded: vec![250, 250, 250, 250],
            migrated: 900,
            ..inseq_obs::EngineSnapshot::default()
        },
    };
    let json = large_rows_as_json(&[row]);
    assert!(json.contains("\"engine\": \"steal\""));
    assert!(json.contains("\"workers\": 4"));
    assert!(json.contains("\"run\": 2"));
    assert!(json.contains("\"configs_per_sec\": 2000.0"));
    assert!(json.contains("\"engine_migrated\": 900"));
    assert!(json.contains(&format!(
        "\"machine_cores\": {}",
        inseq_bench::machine_cores()
    )));
}
