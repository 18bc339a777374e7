//! Replays every file in `fuzz/corpus/` as ordinary tests.
//!
//! The corpus holds two kinds of files: the seven Table 1 protocols exported
//! through the fuzz serialization format (seeded by `fuzz --export-table1`)
//! and, over time, minimized repros written by the shrinker when an oracle
//! disagreement is found. Either way, a corpus file is a permanent
//! regression test: it must parse, build through the typechecker, and pass
//! the full oracle battery.

use std::fs;
use std::path::PathBuf;

use inseq_fuzz::{run_battery, Oracle};
use inseq_lang::serial::{parse_spec, write_spec};
use inseq_lang::spec::ProgramSpec;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

fn read_corpus_file(stem: &str) -> ProgramSpec {
    let path = corpus_dir().join(format!("{stem}.sexp"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_spec(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Parse + build + full oracle battery; any `Disagreement` is a test failure.
fn replay(spec: &ProgramSpec, label: &str) {
    spec.build()
        .unwrap_or_else(|e| panic!("{label}: corpus spec does not build: {e}"));
    let outcomes = run_battery(&Oracle::ALL, spec, inseq_fuzz::DEFAULT_BUDGET)
        .unwrap_or_else(|d| panic!("{label}: {d}"));
    assert!(
        outcomes.iter().any(|(_, out)| out.checked()),
        "{label}: every oracle skipped — corpus entry checks nothing"
    );
}

macro_rules! table1_replay {
    ($($test:ident => $stem:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            replay(&read_corpus_file($stem), $stem);
        }
    )*};
}

table1_replay! {
    replays_broadcast => "broadcast",
    replays_ping_pong => "ping_pong",
    replays_producer_consumer => "producer_consumer",
    replays_n_buyer => "n_buyer",
    replays_chang_roberts => "chang_roberts",
    replays_two_phase_commit => "two_phase_commit",
    replays_paxos => "paxos",
}

/// Future corpus entries (minimized repros from fuzzing runs) replay too,
/// without anyone having to remember to add a named test for them.
#[test]
fn replays_every_other_corpus_file() {
    let known = [
        "broadcast",
        "ping_pong",
        "producer_consumer",
        "n_buyer",
        "chang_roberts",
        "two_phase_commit",
        "paxos",
    ];
    let mut entries: Vec<_> = fs::read_dir(corpus_dir())
        .expect("fuzz/corpus/ must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sexp"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= known.len(),
        "corpus lost its Table 1 seeds: {entries:?}"
    );
    for path in entries {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_owned();
        if known.contains(&stem.as_str()) {
            continue;
        }
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        replay(&spec, &stem);
    }
}

/// The checked-in Table 1 seeds stay in sync with the exporter: regenerating
/// them from the protocol crates yields byte-identical spec sections.
#[test]
fn corpus_seeds_match_the_current_exporter() {
    for (stem, spec) in inseq_fuzz::corpus::table1_specs() {
        let on_disk = read_corpus_file(stem);
        assert_eq!(
            write_spec(&on_disk),
            write_spec(&spec),
            "{stem}: fuzz/corpus/{stem}.sexp is stale — regenerate with `fuzz --export-table1`"
        );
    }
}
