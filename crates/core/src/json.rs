//! Hand-rolled JSON rendering of [`IsReport`]s and their observability
//! counters, shared by the `table1 --json` bench rows and the verification
//! daemon's responses so the two cannot drift apart. (The workspace is
//! std-only by design; these helpers are the std-only substitute for a
//! serde derive.)
//!
//! The field names and number formats here are pinned by a golden test:
//! `BENCH_table1.json` consumers and daemon clients parse them.

use inseq_kernel::ExecStats;
use inseq_obs::{EngineSnapshot, HitMissSnapshot, PhaseStat};

use crate::rule::IsReport;

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A quoted JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// One premise phase as an object: `{"name": …, "wall_seconds": …,
/// "items": …}`.
#[must_use]
pub fn phase(p: &PhaseStat) -> String {
    format!(
        "{{\"name\": \"{}\", \"wall_seconds\": {:.6}, \"items\": {}}}",
        escape(&p.name),
        p.wall.as_secs_f64(),
        p.items
    )
}

/// A phase list as an array of [`phase`] objects.
#[must_use]
pub fn phases(ps: &[PhaseStat]) -> String {
    let items: Vec<String> = ps.iter().map(phase).collect();
    format!("[{}]", items.join(", "))
}

/// Hit/miss counters as two flat fields: `"<prefix>_hits": …,
/// "<prefix>_misses": …`.
#[must_use]
pub fn hit_miss_fields(prefix: &str, h: &HitMissSnapshot) -> String {
    format!(
        "\"{prefix}_hits\": {}, \"{prefix}_misses\": {}",
        h.hits, h.misses
    )
}

/// Evaluation-backend counters as flat fields, in the order the bench rows
/// use.
#[must_use]
pub fn exec_fields(e: &ExecStats) -> String {
    format!(
        "\"compiled_actions\": {}, \"compile_nanos\": {}, \"vm_evals\": {}, \"interp_evals\": {}",
        e.compiled_actions, e.compile_nanos, e.vm_evals, e.interp_evals
    )
}

/// Parallel-engine shape counters as flat fields: worker count, the
/// per-shard occupancy profile, steal/migration traffic, and reduction
/// pruning.
#[must_use]
pub fn engine_fields(e: &EngineSnapshot) -> String {
    let expanded: Vec<String> = e.expanded.iter().map(u64::to_string).collect();
    let batch_hist: Vec<String> = e.intern_batch_hist.iter().map(u64::to_string).collect();
    let shard_inserts: Vec<String> = e.shard_inserts.iter().map(u64::to_string).collect();
    format!(
        "\"engine_workers\": {}, \"engine_expanded\": [{}], \"engine_steals\": {}, \
         \"engine_stolen\": {}, \"engine_migrated\": {}, \
         \"engine_pruned\": {}, \"engine_orbit_collapses\": {}, \
         \"engine_lock_waits\": {}, \"engine_lock_wait_nanos\": {}, \
         \"engine_intern_batches\": {}, \"engine_intern_batch_hist\": [{}], \
         \"engine_shard_inserts\": [{}]",
        e.workers,
        expanded.join(", "),
        e.steals,
        e.stolen,
        e.migrated,
        e.pruned,
        e.orbit_collapses,
        e.lock_waits,
        e.lock_wait_nanos,
        e.intern_batches,
        batch_hist.join(", "),
        shard_inserts.join(", ")
    )
}

/// A whole [`IsReport`] — deterministic counts plus observability — as one
/// JSON object. The daemon attaches this to its `verdict` responses.
#[must_use]
pub fn is_report(r: &IsReport) -> String {
    format!(
        "{{\"reachable_configs\": {}, \"edges\": {}, \"target_inputs\": {}, \
         \"invariant_transitions\": {}, \"induction_steps\": {}, \
         \"eliminated_actions\": {}, \"universe_stores\": {}, {}, {}, {}, \
         \"pairwise_checks\": {}, {}, \"premises\": {}}}",
        r.reachable_configs,
        r.edges,
        r.target_inputs,
        r.invariant_transitions,
        r.induction_steps,
        r.eliminated_actions,
        r.universe_stores,
        hit_miss_fields("intern", &r.stats.intern),
        engine_fields(&r.stats.engine),
        hit_miss_fields("mover_cache", &r.stats.mover_cache),
        r.stats.pairwise_checks,
        exec_fields(&r.stats.exec),
        phases(&r.stats.premises),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("line1\nline2\t\r"), "line1\\nline2\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    /// Golden pin of the shapes `table1 --json` and the daemon share. A
    /// change here is a wire-format change for both consumers.
    #[test]
    fn golden_phase_and_report_shapes() {
        let p = PhaseStat::new("(I1) M ≼ I", Duration::from_micros(123_456), 7);
        assert_eq!(
            phase(&p),
            "{\"name\": \"(I1) M ≼ I\", \"wall_seconds\": 0.123456, \"items\": 7}"
        );

        let mut r = IsReport {
            reachable_configs: 10,
            edges: 20,
            target_inputs: 3,
            invariant_transitions: 4,
            induction_steps: 2,
            eliminated_actions: 1,
            universe_stores: 12,
            ..IsReport::default()
        };
        r.stats.intern = HitMissSnapshot::new(5, 6);
        r.stats.engine = EngineSnapshot {
            workers: 2,
            expanded: vec![4, 6],
            steals: 1,
            stolen: 2,
            migrated: 2,
            lock_waits: 3,
            lock_wait_nanos: 1500,
            intern_batches: 5,
            intern_batch_hist: vec![1, 2, 2, 0, 0, 0, 0],
            shard_inserts: vec![7, 3],
            ..EngineSnapshot::default()
        };
        r.stats.mover_cache = HitMissSnapshot::new(7, 8);
        r.stats.pairwise_checks = 9;
        r.stats.premises = vec![PhaseStat::new("explore", Duration::from_secs(1), 10)];
        assert_eq!(
            is_report(&r),
            "{\"reachable_configs\": 10, \"edges\": 20, \"target_inputs\": 3, \
             \"invariant_transitions\": 4, \"induction_steps\": 2, \
             \"eliminated_actions\": 1, \"universe_stores\": 12, \
             \"intern_hits\": 5, \"intern_misses\": 6, \
             \"engine_workers\": 2, \"engine_expanded\": [4, 6], \"engine_steals\": 1, \
             \"engine_stolen\": 2, \"engine_migrated\": 2, \
             \"engine_pruned\": 0, \"engine_orbit_collapses\": 0, \
             \"engine_lock_waits\": 3, \"engine_lock_wait_nanos\": 1500, \
             \"engine_intern_batches\": 5, \"engine_intern_batch_hist\": [1, 2, 2, 0, 0, 0, 0], \
             \"engine_shard_inserts\": [7, 3], \
             \"mover_cache_hits\": 7, \"mover_cache_misses\": 8, \
             \"pairwise_checks\": 9, \
             \"compiled_actions\": 0, \"compile_nanos\": 0, \"vm_evals\": 0, \"interp_evals\": 0, \
             \"premises\": [{\"name\": \"explore\", \"wall_seconds\": 1.000000, \"items\": 10}]}"
        );
    }
}
