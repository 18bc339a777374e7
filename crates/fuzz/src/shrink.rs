//! Greedy structural shrinking of failing specs.
//!
//! [`shrink`] repeatedly tries single edits — drop an action, a global, a
//! pending async, or a statement; splice a compound statement's block in
//! its place; pull an integer constant toward zero — and keeps any edit
//! after which the spec still builds *and* still fails the caller's
//! predicate. Every accepted edit strictly decreases a finite measure
//! (action + global + pending + statement count, plus the magnitude sum of
//! integer constants), so the loop terminates at a local minimum.

use inseq_kernel::Value;
use inseq_lang::spec::{ProgramSpec, SpecStmt};
use inseq_lang::Expr;

/// Shrinks `spec` to a locally minimal spec on which `fails` still holds.
///
/// `fails` is the interest predicate — typically "this oracle still
/// disagrees". Candidates that no longer build or no longer fail are
/// discarded; `spec` itself is returned unchanged when no edit survives.
pub fn shrink(spec: &ProgramSpec, fails: impl Fn(&ProgramSpec) -> bool) -> ProgramSpec {
    let mut current = spec.clone();
    loop {
        let accepted = candidates(&current)
            .into_iter()
            .find(|c| c.build().is_ok() && fails(c));
        match accepted {
            Some(smaller) => current = smaller,
            None => return current,
        }
    }
}

/// Every single-edit reduction of `spec`, most aggressive first.
fn candidates(spec: &ProgramSpec) -> Vec<ProgramSpec> {
    let mut out = Vec::new();

    // Drop a whole action, together with every reference to it.
    for i in 0..spec.actions.len() {
        let name = spec.actions[i].name.clone();
        if name == spec.main {
            continue;
        }
        let mut c = spec.clone();
        c.actions.remove(i);
        c.pending.retain(|(n, _)| *n != name);
        for action in &mut c.actions {
            strip_refs(&mut action.body, &name);
        }
        out.push(c);
    }

    // Drop a global. References make the candidate fail to build, which
    // discards it — no need to chase uses.
    for i in 0..spec.globals.len() {
        let mut c = spec.clone();
        c.globals.remove(i);
        out.push(c);
    }

    // Drop an initial pending async.
    for i in 0..spec.pending.len() {
        let mut c = spec.clone();
        c.pending.remove(i);
        out.push(c);
    }

    // Statement-level edits, one action at a time.
    for i in 0..spec.actions.len() {
        for body in block_candidates(&spec.actions[i].body) {
            let mut c = spec.clone();
            c.actions[i].body = body;
            out.push(c);
        }
    }

    // Pull integer constants toward zero: expressions first, then the
    // values in global initializers and pending arguments.
    let n_ints = count_spec_ints(spec);
    for idx in 0..n_ints {
        for target in [ShrinkTo::Zero, ShrinkTo::Half] {
            if let Some(c) = shrink_spec_int(spec, idx, target) {
                out.push(c);
            }
        }
    }

    out
}

/// Removes `async`/`call` statements that target `name`, recursively.
fn strip_refs(block: &mut Vec<SpecStmt>, name: &str) {
    block.retain(|s| {
        !matches!(s,
            SpecStmt::Async { callee, .. } | SpecStmt::Call { callee, .. } if callee == name)
    });
    for stmt in block {
        match stmt {
            SpecStmt::If(_, t, e) => {
                strip_refs(t, name);
                strip_refs(e, name);
            }
            SpecStmt::ForRange(_, _, _, body) => strip_refs(body, name),
            _ => {}
        }
    }
}

/// Every one-edit reduction of a statement block: drop a statement, splice
/// a compound statement's sub-block over it, or reduce inside a sub-block.
fn block_candidates(block: &[SpecStmt]) -> Vec<Vec<SpecStmt>> {
    let mut out = Vec::new();
    for i in 0..block.len() {
        // Drop the statement entirely.
        let mut dropped = block.to_vec();
        dropped.remove(i);
        out.push(dropped);

        // Splice a compound statement's blocks in its place, and recurse.
        match &block[i] {
            SpecStmt::If(_, then_b, else_b) => {
                for sub in [then_b, else_b] {
                    let mut spliced = block.to_vec();
                    spliced.splice(i..=i, sub.iter().cloned());
                    out.push(spliced);
                }
                for (which, sub) in [then_b, else_b].into_iter().enumerate() {
                    for cand in block_candidates(sub) {
                        let mut edited = block.to_vec();
                        if let SpecStmt::If(_, t, e) = &mut edited[i] {
                            *(if which == 0 { t } else { e }) = cand;
                        }
                        out.push(edited);
                    }
                }
            }
            SpecStmt::ForRange(_, _, _, body) => {
                let mut spliced = block.to_vec();
                spliced.splice(i..=i, body.iter().cloned());
                out.push(spliced);
                for cand in block_candidates(body) {
                    let mut edited = block.to_vec();
                    if let SpecStmt::ForRange(_, _, _, b) = &mut edited[i] {
                        *b = cand;
                    }
                    out.push(edited);
                }
            }
            _ => {}
        }
    }
    out
}

#[derive(Clone, Copy)]
enum ShrinkTo {
    Zero,
    Half,
}

impl ShrinkTo {
    fn apply(self, n: i64) -> Option<i64> {
        let next = match self {
            ShrinkTo::Zero => 0,
            ShrinkTo::Half => n / 2,
        };
        (next != n).then_some(next)
    }
}

/// Indexed, in-order traversal of every integer constant in the spec:
/// expression constants in action bodies, then global initial values, then
/// pending-async arguments. `edit` receives each integer's running index
/// and may replace it.
pub(crate) fn for_each_spec_int(spec: &mut ProgramSpec, edit: &mut impl FnMut(&mut i64)) {
    for action in &mut spec.actions {
        for_each_block_int(&mut action.body, edit);
    }
    for (_, _, value) in &mut spec.globals {
        for_each_value_int(value, edit);
    }
    for (_, args) in &mut spec.pending {
        for value in args {
            for_each_value_int(value, edit);
        }
    }
}

pub(crate) fn count_spec_ints(spec: &ProgramSpec) -> usize {
    let mut n = 0;
    for_each_spec_int(&mut spec.clone(), &mut |_| n += 1);
    n
}

fn shrink_spec_int(spec: &ProgramSpec, index: usize, to: ShrinkTo) -> Option<ProgramSpec> {
    let mut c = spec.clone();
    let mut at = 0usize;
    let mut changed = false;
    for_each_spec_int(&mut c, &mut |n| {
        if at == index {
            if let Some(next) = to.apply(*n) {
                *n = next;
                changed = true;
            }
        }
        at += 1;
    });
    changed.then_some(c)
}

fn for_each_block_int(block: &mut [SpecStmt], edit: &mut impl FnMut(&mut i64)) {
    for stmt in block {
        match stmt {
            SpecStmt::Assign(_, e) | SpecStmt::Assume(e) | SpecStmt::Assert(e, _) => {
                for_each_expr_int(e, edit);
            }
            SpecStmt::AssignAt(_, k, v) => {
                for_each_expr_int(k, edit);
                for_each_expr_int(v, edit);
            }
            SpecStmt::If(c, t, e) => {
                for_each_expr_int(c, edit);
                for_each_block_int(t, edit);
                for_each_block_int(e, edit);
            }
            SpecStmt::ForRange(_, lo, hi, body) => {
                for_each_expr_int(lo, edit);
                for_each_expr_int(hi, edit);
                for_each_block_int(body, edit);
            }
            SpecStmt::Choose(_, dom) => for_each_expr_int(dom, edit),
            SpecStmt::Send { key, msg, .. } => {
                if let Some(k) = key {
                    for_each_expr_int(k, edit);
                }
                for_each_expr_int(msg, edit);
            }
            SpecStmt::Recv { key, .. } => {
                if let Some(k) = key {
                    for_each_expr_int(k, edit);
                }
            }
            SpecStmt::Async { args, .. } | SpecStmt::Call { args, .. } => {
                for e in args {
                    for_each_expr_int(e, edit);
                }
            }
            SpecStmt::Skip => {}
        }
    }
}

fn for_each_expr_int(expr: &mut Expr, edit: &mut impl FnMut(&mut i64)) {
    match expr {
        Expr::Const(v) => for_each_value_int(v, edit),
        Expr::Var(_) => {}
        Expr::Neg(a)
        | Expr::Not(a)
        | Expr::SomeOf(a)
        | Expr::IsSome(a)
        | Expr::Unwrap(a)
        | Expr::SizeOf(a)
        | Expr::MinOf(a)
        | Expr::MaxOf(a)
        | Expr::SumOf(a)
        | Expr::Proj(a, _) => for_each_expr_int(a, edit),
        Expr::Bin(_, a, b)
        | Expr::MapGet(a, b)
        | Expr::Contains(a, b)
        | Expr::CountOf(a, b)
        | Expr::WithElem(a, b)
        | Expr::WithoutElem(a, b)
        | Expr::UnionOf(a, b)
        | Expr::IncludedIn(a, b)
        | Expr::RangeSet(a, b)
        | Expr::Forall(_, a, b)
        | Expr::Exists(_, a, b)
        | Expr::Filter(_, a, b)
        | Expr::MapImage(_, a, b) => {
            for_each_expr_int(a, edit);
            for_each_expr_int(b, edit);
        }
        Expr::Ite(a, b, c) | Expr::MapSet(a, b, c) => {
            for_each_expr_int(a, edit);
            for_each_expr_int(b, edit);
            for_each_expr_int(c, edit);
        }
        Expr::Tuple(es) => {
            for e in es {
                for_each_expr_int(e, edit);
            }
        }
    }
}

/// Shrinks integers inside plain values. Set/bag/map elements are keys of
/// ordered containers, so they are left alone — rewriting them in place
/// would silently merge entries.
fn for_each_value_int(value: &mut Value, edit: &mut impl FnMut(&mut i64)) {
    match value {
        Value::Int(n) => edit(n),
        Value::Opt(Some(inner)) => for_each_value_int(inner, edit),
        Value::Tuple(vs) | Value::Seq(vs) => {
            for v in vs {
                for_each_value_int(v, edit);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::Explorer;
    use inseq_lang::build;
    use inseq_lang::spec::ActionSpec;
    use inseq_lang::Sort;

    /// A program whose `Main` asserts `g < 7` after incrementing `g` twice,
    /// wrapped in assorted irrelevant statements. The minimal failing core
    /// is the assert plus at most the pending entry.
    fn noisy_failing_spec() -> ProgramSpec {
        ProgramSpec {
            globals: vec![
                ("g".to_owned(), Sort::Int, Value::Int(9)),
                ("junk".to_owned(), Sort::set(Sort::Int), Value::empty_set()),
            ],
            actions: vec![
                ActionSpec {
                    name: "Helper".to_owned(),
                    params: vec![("p0".to_owned(), Sort::Int)],
                    locals: vec![],
                    body: vec![SpecStmt::Assign(
                        "junk".to_owned(),
                        build::with_elem(build::var("junk"), build::var("p0")),
                    )],
                },
                ActionSpec {
                    name: "Main".to_owned(),
                    params: vec![],
                    locals: vec![("t0".to_owned(), Sort::Int)],
                    body: vec![
                        SpecStmt::Assign("t0".to_owned(), build::int(5)),
                        SpecStmt::If(
                            build::gt(build::var("t0"), build::int(0)),
                            vec![SpecStmt::Assert(
                                build::lt(build::var("g"), build::int(7)),
                                "g small".to_owned(),
                            )],
                            vec![SpecStmt::Skip],
                        ),
                        SpecStmt::Async {
                            callee: "Helper".to_owned(),
                            args: vec![build::int(3)],
                        },
                    ],
                },
            ],
            main: "Main".to_owned(),
            pending: vec![("Main".to_owned(), vec![])],
        }
    }

    fn reaches_failure(spec: &ProgramSpec) -> bool {
        let Ok(built) = spec.build() else {
            return false;
        };
        Explorer::new(&built.program)
            .with_budget(10_000)
            .explore([built.init])
            .map(|x| x.has_failure())
            .unwrap_or(false)
    }

    #[test]
    fn shrinks_a_noisy_failure_to_a_tiny_core() {
        let spec = noisy_failing_spec();
        assert!(reaches_failure(&spec), "seed spec must fail");
        let small = shrink(&spec, reaches_failure);
        assert!(reaches_failure(&small), "shrunk spec must still fail");
        assert!(
            small.stmt_count() <= 2,
            "expected a tiny repro, got {} statements:\n{small:?}",
            small.stmt_count()
        );
        assert!(small.actions.len() <= 1, "helper action should be dropped");
        assert!(small.globals.len() <= 1, "junk global should be dropped");
    }

    #[test]
    fn shrink_returns_input_when_nothing_smaller_fails() {
        let spec = noisy_failing_spec();
        // Nothing "fails" under an always-false predicate.
        let same = shrink(&spec, |_| false);
        assert_eq!(same.stmt_count(), spec.stmt_count());
        assert_eq!(same.actions.len(), spec.actions.len());
    }
}
