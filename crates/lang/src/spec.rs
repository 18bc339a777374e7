//! A buildable, serializable intermediate representation of a DSL program.
//!
//! The fuzzer's generator and shrinker, the corpus format, and the
//! verification daemon's wire protocol all operate on [`ProgramSpec`] rather
//! than on built [`DslAction`]s: a spec references callees *by name*, so
//! statements can be freely dropped, reordered, or textually round-tripped
//! without dangling `Arc`s. [`ProgramSpec::build`] lowers the spec through
//! the ordinary [`ActionBuilder`] pipeline — every action passes the same
//! typechecker as hand-written protocols, so a spec either builds completely
//! or reports a structured error, never a panic.
//!
//! [`ActionBuilder`]: crate::ActionBuilder

use std::fmt;
use std::sync::Arc;

use inseq_kernel::{Config, Footprint, GlobalStore, Multiset, PendingAsync, Program, Value};

use crate::action::{program_of, DslAction, GlobalDecls};
use crate::coverage::CoverageSink;
use crate::error::TypeError;
use crate::expr::Expr;
use crate::sort::Sort;
use crate::stmt::Stmt;

/// A statement with name-based callee references.
///
/// Mirrors [`Stmt`] except that `async` and `call` target actions by name;
/// `build` resolves `call` against the actions already built (callees must
/// precede callers in [`ProgramSpec::actions`]) and lowers `async` to
/// [`Stmt::AsyncNamed`], which needs only the callee's parameter sorts.
#[derive(Debug, Clone)]
pub enum SpecStmt {
    /// `x := e`.
    Assign(String, Expr),
    /// `x[k] := v`.
    AssignAt(String, Expr, Expr),
    /// `assume e`.
    Assume(Expr),
    /// `assert e` with a message.
    Assert(Expr, String),
    /// Conditional.
    If(Expr, Vec<SpecStmt>, Vec<SpecStmt>),
    /// Ascending inclusive integer loop.
    ForRange(String, Expr, Expr, Vec<SpecStmt>),
    /// Nondeterministic choice from a set or bag.
    Choose(String, Expr),
    /// Channel send, optionally keyed.
    Send {
        /// Channel variable name.
        chan: String,
        /// Optional index for map-of-channel variables.
        key: Option<Expr>,
        /// The message.
        msg: Expr,
    },
    /// Channel receive, optionally keyed.
    Recv {
        /// Variable receiving the message.
        var: String,
        /// Channel variable name.
        chan: String,
        /// Optional index for map-of-channel variables.
        key: Option<Expr>,
    },
    /// `async Callee(args)` by name.
    Async {
        /// Name of the spawned action.
        callee: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `call Callee(args)` by name; the callee must appear earlier in the
    /// spec's action list.
    Call {
        /// Name of the inlined action.
        callee: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// No-op.
    Skip,
}

/// One action of a [`ProgramSpec`].
#[derive(Debug, Clone)]
pub struct ActionSpec {
    /// The action name.
    pub name: String,
    /// Parameters, in order.
    pub params: Vec<(String, Sort)>,
    /// Declared locals, in order.
    pub locals: Vec<(String, Sort)>,
    /// The body.
    pub body: Vec<SpecStmt>,
}

/// A complete, self-contained program description.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Globals as `(name, sort, initial value)`, in declaration order.
    pub globals: Vec<(String, Sort, Value)>,
    /// Actions; `call` targets must precede their callers.
    pub actions: Vec<ActionSpec>,
    /// The entry action name.
    pub main: String,
    /// The initial pending-async bag, as `(action name, args)` with
    /// multiplicity via repetition.
    pub pending: Vec<(String, Vec<Value>)>,
}

/// Everything [`ProgramSpec::build`] produces.
#[derive(Debug)]
pub struct BuiltSpec {
    /// The global declarations.
    pub decls: Arc<GlobalDecls>,
    /// The built actions, in spec order.
    pub actions: Vec<Arc<DslAction>>,
    /// The kernel program over those actions.
    pub program: Program,
    /// The initial configuration (initial store + pending bag).
    pub init: Config,
}

impl BuiltSpec {
    /// The built action named `name`, if any.
    #[must_use]
    pub fn action(&self, name: &str) -> Option<&Arc<DslAction>> {
        self.actions.iter().find(|a| a.name() == name)
    }

    /// Union of the footprints of the named actions, over the built spec.
    ///
    /// Names absent from the spec contribute nothing. Used by incremental
    /// re-verification to turn an edit diff (a set of changed action names)
    /// into the store slice whose dependent obligations must re-run.
    #[must_use]
    pub fn footprint_of<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Footprint {
        use inseq_kernel::ActionSemantics as _;
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for name in names {
            if let Some(a) = self.action(name) {
                let fp = a.footprint().unwrap_or_default();
                reads.extend(fp.reads);
                writes.extend(fp.writes);
            }
        }
        Footprint::new(reads, writes)
    }
}

/// Why a spec failed to build.
#[derive(Debug)]
pub enum SpecError {
    /// An action body failed the typechecker.
    Type(TypeError),
    /// A name-based reference could not be resolved.
    Unresolved(String),
    /// The kernel rejected the assembled program.
    Kernel(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Type(e) => write!(f, "{e}"),
            SpecError::Unresolved(m) => write!(f, "unresolved reference: {m}"),
            SpecError::Kernel(m) => write!(f, "kernel error: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TypeError> for SpecError {
    fn from(e: TypeError) -> Self {
        SpecError::Type(e)
    }
}

impl ProgramSpec {
    /// Builds the spec into real DSL actions, a program, and an initial
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on unresolved names, typechecker rejection,
    /// or kernel-level assembly failure. Shrinker candidates lean on this:
    /// an edit that breaks well-formedness is discarded, not explored.
    pub fn build(&self) -> Result<BuiltSpec, SpecError> {
        self.build_inner(None)
    }

    /// [`ProgramSpec::build`], with every action recording its VM dispatch
    /// edges into `sink` — so the sink sees exactly the evaluations of this
    /// build's program, whoever runs them.
    ///
    /// # Errors
    ///
    /// As [`ProgramSpec::build`].
    pub fn build_with_coverage(&self, sink: &CoverageSink) -> Result<BuiltSpec, SpecError> {
        self.build_inner(Some(sink))
    }

    fn build_inner(&self, sink: Option<&CoverageSink>) -> Result<BuiltSpec, SpecError> {
        let mut decls = GlobalDecls::new();
        for (name, sort, _) in &self.globals {
            if decls.index_of(name).is_some() {
                return Err(SpecError::Unresolved(format!("duplicate global `{name}`")));
            }
            decls.declare(name.clone(), sort.clone());
        }
        let decls = Arc::new(decls);

        let mut built: Vec<Arc<DslAction>> = Vec::with_capacity(self.actions.len());
        for spec in &self.actions {
            let mut builder = DslAction::build(&spec.name, &decls);
            if let Some(sink) = sink {
                builder = builder.coverage(sink);
            }
            for (p, sort) in &spec.params {
                builder = builder.param(p.clone(), sort.clone());
            }
            for (l, sort) in &spec.locals {
                builder = builder.local(l.clone(), sort.clone());
            }
            let body = lower_block(&spec.body, &self.actions, &built)?;
            built.push(builder.body(body).finish()?);
        }

        if !self.actions.iter().any(|a| a.name == self.main) {
            return Err(SpecError::Unresolved(format!(
                "main action `{}` is not defined",
                self.main
            )));
        }
        let program = program_of(&decls, built.iter().cloned(), self.main.as_str())
            .map_err(|e| SpecError::Kernel(e.to_string()))?;

        let store = GlobalStore::new(self.globals.iter().map(|(_, _, v)| v.clone()).collect());
        let mut pending = Multiset::new();
        for (name, args) in &self.pending {
            if !self.actions.iter().any(|a| a.name == *name) {
                return Err(SpecError::Unresolved(format!(
                    "initial pending async to undefined action `{name}`"
                )));
            }
            pending.insert(PendingAsync::new(name.as_str(), args.clone()));
        }
        let init = Config::new(store, pending);

        Ok(BuiltSpec {
            decls,
            actions: built,
            program,
            init,
        })
    }

    /// Total number of statements across all action bodies, counting nested
    /// blocks — the size metric the shrinker minimizes and repro-size
    /// assertions measure.
    #[must_use]
    pub fn stmt_count(&self) -> usize {
        self.actions.iter().map(|a| count_block(&a.body)).sum()
    }

    /// The spec of the action named `name`, if any.
    #[must_use]
    pub fn action(&self, name: &str) -> Option<&ActionSpec> {
        self.actions.iter().find(|a| a.name == name)
    }
}

fn count_block(block: &[SpecStmt]) -> usize {
    block
        .iter()
        .map(|s| match s {
            SpecStmt::If(_, t, e) => 1 + count_block(t) + count_block(e),
            SpecStmt::ForRange(_, _, _, body) => 1 + count_block(body),
            _ => 1,
        })
        .sum()
}

fn lower_block(
    block: &[SpecStmt],
    specs: &[ActionSpec],
    built: &[Arc<DslAction>],
) -> Result<Vec<Stmt>, SpecError> {
    block.iter().map(|s| lower_stmt(s, specs, built)).collect()
}

fn lower_stmt(
    stmt: &SpecStmt,
    specs: &[ActionSpec],
    built: &[Arc<DslAction>],
) -> Result<Stmt, SpecError> {
    Ok(match stmt {
        SpecStmt::Assign(x, e) => Stmt::Assign(x.clone(), e.clone()),
        SpecStmt::AssignAt(x, k, v) => Stmt::AssignAt(x.clone(), k.clone(), v.clone()),
        SpecStmt::Assume(e) => Stmt::Assume(e.clone()),
        SpecStmt::Assert(e, msg) => Stmt::Assert(e.clone(), msg.clone()),
        SpecStmt::If(c, t, e) => Stmt::If(
            c.clone(),
            lower_block(t, specs, built)?,
            lower_block(e, specs, built)?,
        ),
        SpecStmt::ForRange(x, lo, hi, body) => Stmt::ForRange(
            x.clone(),
            lo.clone(),
            hi.clone(),
            lower_block(body, specs, built)?,
        ),
        SpecStmt::Choose(x, dom) => Stmt::Choose(x.clone(), dom.clone()),
        SpecStmt::Send { chan, key, msg } => Stmt::Send {
            chan: chan.clone(),
            key: key.clone(),
            msg: msg.clone(),
        },
        SpecStmt::Recv { var, chan, key } => Stmt::Recv {
            var: var.clone(),
            chan: chan.clone(),
            key: key.clone(),
        },
        SpecStmt::Async { callee, args } => {
            // `AsyncNamed` needs only the signature, so the target may
            // appear anywhere in the spec — including later actions.
            let target = specs
                .iter()
                .find(|a| a.name == *callee)
                .ok_or_else(|| SpecError::Unresolved(format!("async to `{callee}`")))?;
            Stmt::AsyncNamed {
                name: callee.clone(),
                param_sorts: target.params.iter().map(|(_, s)| s.clone()).collect(),
                args: args.clone(),
            }
        }
        SpecStmt::Call { callee, args } => {
            let target = built.iter().find(|a| a.name() == callee).ok_or_else(|| {
                SpecError::Unresolved(format!("call to `{callee}` (callees must precede callers)"))
            })?;
            Stmt::Call {
                callee: Arc::clone(target),
                args: args.clone(),
            }
        }
        SpecStmt::Skip => Stmt::Skip,
    })
}

/// Converts built-action statements back into name-based spec statements.
///
/// Used by the corpus exporter to serialize hand-written protocol actions
/// through the generator's format. `Async`/`Call` arcs are replaced by the
/// callee's name; the caller is responsible for including every callee in
/// the exported spec's action list.
#[must_use]
pub fn spec_stmts(stmts: &[Stmt]) -> Vec<SpecStmt> {
    stmts.iter().map(spec_stmt).collect()
}

fn spec_stmt(stmt: &Stmt) -> SpecStmt {
    match stmt {
        Stmt::Assign(x, e) => SpecStmt::Assign(x.clone(), e.clone()),
        Stmt::AssignAt(x, k, v) => SpecStmt::AssignAt(x.clone(), k.clone(), v.clone()),
        Stmt::Assume(e) => SpecStmt::Assume(e.clone()),
        Stmt::Assert(e, msg) => SpecStmt::Assert(e.clone(), msg.clone()),
        Stmt::If(c, t, e) => SpecStmt::If(c.clone(), spec_stmts(t), spec_stmts(e)),
        Stmt::ForRange(x, lo, hi, body) => {
            SpecStmt::ForRange(x.clone(), lo.clone(), hi.clone(), spec_stmts(body))
        }
        Stmt::Choose(x, dom) => SpecStmt::Choose(x.clone(), dom.clone()),
        Stmt::Send { chan, key, msg } => SpecStmt::Send {
            chan: chan.clone(),
            key: key.clone(),
            msg: msg.clone(),
        },
        Stmt::Recv { var, chan, key } => SpecStmt::Recv {
            var: var.clone(),
            chan: chan.clone(),
            key: key.clone(),
        },
        Stmt::Async { callee, args } => SpecStmt::Async {
            callee: callee.name().to_owned(),
            args: args.clone(),
        },
        Stmt::AsyncNamed { name, args, .. } => SpecStmt::Async {
            callee: name.clone(),
            args: args.clone(),
        },
        Stmt::Call { callee, args } => SpecStmt::Call {
            callee: callee.name().to_owned(),
            args: args.clone(),
        },
        Stmt::Skip => SpecStmt::Skip,
    }
}
