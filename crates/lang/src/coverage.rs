//! Cheap VM-dispatch coverage for coverage-guided fuzzing.
//!
//! A [`CoverageSink`] is a fixed-size bitmap over *dispatch edges*:
//! ordered pairs `(previous opcode kind, current opcode kind)` observed by
//! [`crate::vm`]'s dispatch loop, with a virtual entry node so the first
//! opcode of every op array contributes an edge too. Opcode kinds refine
//! [`Op::Bin`] by its [`BinOp`] and [`Op::Quant`] by its quantifier kind —
//! `Add` flowing into a comparison is a different edge than `Mul` flowing
//! into the same comparison — which gives the fuzzer's scheduler a
//! meaningfully richer signal than 29 bare variants at zero extra cost.
//!
//! A sink belongs to the actions it was attached to at build time
//! ([`crate::spec::ProgramSpec::build_with_coverage`]): the VM records into
//! the sink of the action it is evaluating and nowhere else, so evaluations
//! of other programs — on any thread — never touch it. Actions without a
//! sink pay one branch per dispatched op.
//!
//! Edges are recorded with relaxed `fetch_or`, so the map is a *set*: the
//! union over every evaluation of the sink's actions, independent of thread
//! interleaving and evaluation order. Two runs that execute the same set of
//! evaluations produce bit-identical snapshots no matter how many workers
//! executed them — the property the fuzzer's coverage-determinism gate pins
//! down.
//!
//! [`Op::Bin`]: crate::compile::Op
//! [`Op::Quant`]: crate::compile::Op
//! [`BinOp`]: crate::BinOp

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::compile::{Op, QuantKind};
use crate::expr::BinOp;

/// Distinct opcode kinds: 27 plain variants, 4 quantifier kinds, 14 binary
/// operators.
pub const OP_KINDS: usize = 27 + 4 + 14;

/// The virtual node an op array's first opcode is reached from.
pub(crate) const ENTRY: u16 = OP_KINDS as u16;

/// `u64` words in a coverage snapshot: one bit per `(prev, cur)` edge,
/// `prev` ranging over kinds plus the entry node.
pub const SNAPSHOT_WORDS: usize = ((OP_KINDS + 1) * OP_KINDS).div_ceil(64);

/// A shared dispatch-edge bitmap. Clones share the same bits.
#[derive(Debug, Clone)]
pub struct CoverageSink {
    bits: Arc<[AtomicU64; SNAPSHOT_WORDS]>,
}

impl Default for CoverageSink {
    fn default() -> Self {
        CoverageSink::new()
    }
}

impl CoverageSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        CoverageSink {
            bits: Arc::new([const { AtomicU64::new(0) }; SNAPSHOT_WORDS]),
        }
    }

    /// The recorded edges as bitmap words (always [`SNAPSHOT_WORDS`] long).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.bits.iter().map(|w| w.load(Ordering::SeqCst)).collect()
    }

    #[inline]
    pub(crate) fn record_edge(&self, prev: u16, cur: u16) {
        let bit = prev as usize * OP_KINDS + cur as usize;
        self.bits[bit / 64].fetch_or(1 << (bit % 64), Ordering::Relaxed);
    }
}

/// Number of distinct dispatch edges set in a snapshot.
#[must_use]
pub fn edge_count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The coverage kind index of an opcode.
#[inline]
pub(crate) fn op_index(op: &Op) -> u16 {
    let k = match op {
        Op::Const { .. } => 0,
        Op::Local { .. } => 1,
        Op::Global { .. } => 2,
        Op::Copy { .. } => 3,
        Op::Neg { .. } => 4,
        Op::Not { .. } => 5,
        Op::Jump { .. } => 6,
        Op::JumpIfFalse { .. } => 7,
        Op::JumpIfTrue { .. } => 8,
        Op::SomeOf { .. } => 9,
        Op::IsSome { .. } => 10,
        Op::Unwrap { .. } => 11,
        Op::Tuple { .. } => 12,
        Op::Proj { .. } => 13,
        Op::MapGet { .. } => 14,
        Op::MapSet { .. } => 15,
        Op::SizeOf { .. } => 16,
        Op::Contains { .. } => 17,
        Op::CountOf { .. } => 18,
        Op::WithElem { .. } => 19,
        Op::WithoutElem { .. } => 20,
        Op::UnionOf { .. } => 21,
        Op::IncludedIn { .. } => 22,
        Op::RangeSet { .. } => 23,
        Op::MinOf { .. } => 24,
        Op::MaxOf { .. } => 25,
        Op::SumOf { .. } => 26,
        Op::Quant { kind, .. } => {
            27 + match kind {
                QuantKind::Forall => 0,
                QuantKind::Exists => 1,
                QuantKind::Filter => 2,
                QuantKind::MapImage => 3,
            }
        }
        Op::Bin { op, .. } => {
            31 + match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
                BinOp::Mod => 4,
                BinOp::Eq => 5,
                BinOp::Ne => 6,
                BinOp::Lt => 7,
                BinOp::Le => 8,
                BinOp::Gt => 9,
                BinOp::Ge => 10,
                BinOp::And => 11,
                BinOp::Or => 12,
                BinOp::Implies => 13,
            }
        }
    };
    k as u16
}
