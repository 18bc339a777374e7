//! # inseq-engine — parallel exploration and check scheduling
//!
//! This crate makes the explicit-state substitute for the paper's CIVL
//! backend scale: everything in the workspace that enumerates reachable
//! configurations or discharges independent proof obligations can do so on
//! multiple threads through the two layers here.
//!
//! * **Layer 1 — [`ParallelExplorer`]**: a work-stealing explorer that is a
//!   drop-in alternative to [`inseq_kernel::Explorer`]. All workers share
//!   one hash-consing arena, so a successor is deduplicated *before* any
//!   cross-worker handoff and moving work between shards copies three ids —
//!   never a materialized configuration. Each worker owns a deque (push/pop
//!   at the back); idle workers steal batches from the front. The reachable
//!   set, verdict, terminal stores, and edge count are identical to the
//!   sequential explorer's.
//! * **Layer 2 — [`Engine`]**: a job-DAG scheduler running independent
//!   obligations — the Fig. 3 conditions of an IS application, per-pair
//!   mover queries, whole Table 1 rows — concurrently on a fixed thread
//!   pool, collecting per-job wall clock and configuration counts into an
//!   [`EngineReport`].
//!
//! The crate deliberately depends only on `inseq-kernel` and the
//! `inseq-obs` counters (and the standard library): higher layers
//! (`inseq-core`, `inseq-mover`, `inseq-bench`) build their parallel
//! drivers on top of it, not the other way around.
//!
//! ```
//! use inseq_engine::ParallelExplorer;
//! use inseq_kernel::demo::counter_program;
//!
//! let program = counter_program();
//! let init = program.initial_config(vec![]).unwrap();
//! let summary = ParallelExplorer::new(&program)
//!     .with_workers(4)
//!     .summarize(init)
//!     .unwrap();
//! assert!(summary.good);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
mod memo;
mod reduce;
mod schedule;
mod stats;

pub use explore::{ParallelExploration, ParallelExplorer};
pub use reduce::Reducer;
pub use schedule::{Engine, EngineReport, Job, JobResult, JobStats, JobStatus};
pub use stats::{ExploreStats, ShardStats};
