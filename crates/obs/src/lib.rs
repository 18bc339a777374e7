//! Observability primitives for the inductive-sequentialization workspace.
//!
//! The engine's parallel hot paths (sharded exploration, the job scheduler,
//! the mover checker's evaluation cache) need counters that are cheap enough
//! to sit inside inner loops and safe to bump from several threads at once.
//! This crate provides exactly three things and nothing else:
//!
//! * [`Counter`] — a relaxed [`AtomicU64`]: one uncontended `fetch_add` per
//!   event, no ordering guarantees beyond the final sum (which is all a
//!   statistic needs);
//! * [`HitMiss`] / [`HitMissSnapshot`] — the cache-effectiveness pair used by
//!   the kernel interner, the engine's footprint memo, and the mover
//!   checker's evaluation cache;
//! * [`PhaseStat`] — one timed phase (a Fig. 3 premise, an exploration, a
//!   scheduler job) with a wall clock and an item count;
//! * [`EngineSnapshot`] — the parallel-exploration shape of one run
//!   (worker count, per-shard occupancy, steal/migration traffic), filled
//!   in by `inseq-engine` and surfaced through `IsReport.stats`.
//!
//! Counters are *observability data*: they must never influence a verdict,
//! a report's identity, or the explored state space. Consumers therefore
//! exclude snapshot types from their `PartialEq` implementations (see
//! `inseq_core::IsReport`), and this crate deliberately offers no global
//! registry — every statistic lives in the component that produces it, so
//! two concurrent explorations can never bleed counts into each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event counter, safe to bump from any thread.
///
/// All operations use [`Ordering::Relaxed`]: increments from racing threads
/// are never lost, but a concurrent [`get`](Counter::get) may observe any
/// interleaving prefix. Read totals only after the producing threads have
/// been joined when an exact figure matters.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A hit/miss counter pair for a cache or memo, bump-able from any thread.
#[derive(Debug, Default)]
pub struct HitMiss {
    /// Lookups answered from the cache.
    pub hits: Counter,
    /// Lookups that had to do the underlying work.
    pub misses: Counter,
}

impl HitMiss {
    /// Creates a zeroed pair.
    #[must_use]
    pub const fn new() -> Self {
        HitMiss {
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The current totals as a plain-value snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HitMissSnapshot {
        HitMissSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }
}

/// A plain-value snapshot of a [`HitMiss`] pair, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMissSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to do the underlying work.
    pub misses: u64,
}

impl HitMissSnapshot {
    /// Creates a snapshot from plain totals.
    #[must_use]
    pub fn new(hits: u64, misses: u64) -> Self {
        HitMissSnapshot { hits, misses }
    }

    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when there were no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)] // display statistic only
            {
                self.hits as f64 / self.lookups() as f64
            }
        }
    }

    /// Component-wise sum, for merging per-shard snapshots.
    #[must_use]
    pub fn merged(self, other: HitMissSnapshot) -> HitMissSnapshot {
        HitMissSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

impl fmt::Display for HitMissSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit / {} miss ({:.0}%)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

/// Bucket upper bounds of the intern batch-size histogram recorded by the
/// work-stealing engine: batches of 1, 2, ≤4, ≤8, ≤16, ≤32, and >32 staged
/// successors. The last bucket is open-ended.
pub const BATCH_HIST_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Number of buckets in the intern batch-size histogram
/// ([`BATCH_HIST_BOUNDS`] plus the open-ended tail).
pub const BATCH_HIST_BUCKETS: usize = BATCH_HIST_BOUNDS.len() + 1;

/// The histogram bucket a batch of `n` staged successors falls into.
#[must_use]
pub fn batch_hist_bucket(n: u64) -> usize {
    BATCH_HIST_BOUNDS
        .iter()
        .position(|&bound| n <= bound)
        .unwrap_or(BATCH_HIST_BOUNDS.len())
}

/// A plain-value snapshot of the concurrent interner's contention shape:
/// how often a shard lock was found held (and for how long in total), and
/// how the fresh-id inserts spread across the dedup shards. All zero when
/// the run never contended or no concurrent interner was involved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionSnapshot {
    /// Shard-lock acquisitions that found the lock held and had to wait.
    pub lock_waits: u64,
    /// Total nanoseconds spent waiting on held shard locks.
    pub lock_wait_nanos: u64,
    /// Fresh-id inserts per dedup shard (all arenas summed) — the spread
    /// measure: a healthy hash splits inserts near-evenly.
    pub shard_inserts: Vec<u64>,
}

impl ContentionSnapshot {
    /// Total fresh-id inserts across all shards.
    #[must_use]
    pub fn inserts_total(&self) -> u64 {
        self.shard_inserts.iter().sum()
    }

    /// Component-wise sum, for merging snapshots of the same row.
    #[must_use]
    pub fn merged(mut self, other: &ContentionSnapshot) -> ContentionSnapshot {
        self.lock_waits += other.lock_waits;
        self.lock_wait_nanos += other.lock_wait_nanos;
        if self.shard_inserts.len() < other.shard_inserts.len() {
            self.shard_inserts.resize(other.shard_inserts.len(), 0);
        }
        for (slot, more) in self.shard_inserts.iter_mut().zip(&other.shard_inserts) {
            *slot += more;
        }
        self
    }
}

/// A plain-value snapshot of one parallel exploration's engine-level shape:
/// how many workers ran, how evenly the expansion work spread across their
/// shards, and how much work moved between them.
///
/// Like every snapshot in this crate it is observability data only —
/// consumers exclude it from report equality. A default value (zero
/// workers) means "no parallel engine ran", e.g. a sequential check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Worker threads the exploration ran with; zero when no parallel
    /// engine was involved.
    pub workers: u32,
    /// Configurations expanded per shard, indexed by worker — the occupancy
    /// measure: a balanced run has near-equal entries.
    pub expanded: Vec<u64>,
    /// Successful steal operations across all workers (work-stealing
    /// engine only).
    pub steals: u64,
    /// Configurations that changed hands by stealing (work-stealing engine
    /// only).
    pub stolen: u64,
    /// Configurations stolen *from* some worker's deque, counted at the
    /// victim; equals `stolen` (steal conservation).
    pub migrated: u64,
    /// Pending asyncs left unexpanded because an ample singleton stood in
    /// for them (partial-order reduction; zero on unreduced runs).
    pub pruned: u64,
    /// Successors whose orbit representative differed from the raw
    /// successor under the symmetry quotient (zero on unreduced runs).
    pub orbit_collapses: u64,
    /// Shard-lock acquisitions on the concurrent interner that found the
    /// lock held (work-stealing engine only; zero elsewhere).
    pub lock_waits: u64,
    /// Total nanoseconds spent waiting on held interner shard locks.
    pub lock_wait_nanos: u64,
    /// Phase-3 intern batches the workers staged (one per expansion round
    /// that interned at least one successor).
    pub intern_batches: u64,
    /// Batch-size histogram over those batches, [`BATCH_HIST_BUCKETS`]
    /// buckets with bounds [`BATCH_HIST_BOUNDS`]; empty when no concurrent
    /// interner ran.
    pub intern_batch_hist: Vec<u64>,
    /// Fresh-id inserts per interner dedup shard (all arenas summed); empty
    /// when no concurrent interner ran.
    pub shard_inserts: Vec<u64>,
}

impl EngineSnapshot {
    /// Total configurations expanded across all shards.
    #[must_use]
    pub fn expanded_total(&self) -> u64 {
        self.expanded.iter().sum()
    }

    /// The busiest shard's share of all expansions, in `[0, 1]`; `1/workers`
    /// is perfect balance, `1.0` means one shard did everything. Zero when
    /// nothing was expanded.
    #[must_use]
    pub fn max_shard_share(&self) -> f64 {
        let total = self.expanded_total();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)] // display statistic only
            {
                self.expanded.iter().copied().max().unwrap_or(0) as f64 / total as f64
            }
        }
    }

    /// Whether a parallel engine contributed to this snapshot.
    #[must_use]
    pub fn ran(&self) -> bool {
        self.workers > 0
    }

    /// Merges two snapshots of the same benchmark row: traffic counters
    /// add, per-shard occupancy adds component-wise (shorter profiles are
    /// zero-padded), and the worker count is the larger of the two.
    #[must_use]
    pub fn merged(mut self, other: &EngineSnapshot) -> EngineSnapshot {
        self.workers = self.workers.max(other.workers);
        if self.expanded.len() < other.expanded.len() {
            self.expanded.resize(other.expanded.len(), 0);
        }
        for (slot, more) in self.expanded.iter_mut().zip(&other.expanded) {
            *slot += more;
        }
        self.steals += other.steals;
        self.stolen += other.stolen;
        self.migrated += other.migrated;
        self.pruned += other.pruned;
        self.orbit_collapses += other.orbit_collapses;
        self.lock_waits += other.lock_waits;
        self.lock_wait_nanos += other.lock_wait_nanos;
        self.intern_batches += other.intern_batches;
        if self.intern_batch_hist.len() < other.intern_batch_hist.len() {
            self.intern_batch_hist
                .resize(other.intern_batch_hist.len(), 0);
        }
        for (slot, more) in self
            .intern_batch_hist
            .iter_mut()
            .zip(&other.intern_batch_hist)
        {
            *slot += more;
        }
        if self.shard_inserts.len() < other.shard_inserts.len() {
            self.shard_inserts.resize(other.shard_inserts.len(), 0);
        }
        for (slot, more) in self.shard_inserts.iter_mut().zip(&other.shard_inserts) {
            *slot += more;
        }
        self
    }
}

impl fmt::Display for EngineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} worker(s), {} expanded (max shard {:.0}%), {} steals moving {} configs",
            self.workers,
            self.expanded_total(),
            self.max_shard_share() * 100.0,
            self.steals,
            self.stolen,
        )?;
        if self.migrated != self.stolen {
            write!(f, ", {} migrated", self.migrated)?;
        }
        if self.pruned > 0 || self.orbit_collapses > 0 {
            write!(
                f,
                ", {} pruned, {} orbit collapses",
                self.pruned, self.orbit_collapses
            )?;
        }
        if self.intern_batches > 0 {
            write!(f, ", {} intern batches", self.intern_batches)?;
        }
        if self.lock_waits > 0 {
            write!(
                f,
                ", {} lock waits ({:.2} ms)",
                self.lock_waits,
                self.lock_wait_nanos as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

/// One timed phase of a larger check: a name, its wall clock, and how many
/// items (configurations, premise instances, pairwise checks, …) it covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase's name (e.g. `explore`, `(I2) I∖PA_E ≼ M'`).
    pub name: String,
    /// Wall-clock time the phase took.
    pub wall: Duration,
    /// Items the phase covered; zero when not applicable.
    pub items: usize,
}

impl PhaseStat {
    /// Creates a phase stat.
    #[must_use]
    pub fn new(name: impl Into<String>, wall: Duration, items: usize) -> Self {
        PhaseStat {
            name: name.into(),
            wall,
            items,
        }
    }
}

impl fmt::Display for PhaseStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:.2} ms", self.name, self.wall.as_secs_f64() * 1e3)?;
        if self.items > 0 {
            write!(f, " ({} items)", self.items)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn hit_miss_snapshot_math() {
        let hm = HitMiss::new();
        hm.hits.add(3);
        hm.misses.incr();
        let s = hm.snapshot();
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        let merged = s.merged(HitMissSnapshot::new(1, 1));
        assert_eq!(merged, HitMissSnapshot::new(4, 2));
        assert!(s.to_string().contains("3 hit / 1 miss"));
    }

    #[test]
    fn zero_lookups_have_zero_rate() {
        assert_eq!(HitMissSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn engine_snapshot_occupancy_math() {
        let snap = EngineSnapshot::default();
        assert!(!snap.ran());
        assert_eq!(snap.max_shard_share(), 0.0);

        let snap = EngineSnapshot {
            workers: 4,
            expanded: vec![30, 30, 20, 20],
            steals: 5,
            stolen: 12,
            migrated: 12,
            ..EngineSnapshot::default()
        };
        assert!(snap.ran());
        assert_eq!(snap.expanded_total(), 100);
        assert!((snap.max_shard_share() - 0.3).abs() < 1e-9);
        let text = snap.to_string();
        assert!(text.contains("4 worker(s)"), "{text}");
        assert!(text.contains("5 steals moving 12"), "{text}");
        assert!(!text.contains("migrated"), "conserved steals: {text}");

        let reduced = EngineSnapshot {
            workers: 2,
            expanded: vec![10, 10],
            pruned: 7,
            orbit_collapses: 3,
            ..EngineSnapshot::default()
        };
        assert!(reduced.to_string().contains("7 pruned, 3 orbit collapses"));
    }

    #[test]
    fn batch_hist_buckets_cover_bounds_and_tail() {
        assert_eq!(batch_hist_bucket(1), 0);
        assert_eq!(batch_hist_bucket(2), 1);
        assert_eq!(batch_hist_bucket(3), 2);
        assert_eq!(batch_hist_bucket(4), 2);
        assert_eq!(batch_hist_bucket(8), 3);
        assert_eq!(batch_hist_bucket(32), 5);
        assert_eq!(batch_hist_bucket(33), BATCH_HIST_BUCKETS - 1);
        assert_eq!(batch_hist_bucket(1_000_000), BATCH_HIST_BUCKETS - 1);
    }

    #[test]
    fn contention_snapshot_merges_component_wise() {
        let a = ContentionSnapshot {
            lock_waits: 2,
            lock_wait_nanos: 100,
            shard_inserts: vec![1, 2],
        };
        let b = ContentionSnapshot {
            lock_waits: 1,
            lock_wait_nanos: 50,
            shard_inserts: vec![10, 20, 30],
        };
        let m = a.merged(&b);
        assert_eq!(m.lock_waits, 3);
        assert_eq!(m.lock_wait_nanos, 150);
        assert_eq!(m.shard_inserts, vec![11, 22, 30]);
        assert_eq!(m.inserts_total(), 63);
    }

    #[test]
    fn engine_snapshot_shows_contention_when_present() {
        let snap = EngineSnapshot {
            workers: 2,
            expanded: vec![5, 5],
            intern_batches: 9,
            lock_waits: 3,
            lock_wait_nanos: 4_000_000,
            ..EngineSnapshot::default()
        };
        let text = snap.to_string();
        assert!(text.contains("9 intern batches"), "{text}");
        assert!(text.contains("3 lock waits (4.00 ms)"), "{text}");
        // Contention-free snapshots stay terse.
        assert!(!EngineSnapshot::default().to_string().contains("lock waits"));
    }

    #[test]
    fn phase_stat_displays_items_only_when_present() {
        let p = PhaseStat::new("explore", Duration::from_millis(2), 25);
        assert!(p.to_string().contains("25 items"));
        let p = PhaseStat::new("(I1)", Duration::from_millis(1), 0);
        assert!(!p.to_string().contains("items"));
    }
}
