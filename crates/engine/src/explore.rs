//! Layer 1: parallel exploration over a lock-free concurrent interner with
//! per-shard work-stealing deques.
//!
//! [`ParallelExplorer`] is a drop-in alternative to
//! [`inseq_kernel::Explorer`]: it enumerates exactly the same reachable
//! configuration set and produces the same `Good`/`Trans` summary, but
//! expands configurations on `N` worker threads. Three structural decisions
//! distinguish it from the channel-migration engine it replaced (per-shard
//! private interners exchanging materialized configurations over `mpsc`
//! channels):
//!
//! 1. **One shared [`ConcurrentInterner`]** instead of a private interner
//!    per shard — and instead of the global `Mutex<Arena>` this engine
//!    itself used before. Ids are meaningful to every worker, so a
//!    successor is deduplicated *before* any cross-worker handoff, and
//!    handing work to another worker moves three ids, not a materialized
//!    [`Config`]. Resolution is entirely lock-free: arenas are segmented
//!    and pointer-stable, so a worker borrows the parent's `GlobalStore`,
//!    slot ids, and bag entries straight from the interner for the whole
//!    expansion — the old phase-1 snapshot lock (and the per-worker
//!    pending-async cache that grew to the global `PaId` universe per
//!    worker) is gone wholesale. Dedup locks only the hashed value's index
//!    shard, so inserts of distinct values proceed in parallel.
//! 2. **Batched phase-3 interning.** A worker stages a whole expansion's
//!    successors thread-locally — strictly-changed store slots, bag entry
//!    diffs, created pending asyncs — then interns them through the
//!    interner's batch API, which groups each kind by dedup shard and locks
//!    every affected shard at most once per pass. An expansion with a dozen
//!    successors pays O(affected shards) lock acquisitions, not
//!    O(successors), and nothing is interned at all on an evaluation
//!    fault. Batch sizes and shard-lock contention surface as engine
//!    counters (`--stats`).
//! 3. **Per-shard work-stealing deques** instead of channels. Each worker
//!    owns a deque of `(config, store, bag)` id triples: it pushes and pops
//!    work at the *back* (LIFO, cache-warm), and an idle worker steals
//!    `⌈len/2⌉` (capped at [`STEAL_BATCH`]) from the *front* of a victim's
//!    deque — one `drain` buffer operation, not a per-config send. There is
//!    no ownership routing: whichever worker interns a fresh configuration
//!    queues it locally, and load balance emerges from stealing.
//!
//! # Witness traces
//!
//! Alongside each interned configuration the interner records a **parent
//! edge** embedded in the config arena entry: the predecessor's
//! [`ConfigId`], the fired pending async, and the recorded firing distance
//! from a seed, packed into atomics written only under the config's dedup
//! shard lock. A fresh intern records its discovering edge; a duplicate
//! intern *relaxes* the stored parent when it arrived via a shorter
//! recorded path. Recorded distances strictly decrease along parent chains
//! (relaxation only ever lowers a target's distance), so every chain is
//! acyclic and terminates at a seed even while other workers relax edges
//! mid-walk — walking it lock-free yields a concrete, replayable firing
//! sequence for any configuration of interest: gate failures
//! ([`ParallelExploration::failure_witnesses`]), deadlocks
//! ([`ParallelExploration::deadlock_witnesses`]), budget exhaustion (the
//! `trace` inside [`ExploreError::BudgetExceeded`]), or any reachable
//! configuration ([`ParallelExploration::trace_to`]). Traces are valid
//! paths but not guaranteed globally shortest: a relaxation does not
//! propagate to already-recorded descendants.
//!
//! # Reduction
//!
//! [`ParallelExplorer::with_reduction`] applies the same
//! [`ReductionPolicy`] contract as the sequential explorer: when the policy
//! proves an ample singleton sound at a configuration, only that pending
//! async is expanded, with the cycle proviso that an ample round which
//! interns nothing fresh falls back to expanding the remaining pendings.
//! The ample decision sees owned pending-async values through a *bounded*
//! per-worker cache (capacity [`PA_CACHE_CAP`], epoch-evicted, peak size
//! reported in stats). Successors are canonicalized under the policy's
//! symmetry quotient (if any) before interning, with a per-worker
//! canonicalization cache. Reduced traces under a symmetry quotient are
//! valid modulo node renaming only.
//!
//! # Expansion pipeline
//!
//! A worker expands one configuration in three phases: (1) borrow the
//! parent's store, slot ids, and bag entries from the interner — lock-free,
//! the references stay valid for the interner's lifetime; (2) evaluate
//! every selected pending async, consulting the shared footprint memo
//! ([`crate::memo`]) exactly like the sequential path; (3) stage every
//! successor as a small diff against the parent's ids (changed slots
//! compared value-by-value against the footprint's write set, bag entries
//! rebuilt by a sorted merge) and intern the whole batch — values, stores,
//! created pendings, bags, then configs with their parent edges — through
//! one shard-grouped pass per kind. Fresh successors are pushed onto the
//! worker's own deque in one batch.
//!
//! # Termination
//!
//! A shared in-flight counter tracks configurations that are queued or
//! being expanded: it is incremented for every fresh successor *before* the
//! parent's own decrement, so the counter can only reach zero when no work
//! exists anywhere — at which point every spinning worker observes the zero
//! and exits. Stolen batches move between locked deques and are never
//! uncounted in transit.
//!
//! # Cancellation and budget
//!
//! A shared cancellation flag stops all workers early on the first kernel
//! error, on budget exhaustion, or — when
//! [`ParallelExplorer::stop_on_first_failure`] is set — on the first gate
//! violation. The budget is checked against the shared interner's exact
//! config count at each fresh intern (seeds exempt), mirroring the
//! sequential explorer; exhaustion reports the post-join visited total via
//! [`ExploreError::BudgetExceeded`], with a concrete witness trace to the
//! exhaustion point walked lock-free from the parent-edge log. Per-shard
//! counters survive every error path:
//! [`ParallelExplorer::explore_with_stats`] aggregates them after the join
//! even when the run is cut short mid-steal.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::memo::{build_plans, MemoPlan, Resolved, SharedMemo, View};
use crate::stats::{ExploreStats, ShardStats};

use inseq_obs::HitMissSnapshot;

use inseq_kernel::hash::FxHasher;
use inseq_kernel::{
    canonical_parts_concurrent, ActionName, BagId, ConcurrentInterner, Config, ConfigId, ConfigReq,
    ExploreError, FailureWitness, GlobalStore, Multiset, PaId, PendingAsync, Program,
    ReductionPolicy, Step, StoreId, StoreReq, Summary, Trace, Value, ValueId,
    DEFAULT_CONFIG_BUDGET,
};

/// Upper bound on the configurations moved by one steal. Half the victim's
/// deque is taken up to this cap: enough to amortize the steal far beyond
/// its two lock acquisitions, small enough that a thief cannot starve a
/// victim that is about to pop its own back end.
const STEAL_BATCH: usize = 64;

/// Capacity bound of the per-worker pending-async value cache used on the
/// reduction path (the ample decision needs owned values). The cache is
/// epoch-evicted — cleared wholesale when full — so a worker's footprint is
/// bounded by the cap instead of growing to the global `PaId` universe;
/// re-warming reads the lock-free arena. The high-water mark is reported
/// per worker via `ShardStats::pa_cache_peak`.
const PA_CACHE_CAP: usize = 8192;

/// Capacity of the per-worker successor cache (`(store, pending async)` →
/// interned firing outcome). Epoch-evicted like the pending-async cache:
/// cleared wholesale before an expansion that could overflow it, never
/// mid-expansion, so every selected pending async of the round in progress
/// stays resident.
const SUCC_CACHE_CAP: usize = 1 << 18;

/// Probes a worker observes before judging whether its successor cache
/// earns its keep on this program.
const SUCC_WARMUP_PROBES: u64 = 8192;

/// Minimum hit percentage after warmup. Below it the worker flips the
/// cache to *bypass*: probing stops and the map is cleared after every
/// expansion, so entries only ever span the expansion that needs them and
/// the map stays small and cache-hot. Protocols whose stores never repeat
/// across configurations (each `(store, pending)` pair is seen once —
/// Paxos is the extreme) would otherwise grow a hundreds-of-thousands-
/// entry map per worker whose cold inserts cost more than the evaluations
/// they can never save.
const SUCC_MIN_HIT_PCT: u64 = 10;

/// A unit of work: an interned configuration and its parts. Ids are global
/// (one shared interner), so handing this to another worker is a copy of
/// three `u32`s — no materialization, no re-interning.
type WorkItem = (ConfigId, StoreId, BagId);

/// A `HashMap` keyed through [`FxHasher`] — the right table for the
/// worker-local caches keyed by interner ids, which SipHash would dominate.
type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A parallel exhaustive explorer for a [`Program`].
///
/// Mirrors the sequential [`inseq_kernel::Explorer`] API: construct with
/// [`ParallelExplorer::new`], optionally configure, then call
/// [`explore`](ParallelExplorer::explore) or
/// [`summarize`](ParallelExplorer::summarize).
pub struct ParallelExplorer<'p> {
    program: &'p Program,
    workers: usize,
    budget: usize,
    stop_on_failure: bool,
    reduction: Option<&'p dyn ReductionPolicy>,
}

impl fmt::Debug for ParallelExplorer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelExplorer")
            .field("workers", &self.workers)
            .field("budget", &self.budget)
            .field("stop_on_failure", &self.stop_on_failure)
            .field("reduced", &self.reduction.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> ParallelExplorer<'p> {
    /// Creates a parallel explorer with one worker per available hardware
    /// thread and the default configuration budget.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        ParallelExplorer {
            program,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            budget: DEFAULT_CONFIG_BUDGET,
            stop_on_failure: false,
            reduction: None,
        }
    }

    /// Sets the number of worker threads (and therefore deques). Clamped to
    /// at least one.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the maximum number of distinct configurations to visit before
    /// giving up with [`ExploreError::BudgetExceeded`].
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Explores under a reduction policy, with the same semantics as
    /// [`inseq_kernel::Explorer::with_reduction`]: ample singletons where
    /// the policy proves them sound, successor canonicalization under the
    /// policy's symmetry quotient. Verdicts are preserved; visited/edge
    /// counts refer to the *reduced* graph.
    #[must_use]
    pub fn with_reduction(mut self, policy: &'p dyn ReductionPolicy) -> Self {
        self.reduction = Some(policy);
        self
    }

    /// When enabled, the first gate violation cancels all workers instead of
    /// letting the exploration run to completion. The verdict (`good =
    /// false`) is unaffected, but the reachable set in the result is then a
    /// *subset* of the true one — leave this off (the default) when the full
    /// set matters, e.g. for equivalence with the sequential explorer.
    #[must_use]
    pub fn stop_on_first_failure(mut self, stop: bool) -> Self {
        self.stop_on_failure = stop;
        self
    }

    /// The configured number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Explores all configurations reachable from the given initial
    /// configurations, in parallel.
    ///
    /// The resulting reachable set, failure verdict, deadlock set, terminal
    /// stores, and edge count are identical to those of
    /// [`inseq_kernel::Explorer::explore`] on the same input.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::BudgetExceeded`] when the visited set
    /// exceeds the budget and [`ExploreError::Kernel`] when a pending async
    /// refers to an unknown action or has the wrong arity.
    pub fn explore(
        &self,
        initial: impl IntoIterator<Item = Config>,
    ) -> Result<ParallelExploration, ExploreError> {
        self.explore_with_stats(initial).0
    }

    /// Like [`explore`](Self::explore), but also returns the aggregated
    /// per-shard counters even when the exploration fails: on
    /// `BudgetExceeded` (or any other error) the workers' outputs are still
    /// joined and merged, so steal/expansion accounting is never lost to
    /// the error path.
    pub fn explore_with_stats(
        &self,
        initial: impl IntoIterator<Item = Config>,
    ) -> (Result<ParallelExploration, ExploreError>, ExploreStats) {
        // Force one-time action setup (e.g. compiling to bytecode) before
        // spawning workers, so they never race on first-eval compilation.
        self.program.prepare_actions();
        let n = self.workers;

        // Seeds are interned up front by the calling thread — exempt from
        // the budget check, like the sequential explorer's — and dealt
        // round-robin across the deques. Seeds carry no parent edge.
        let interner = ConcurrentInterner::new();
        let mut seed_items: Vec<WorkItem> = Vec::new();
        let mut seed_hits = 0u64;
        for config in initial {
            let (id, fresh) = interner.intern_config(&config, None);
            if fresh {
                let (sid, bagid) = interner.config_parts(id);
                seed_items.push((id, sid, bagid));
            } else {
                seed_hits += 1;
            }
        }
        if seed_items.is_empty() {
            let stats = ExploreStats {
                shards: vec![ShardStats::default(); n],
                memo: HitMissSnapshot::default(),
                contention: interner.contention(),
            };
            return (
                Ok(ParallelExploration::empty(interner, stats.clone())),
                stats,
            );
        }
        let seed_count = seed_items.len();

        let deques: Vec<Deque> = (0..n).map(|_| Deque::default()).collect();
        for (k, item) in seed_items.into_iter().enumerate() {
            deques[k % n]
                .queue
                .lock()
                .expect("deque poisoned")
                .push_back(item);
        }
        let shared = Shared {
            interner,
            deques,
            in_flight: AtomicUsize::new(seed_count),
            cancelled: AtomicBool::new(false),
            error: Mutex::new(None),
        };
        let plans = build_plans(self.program);
        let memo = SharedMemo::for_plans(plans.is_empty());

        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let worker = Worker {
                        me,
                        program: self.program,
                        budget: self.budget,
                        stop_on_failure: self.stop_on_failure,
                        reduction: self.reduction,
                        shared: &shared,
                        plans: &plans,
                        memo: memo.as_ref(),
                        pa_cache: FxHashMap::default(),
                        pa_buf: Vec::new(),
                        counts: Vec::new(),
                        outcomes: Vec::new(),
                        succ_cache: FxHashMap::default(),
                        succ_probes: 0,
                        succ_hits: 0,
                        succ_bypass: false,
                        fresh: Vec::new(),
                        canon_cache: FxHashMap::default(),
                        out: WorkerOutput::default(),
                    };
                    scope.spawn(move || worker.run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked"))
                .collect()
        });

        // Post-join aggregation: per-shard counters survive every exit path
        // (normal, cancelled, budget-exceeded mid-steal). Work a shard lost
        // to thieves is counted at its deque, not in the thieves' outputs.
        let mut stats = ExploreStats {
            shards: Vec::with_capacity(n),
            memo: memo
                .as_ref()
                .map_or_else(HitMissSnapshot::default, SharedMemo::snapshot),
            contention: shared.interner.contention(),
        };
        let mut failures = Vec::new();
        let mut deadlocks = Vec::new();
        let mut terminal_ids: BTreeSet<StoreId> = BTreeSet::new();
        let mut edges = 0usize;
        for (i, out) in outputs.into_iter().enumerate() {
            let mut shard = out.stats;
            shard.migrated_out = shared.deques[i].stolen_from.load(Ordering::Relaxed);
            if i == 0 {
                // Seed interning ran on the calling thread; credit it to
                // shard 0 so summed misses equal the visited-set size.
                shard.intern = shard
                    .intern
                    .merged(HitMissSnapshot::new(seed_hits, seed_count as u64));
            }
            stats.shards.push(shard);
            failures.extend(out.failures);
            deadlocks.extend(out.deadlocks);
            terminal_ids.extend(out.terminal);
            edges += out.edges;
        }

        let Shared {
            interner, error, ..
        } = shared;
        if let Some(mut err) = error.into_inner().expect("error slot poisoned") {
            if let ExploreError::BudgetExceeded { visited, .. } = &mut err {
                // Racing workers may have interned past the recording
                // worker's observation; report the post-join exact total.
                *visited = interner.config_count();
            }
            return (Err(err), stats);
        }
        // Terminal stores were recorded as ids only — no store was ever
        // cloned inside the hot loop; materialize them once, after the join.
        let terminal: BTreeSet<GlobalStore> = terminal_ids
            .iter()
            .map(|&sid| interner.store(sid).clone())
            .collect();
        (
            Ok(ParallelExploration {
                interner,
                failures,
                deadlocks,
                terminal,
                edges,
                stats: stats.clone(),
            }),
            stats,
        )
    }

    /// Computes the program summary (the data of Def. 3.2) for a single
    /// initialized configuration, like [`inseq_kernel::Explorer::summarize`].
    ///
    /// # Errors
    ///
    /// Propagates exploration errors.
    pub fn summarize(&self, initial: Config) -> Result<Summary, ExploreError> {
        Ok(self.explore([initial])?.summary())
    }
}

/// One worker's work-stealing deque. The owner pushes and pops at the back
/// under the mutex; thieves drain a batch from the front under the same
/// mutex, so an item is delivered to exactly one worker.
#[derive(Debug, Default)]
struct Deque {
    queue: Mutex<VecDeque<WorkItem>>,
    /// Configurations stolen *from* this deque over the whole run — the
    /// deque engine's migration counter, read after the join.
    stolen_from: AtomicU64,
}

struct Shared {
    /// The shared arenas, dedup shards, and parent-edge log. No wrapping
    /// mutex: reads are lock-free and writes lock only the hashed value's
    /// dedup shard.
    interner: ConcurrentInterner,
    deques: Vec<Deque>,
    /// Configurations queued or currently being expanded. Zero is
    /// conclusive: fresh successors are counted before their parent's
    /// decrement, and steals move items between locked deques.
    in_flight: AtomicUsize,
    cancelled: AtomicBool,
    /// First error observed by any worker.
    error: Mutex<Option<ExploreError>>,
}

/// Per-worker results, moved out of the worker when it exits. Failures and
/// deadlocks carry the [`ConfigId`] at which they occurred, so witness
/// traces resolve against the parent-edge log after the join; terminals
/// carry the [`StoreId`] only and are materialized after the join.
#[derive(Debug, Default)]
struct WorkerOutput {
    failures: Vec<(ConfigId, Config, PendingAsync, String)>,
    deadlocks: Vec<(ConfigId, Config)>,
    terminal: BTreeSet<StoreId>,
    edges: usize,
    stats: ShardStats,
}

/// One staged transition of the cache-fill in progress: the strictly-
/// changed store slots (post-values) and the created pending multiset,
/// borrowed from the evaluation outcome. Which pending fired is tracked
/// alongside, per outcome, by the fill's span list. Nothing is interned
/// until the whole round's stage is complete.
struct Staged<'a> {
    writes: Vec<(usize, Value)>,
    created: &'a Multiset<PendingAsync>,
}

/// The interned outcome of firing one pending async on one store — the
/// payload of the per-worker successor cache. Firing is a pure function of
/// the `(store, pending async)` pair, both already canonical ids, and ids
/// are append-only, so an entry stays sound for the whole run and across
/// every configuration that shares the store.
enum CachedSucc {
    /// The firing violates its gate. Cached so repeat encounters skip
    /// re-evaluation; the failure is *reported* (with a witness) at every
    /// configuration that can fire it, exactly like the uncached path.
    Failure(String),
    /// Per nondeterministic transition: the interned successor store and
    /// the interned created pendings in the bag's canonical (resolved)
    /// order, ready for the per-configuration bag merge.
    Steps {
        stores: Vec<StoreId>,
        created: Vec<Box<[(PaId, u32)]>>,
    },
}

struct Worker<'p, 'sh> {
    me: usize,
    program: &'p Program,
    budget: usize,
    stop_on_failure: bool,
    /// The reduction policy, if any — consulted on lock-free borrows.
    reduction: Option<&'p dyn ReductionPolicy>,
    shared: &'sh Shared,
    /// Per-action memoization plans (absent for opaque actions).
    plans: &'sh HashMap<ActionName, MemoPlan>,
    /// The shared evaluation memo; `None` when no action has a footprint.
    memo: Option<&'sh SharedMemo>,
    /// Bounded pending-async value cache for the reduction path (the ample
    /// decision needs owned values). Capacity [`PA_CACHE_CAP`],
    /// epoch-evicted; unused on unreduced runs, where workers borrow
    /// pending asyncs lock-free from the interner instead.
    pa_cache: FxHashMap<PaId, PendingAsync>,
    /// Reusable buffer of the distinct pending-async ids of the
    /// configuration under expansion.
    pa_buf: Vec<PaId>,
    /// Multiplicities aligned with `pa_buf`, so the ample decision sees the
    /// full bag.
    counts: Vec<u32>,
    /// Reusable buffer of evaluated outcomes, staged and batch-interned in
    /// phase 3.
    outcomes: Vec<(PaId, Resolved)>,
    /// Successor cache: `(store, pending async)` → the interned result of
    /// firing that pending async on that store. Many configurations share
    /// a store, so hits skip evaluation, write-diffing, and value/store
    /// interning entirely — only the per-configuration stages (bag merge,
    /// config interning, parent edge) remain. Capacity
    /// [`SUCC_CACHE_CAP`], epoch-evicted between expansions.
    succ_cache: FxHashMap<(StoreId, PaId), CachedSucc>,
    /// Lifetime probe/hit counts of the successor cache, driving the
    /// post-warmup bypass decision.
    succ_probes: u64,
    succ_hits: u64,
    /// Set once the warmup showed the cache cannot pay for itself on this
    /// program; see [`SUCC_MIN_HIT_PCT`].
    succ_bypass: bool,
    /// Fresh successors of the current expansion, queued in one batch.
    fresh: Vec<WorkItem>,
    /// Raw successor parts → canonical orbit parts, per worker. Sound to
    /// cache because interner ids are append-only.
    canon_cache: FxHashMap<(StoreId, BagId), (StoreId, BagId)>,
    out: WorkerOutput,
}

/// A non-failure reason to abandon the current configuration mid-step.
enum StepFault {
    Kernel(ExploreError),
    StopOnFailure,
}

/// Walks the parent-edge log from `target` back to a seed and resolves it
/// into concrete steps — entirely lock-free. Chains are acyclic (recorded
/// distances strictly decrease along them, even under concurrent
/// relaxation), so this terminates.
fn trace_from(interner: &ConcurrentInterner, target: ConfigId) -> Trace {
    let mut steps = Vec::new();
    let mut cursor = target;
    while let Some((parent, fired)) = interner.parent_edge(cursor) {
        steps.push(Step {
            before: interner.resolve_config(parent),
            fired: interner.pa(fired).clone(),
            after: interner.resolve_config(cursor),
        });
        cursor = parent;
    }
    steps.reverse();
    Trace { steps }
}

impl Worker<'_, '_> {
    fn run(mut self) -> WorkerOutput {
        loop {
            if self.shared.cancelled.load(Ordering::Acquire) {
                break;
            }
            match self.pop_or_steal() {
                Some(item) => {
                    self.expand(item);
                    // The parent is done only now; its fresh successors were
                    // counted inside `expand`, so a zero stays conclusive.
                    self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    if self.shared.in_flight.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // Another worker holds counted work; let it run (this
                    // matters on fewer cores than workers).
                    std::thread::yield_now();
                }
            }
        }
        self.out
    }

    /// Pops from the back of the own deque, or steals a batch from the
    /// front of the first non-empty victim. Returns `None` only when every
    /// deque was observed empty.
    fn pop_or_steal(&mut self) -> Option<WorkItem> {
        if let Some(item) = self.shared.deques[self.me]
            .queue
            .lock()
            .expect("deque poisoned")
            .pop_back()
        {
            return Some(item);
        }
        let n = self.shared.deques.len();
        for k in 1..n {
            let victim = &self.shared.deques[(self.me + k) % n];
            let mut stolen: Vec<WorkItem> = {
                let mut q = victim.queue.lock().expect("deque poisoned");
                let len = q.len();
                if len == 0 {
                    continue;
                }
                let take = len.div_ceil(2).min(STEAL_BATCH);
                victim.stolen_from.fetch_add(take as u64, Ordering::Relaxed);
                q.drain(..take).collect()
            };
            self.out.stats.steals += 1;
            self.out.stats.stolen_in += stolen.len() as u64;
            let first = stolen.pop();
            if !stolen.is_empty() {
                self.shared.deques[self.me]
                    .queue
                    .lock()
                    .expect("deque poisoned")
                    .extend(stolen);
            }
            return first;
        }
        None
    }

    /// An owned copy of a pending async through the bounded per-worker
    /// cache (reduction path only — the hot path borrows lock-free).
    fn cached_pa(&mut self, paid: PaId) -> PendingAsync {
        if let Some(pa) = self.pa_cache.get(&paid) {
            return pa.clone();
        }
        let pa = self.shared.interner.pa(paid).clone();
        if self.pa_cache.len() >= PA_CACHE_CAP {
            // Epoch eviction: drop the whole map instead of tracking
            // recency per entry; the cap bounds worst-case memory and
            // re-warming reads the lock-free arena.
            self.pa_cache.clear();
        }
        self.pa_cache.insert(paid, pa.clone());
        self.out.stats.pa_cache_peak = self.out.stats.pa_cache_peak.max(self.pa_cache.len() as u64);
        pa
    }

    /// The pending bag of the configuration under expansion, rebuilt from
    /// the lock-free arena.
    fn snapshot_bag(&self) -> Multiset<PendingAsync> {
        let interner = &self.shared.interner;
        let mut bag = Multiset::new();
        for (&paid, &count) in self.pa_buf.iter().zip(&self.counts) {
            bag.insert_n(interner.pa(paid).clone(), count as usize);
        }
        bag
    }

    /// Expands one configuration: borrow the parent's parts (lock-free) →
    /// choose an ample set → evaluate → stage and batch-intern successors
    /// with their parent edges → queue fresh work. With a reduction policy
    /// the evaluate/intern rounds may run twice: the cycle proviso falls
    /// back to the pruned pendings when the ample round interns nothing
    /// fresh.
    fn expand(&mut self, (cid, sid, bagid): WorkItem) {
        self.out.stats.expanded += 1;
        let interner = &self.shared.interner;

        // Phase 1: borrow the parent's parts straight from the pointer-
        // stable arenas. No lock, no snapshot clone — the references stay
        // valid for the whole expansion.
        let store: &GlobalStore = interner.store(sid);
        self.pa_buf.clear();
        self.counts.clear();
        for &(p, count) in interner.bag_entries(bagid) {
            self.pa_buf.push(p);
            self.counts.push(count);
        }
        if self.pa_buf.is_empty() {
            // Terminal: record the id only; stores materialize post-join.
            self.out.terminal.insert(sid);
        }

        // Post-warmup verdict on the successor cache, then epoch eviction —
        // both decided before anything of this expansion is cached, and at
        // most one entry per distinct pending is inserted below, so a clear
        // here (and only here) keeps the whole round resident.
        if !self.succ_bypass
            && self.succ_probes >= SUCC_WARMUP_PROBES
            && self.succ_hits * 100 < self.succ_probes * SUCC_MIN_HIT_PCT
        {
            self.succ_bypass = true;
            self.succ_cache.clear();
        }
        if self.succ_cache.len() + self.pa_buf.len() > SUCC_CACHE_CAP {
            self.succ_cache.clear();
        }

        // Ample decision: the policy sees the full bag (owned values via
        // the bounded cache + multiplicities).
        let ample: Option<PaId> = match self.reduction {
            Some(policy) if self.pa_buf.len() >= 2 => {
                let mut pending: Vec<(PendingAsync, usize)> = Vec::with_capacity(self.pa_buf.len());
                for k in 0..self.pa_buf.len() {
                    let paid = self.pa_buf[k];
                    let count = self.counts[k] as usize;
                    let pa = self.cached_pa(paid);
                    pending.push((pa, count));
                }
                policy
                    .ample(self.program, store, &pending)
                    .map(|i| self.pa_buf[i])
            }
            _ => None,
        };
        let mut selected: Vec<PaId> = match ample {
            Some(p) => vec![p],
            None => self.pa_buf.clone(),
        };
        let mut ample_round = ample.is_some();

        let mut fault = None;
        let mut progressed = self.pa_buf.is_empty();
        loop {
            // Phase 2: evaluate the selected pending asyncs whose firing
            // outcome the successor cache does not already hold (the
            // footprint memo takes its own short lock per probe/insert).
            // Firing is a pure function of `(store, pending async)`, so a
            // cached pair skips evaluation altogether.
            self.outcomes.clear();
            for &paid in &selected {
                if !self.succ_bypass {
                    self.succ_probes += 1;
                    if self.succ_cache.contains_key(&(sid, paid)) {
                        self.succ_hits += 1;
                        continue;
                    }
                }
                let pa = interner.pa(paid);
                let plan = self.plans.get(&pa.action);
                let active = match (self.memo, plan) {
                    (Some(memo), Some(plan)) if memo.enabled.load(Ordering::Relaxed) => {
                        Some((memo, plan))
                    }
                    _ => None,
                };
                let outcome = if let Some((memo, plan)) = active {
                    if let Some(cached) = memo.probe(pa, plan, store) {
                        Resolved::Cached(cached)
                    } else {
                        match self.program.eval_pa(store, pa) {
                            Ok(out) => {
                                memo.publish(pa, plan, store, &out);
                                Resolved::Owned(out)
                            }
                            Err(e) => {
                                fault = Some(StepFault::Kernel(e.into()));
                                break;
                            }
                        }
                    }
                } else {
                    match self.program.eval_pa(store, pa) {
                        Ok(out) => Resolved::Owned(out),
                        Err(e) => {
                            fault = Some(StepFault::Kernel(e.into()));
                            break;
                        }
                    }
                };
                self.outcomes.push((paid, outcome));
            }

            // Phase 3: fill the successor cache from the freshly evaluated
            // outcomes (staging store diffs and batch-interning values,
            // stores, and created pendings once per `(store, pending)`
            // pair), then apply the cached successors of *every* selected
            // pending to this configuration. On a phase-2 fault nothing is
            // staged and nothing is interned — the expansion leaves no
            // partial successors behind.
            let fresh_before = self.fresh.len();
            if fault.is_none() {
                let outcomes = std::mem::take(&mut self.outcomes);
                self.fill_succ_cache(sid, &outcomes);
                self.outcomes = outcomes;
                self.outcomes.clear();
                if let Err(f) = self.apply_round(cid, sid, bagid, &selected, &mut progressed) {
                    fault = Some(f);
                }
            }

            if fault.is_some() || !ample_round {
                break;
            }
            if self.fresh.len() > fresh_before {
                // The ample expansion discovered a new configuration; the
                // pruned pendings fire from there eventually.
                self.out.stats.pruned += (self.pa_buf.len() - 1) as u64;
                break;
            }
            // Cycle proviso: every ample successor was already visited, so
            // postponing the others could starve them around a cycle. Fall
            // back to full expansion of the remaining pendings. (Racing
            // workers make this an over-approximation — a successor another
            // worker interned first also triggers the fallback — which only
            // ever expands more, never less.)
            let chosen = selected[0];
            selected = self
                .pa_buf
                .iter()
                .copied()
                .filter(|&p| p != chosen)
                .collect();
            ample_round = false;
        }

        if fault.is_none() && !progressed {
            let witness = Config::new(store.clone(), self.snapshot_bag());
            self.out.deadlocks.push((cid, witness));
        }

        match fault {
            None => {
                // Count the fresh successors in-flight *before* queueing
                // them (and before the caller decrements the parent), then
                // hand them to the own deque in one batch.
                if !self.fresh.is_empty() {
                    self.shared
                        .in_flight
                        .fetch_add(self.fresh.len(), Ordering::AcqRel);
                    self.shared.deques[self.me]
                        .queue
                        .lock()
                        .expect("deque poisoned")
                        .extend(self.fresh.drain(..));
                }
            }
            Some(StepFault::Kernel(err)) => {
                self.fresh.clear();
                self.fail(err);
            }
            Some(StepFault::StopOnFailure) => {
                self.fresh.clear();
                self.cancel();
            }
        }

        // In bypass the successor cache is a per-expansion scratch map:
        // entries outlive only the rounds that needed them, and the map
        // stays small enough to live in cache.
        if self.succ_bypass {
            self.succ_cache.clear();
        }
    }

    /// Evaluation → cache: stages each freshly evaluated outcome's
    /// transitions as strict diffs against the parent store (bounded by
    /// the action's footprint write set when one exists), batch-interns
    /// the changed values, the successor stores, and the created pending
    /// asyncs — one pass over each kind's dedup shards — and records the
    /// resulting ids in the per-worker successor cache. Failure outcomes
    /// are cached immediately (they intern nothing); they are *reported*,
    /// with a per-configuration witness, by [`Worker::apply_round`].
    fn fill_succ_cache(&mut self, sid: StoreId, outcomes: &[(PaId, Resolved)]) {
        if outcomes.is_empty() {
            return;
        }
        let interner = &self.shared.interner;
        let parent_slots: &[ValueId] = interner.store_slots(sid);

        // Stage A: reduce every transition to (fired, changed slots,
        // created), comparing candidate values against the parent's
        // resolved slots. The footprint's write set bounds which slots can
        // differ, letting the stage skip the rest.
        let mut staged: Vec<Staged<'_>> = Vec::new();
        let mut spans: Vec<(PaId, usize)> = Vec::with_capacity(outcomes.len());
        for (paid, outcome) in outcomes {
            let paid = *paid;
            let plan = self.plans.get(&interner.pa(paid).action);
            let fp_writes: Option<&[usize]> = plan.map(|p| p.writes.as_slice());
            match outcome.view() {
                View::Failure(reason) => {
                    self.succ_cache
                        .insert((sid, paid), CachedSucc::Failure(reason.to_owned()));
                }
                View::Full(transitions) => {
                    spans.push((paid, transitions.len()));
                    for t in transitions {
                        let mut writes = Vec::new();
                        match fp_writes {
                            Some(ws) => {
                                for &i in ws {
                                    let v = t.globals.get(i);
                                    if interner.value(parent_slots[i]) != v {
                                        writes.push((i, v.clone()));
                                    }
                                }
                            }
                            None => {
                                for (i, v) in t.globals.iter().enumerate() {
                                    if interner.value(parent_slots[i]) != v {
                                        writes.push((i, v.clone()));
                                    }
                                }
                            }
                        }
                        staged.push(Staged {
                            writes,
                            created: &t.created,
                        });
                    }
                }
                View::Delta(transitions) => {
                    spans.push((paid, transitions.len()));
                    for t in transitions {
                        // Replay the memoized write-delta; by the footprint
                        // contract the result is exactly what `eval` would
                        // have produced here.
                        let mut writes = Vec::new();
                        for (i, v) in &t.writes {
                            if interner.value(parent_slots[*i]) != v {
                                writes.push((*i, v.clone()));
                            }
                        }
                        staged.push(Staged {
                            writes,
                            created: &t.created,
                        });
                    }
                }
            }
        }
        if spans.is_empty() {
            return;
        }

        // Stage B: intern all changed-slot values, one pass over their
        // shards.
        let value_refs: Vec<&Value> = staged
            .iter()
            .flat_map(|s| s.writes.iter().map(|(_, v)| v))
            .collect();
        let mut value_ids: Vec<ValueId> = Vec::new();
        interner.intern_values(&value_refs, &mut value_ids);

        // Stage C: intern the *changed* successors' stores from diff
        // requests — parent id plus slot patches — one pass over their
        // shards. The interner derives each request's hash incrementally
        // from the parent's (O(writes), not O(slots)) and compares through
        // the parent on probe, so no full slot key is built here at all; a
        // miss materializes inside the interner by cloning the parent and
        // applying the staged writes. A write-free transition reuses the
        // parent's id outright — canonicality makes that exact.
        let mut store_ids: Vec<StoreId> = vec![sid; staged.len()];
        let mut patches: Vec<(usize, ValueId)> = Vec::with_capacity(value_ids.len());
        let mut dirty: Vec<(usize, usize, usize)> = Vec::new();
        {
            let mut vi = 0;
            for (k, s) in staged.iter().enumerate() {
                if s.writes.is_empty() {
                    continue;
                }
                let start = patches.len();
                for (i, _) in &s.writes {
                    patches.push((*i, value_ids[vi]));
                    vi += 1;
                }
                dirty.push((k, start, patches.len()));
            }
        }
        let store_reqs: Vec<StoreReq<'_>> = dirty
            .iter()
            .map(|&(k, start, end)| StoreReq {
                parent: sid,
                patches: &patches[start..end],
                writes: &staged[k].writes,
            })
            .collect();
        let mut dirty_ids: Vec<StoreId> = Vec::new();
        interner.intern_stores(&store_reqs, &mut dirty_ids);
        for (&(k, _, _), &id) in dirty.iter().zip(&dirty_ids) {
            store_ids[k] = id;
        }

        // Stage D: intern all created pending asyncs, one pass over their
        // shards.
        let pa_refs: Vec<&PendingAsync> = staged
            .iter()
            .flat_map(|s| s.created.iter_counts().map(|(pa, _)| pa))
            .collect();
        let mut pa_ids: Vec<PaId> = Vec::new();
        interner.intern_pas(&pa_refs, &mut pa_ids);

        // Stage E: assemble one cache entry per evaluated pending — its
        // transitions' successor stores plus created entries in the bag's
        // canonical (resolved) order, which `iter_counts` yields and the
        // per-configuration bag merge consumes.
        let mut ti = 0;
        let mut pi = 0;
        for &(paid, ntrans) in &spans {
            let mut stores = Vec::with_capacity(ntrans);
            let mut created: Vec<Box<[(PaId, u32)]>> = Vec::with_capacity(ntrans);
            for _ in 0..ntrans {
                stores.push(store_ids[ti]);
                let mut entries: Vec<(PaId, u32)> = Vec::new();
                for (_, count) in staged[ti].created.iter_counts() {
                    let count = u32::try_from(count).expect("count exceeds u32");
                    entries.push((pa_ids[pi], count));
                    pi += 1;
                }
                created.push(entries.into_boxed_slice());
                ti += 1;
            }
            self.succ_cache
                .insert((sid, paid), CachedSucc::Steps { stores, created });
        }
    }

    /// Cache → configuration: applies the cached firing outcome of every
    /// selected pending async to the configuration under expansion. Only
    /// the configuration-dependent stages run here — failure reports with
    /// their witnesses, the bag merge (remove one occurrence of the fired
    /// pending, splice the created ones into the canonical order),
    /// symmetry canonicalization, and one batched config intern carrying
    /// the discovering parent edges. Fresh configs are budget-checked
    /// against the exact shared count and staged for the own deque;
    /// duplicates cost one id-pair probe plus a possible parent-edge
    /// relaxation inside the interner.
    fn apply_round(
        &mut self,
        cid: ConfigId,
        sid: StoreId,
        bagid: BagId,
        selected: &[PaId],
        progressed: &mut bool,
    ) -> Result<(), StepFault> {
        let interner = &self.shared.interner;
        let parent_entries: &[(PaId, u32)] = interner.bag_entries(bagid);

        let mut fired: Vec<PaId> = Vec::new();
        let mut store_ids: Vec<StoreId> = Vec::new();
        let mut bag_vecs: Vec<Vec<(PaId, u32)>> = Vec::new();
        for &paid in selected {
            let entry = self
                .succ_cache
                .get(&(sid, paid))
                .expect("selected pending async must have a cached outcome");
            match entry {
                CachedSucc::Failure(reason) => {
                    *progressed = true;
                    let witness = Config::new(interner.store(sid).clone(), self.snapshot_bag());
                    self.out.failures.push((
                        cid,
                        witness,
                        interner.pa(paid).clone(),
                        reason.clone(),
                    ));
                    if self.stop_on_failure {
                        // No configuration of this round has been interned
                        // yet; the round is dropped wholesale.
                        return Err(StepFault::StopOnFailure);
                    }
                }
                CachedSucc::Steps { stores, created } => {
                    if !stores.is_empty() {
                        *progressed = true;
                    }
                    for (k, &succ) in stores.iter().enumerate() {
                        self.out.edges += 1;
                        let mut entries = parent_entries.to_vec();
                        let pos = entries
                            .iter()
                            .position(|&(p, _)| p == paid)
                            .expect("fired pending async must occur in the parent bag");
                        if entries[pos].1 > 1 {
                            entries[pos].1 -= 1;
                        } else {
                            entries.remove(pos);
                        }
                        for &(pid, count) in created[k].iter() {
                            let pa = interner.pa(pid);
                            match entries.binary_search_by(|&(p, _)| interner.pa(p).cmp(pa)) {
                                Ok(at) => entries[at].1 += count,
                                Err(at) => entries.insert(at, (pid, count)),
                            }
                        }
                        fired.push(paid);
                        store_ids.push(succ);
                        bag_vecs.push(entries);
                    }
                }
            }
        }
        if fired.is_empty() {
            return Ok(());
        }

        // Intern the merged bags, one pass over their shards.
        let bag_refs: Vec<&[(PaId, u32)]> = bag_vecs.iter().map(Vec::as_slice).collect();
        let mut bag_ids: Vec<BagId> = Vec::new();
        interner.intern_bags(&bag_refs, &mut bag_ids);

        // Canonicalize under the symmetry quotient, when active.
        let mut parts: Vec<(StoreId, BagId)> = store_ids
            .iter()
            .zip(&bag_ids)
            .map(|(&s, &b)| (s, b))
            .collect();
        if let Some(spec) = self.reduction.and_then(ReductionPolicy::symmetry) {
            for part in &mut parts {
                let canon =
                    canonical_parts_concurrent(interner, &mut self.canon_cache, spec, *part);
                if canon != *part {
                    self.out.stats.orbit_collapses += 1;
                    *part = canon;
                }
            }
        }

        // Intern the configs with their discovering edges, one pass over
        // their shards. Within-batch duplicates resolve like sequential
        // repeats: first fresh, rest hits (with relaxation).
        let config_reqs: Vec<ConfigReq> = parts
            .iter()
            .zip(&fired)
            .map(|(&(store, bag), &f)| ConfigReq {
                store,
                bag,
                edge: Some((cid, f)),
            })
            .collect();
        let mut results: Vec<(ConfigId, bool)> = Vec::new();
        interner.intern_configs(&config_reqs, &mut results);
        self.out.stats.note_intern_batch(config_reqs.len());
        for (k, &(id, fresh)) in results.iter().enumerate() {
            if fresh {
                self.out.stats.intern.misses += 1;
                if interner.config_count() > self.budget {
                    // The parent edge to `id` is already recorded, so the
                    // exhaustion point has a concrete witness run.
                    let trace = trace_from(interner, id);
                    return Err(StepFault::Kernel(ExploreError::BudgetExceeded {
                        limit: self.budget,
                        visited: interner.config_count(),
                        trace: Some(trace),
                    }));
                }
                let (s, b) = parts[k];
                self.fresh.push((id, s, b));
            } else {
                self.out.stats.intern.hits += 1;
            }
        }
        Ok(())
    }

    fn fail(&mut self, err: ExploreError) {
        let mut slot = self.shared.error.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.cancel();
    }

    fn cancel(&mut self) {
        self.shared.cancelled.store(true, Ordering::Release);
    }
}

/// The result of a parallel exploration: the concurrent interner (from
/// which the reachable set is resolved on demand and witness traces are
/// rebuilt out of the embedded parent-edge log), plus all gate violations
/// and deadlocks encountered.
///
/// Unlike [`inseq_kernel::Exploration`] this does not record the full
/// transition graph — one parent edge per configuration suffices for
/// witness reconstruction — and it does not materialize the visited set at
/// all: [`configs`](ParallelExploration::configs) resolves configurations
/// lazily from the arenas, so a multi-million-config run pays for
/// materialization only if someone iterates it. Traces are valid firing
/// sequences but, unlike the sequential explorer's BFS reconstruction, not
/// guaranteed globally shortest.
#[derive(Debug)]
pub struct ParallelExploration {
    interner: ConcurrentInterner,
    failures: Vec<(ConfigId, Config, PendingAsync, String)>,
    deadlocks: Vec<(ConfigId, Config)>,
    terminal: BTreeSet<GlobalStore>,
    edges: usize,
    stats: ExploreStats,
}

impl ParallelExploration {
    fn empty(interner: ConcurrentInterner, stats: ExploreStats) -> Self {
        ParallelExploration {
            interner,
            failures: Vec::new(),
            deadlocks: Vec::new(),
            terminal: BTreeSet::new(),
            edges: 0,
            stats,
        }
    }

    /// Observability counters of this exploration: per-shard interner
    /// hits/misses, expansion occupancy, steal traffic, reduction pruning,
    /// intern batching, shard-lock contention, and footprint-memo
    /// effectiveness.
    #[must_use]
    pub fn stats(&self) -> &ExploreStats {
        &self.stats
    }

    /// Number of distinct reachable configurations.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.interner.config_count()
    }

    /// Number of transitions in the explored graph (counted, not stored).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Iterates over all reachable configurations, resolving each from the
    /// shared arenas on demand. The order is not meaningful; compare as a
    /// set.
    pub fn configs(&self) -> impl Iterator<Item = Config> + '_ {
        self.interner
            .config_ids()
            .map(|id| self.interner.resolve_config(id))
    }

    /// Whether any reachable configuration can fail.
    #[must_use]
    pub fn has_failure(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Human-readable descriptions of all gate violations found, in the same
    /// format as [`inseq_kernel::Exploration::failure_reports`].
    #[must_use]
    pub fn failure_reports(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|(_, config, fired, reason)| {
                format!("executing {fired} from {config} fails: {reason}")
            })
            .collect()
    }

    /// A concrete firing sequence from a seed to `target`, or `None` when
    /// `target` was not visited. The trace replays step by step but is not
    /// guaranteed shortest.
    #[must_use]
    pub fn trace_to(&self, target: &Config) -> Option<Trace> {
        let id = self.interner.find_config(target)?;
        Some(trace_from(&self.interner, id))
    }

    /// All gate violations, each with a concrete firing sequence reaching
    /// the configuration at which the gate fails — the parallel analogue of
    /// [`inseq_kernel::Exploration::failure_witnesses`].
    #[must_use]
    pub fn failure_witnesses(&self) -> Vec<FailureWitness> {
        self.failures
            .iter()
            .map(|(cid, _, fired, reason)| FailureWitness {
                trace: trace_from(&self.interner, *cid),
                fired: fired.clone(),
                reason: reason.clone(),
            })
            .collect()
    }

    /// A concrete firing sequence reaching each deadlocked configuration.
    #[must_use]
    pub fn deadlock_witnesses(&self) -> Vec<Trace> {
        self.deadlocks
            .iter()
            .map(|(cid, _)| trace_from(&self.interner, *cid))
            .collect()
    }

    /// Whether any reachable configuration is a deadlock.
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// Configurations with pending asyncs but no enabled transition and no
    /// failure.
    pub fn deadlocked_configs(&self) -> impl Iterator<Item = &Config> {
        self.deadlocks.iter().map(|(_, c)| c)
    }

    /// Global stores of terminating configurations (empty `Ω`).
    pub fn terminal_stores(&self) -> impl Iterator<Item = &GlobalStore> {
        self.terminal.iter()
    }

    /// The program summary over the explored set: `good` iff no gate
    /// violation was found, plus the set of terminating stores.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            good: !self.has_failure(),
            terminal: self.terminal.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::demo::{counter_program, failing_program};
    use inseq_kernel::Explorer;

    fn reachable_set(program: &Program) -> BTreeSet<Config> {
        let init = program.initial_config(vec![]).unwrap();
        Explorer::new(program)
            .explore([init])
            .unwrap()
            .configs()
            .cloned()
            .collect()
    }

    /// Replays a trace step by step: steps chain, each `before` has the
    /// fired pending async, and firing it can produce each `after`.
    fn assert_replays(program: &Program, trace: &Trace) {
        for pair in trace.steps.windows(2) {
            assert_eq!(pair[0].after, pair[1].before, "steps must chain");
        }
        for step in &trace.steps {
            assert!(
                step.before.pending.contains(&step.fired),
                "fired {} not pending in {}",
                step.fired,
                step.before
            );
            let outcome = program
                .eval_pa(&step.before.globals, &step.fired)
                .expect("trace step must evaluate");
            let successors: Vec<Config> = match outcome {
                inseq_kernel::ActionOutcome::Transitions(ts) => ts
                    .into_iter()
                    .map(|t| {
                        let mut bag = step.before.pending.clone();
                        bag.remove_one(&step.fired);
                        Config::new(t.globals, bag.union(&t.created))
                    })
                    .collect(),
                inseq_kernel::ActionOutcome::Failure { .. } => Vec::new(),
            };
            assert!(
                successors.contains(&step.after),
                "step does not replay: {} --{}-> {}",
                step.before,
                step.fired,
                step.after
            );
        }
    }

    #[test]
    fn matches_sequential_on_counter() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        for workers in [1, 2, 4, 8] {
            let exp = ParallelExplorer::new(&p)
                .with_workers(workers)
                .explore([init.clone()])
                .unwrap();
            let parallel: BTreeSet<Config> = exp.configs().collect();
            assert_eq!(parallel, reachable_set(&p), "workers = {workers}");
            assert!(!exp.has_failure());
            assert!(!exp.has_deadlock());
        }
    }

    #[test]
    fn summary_matches_sequential() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let seq = Explorer::new(&p).summarize(init.clone()).unwrap();
        for workers in [1, 3] {
            let par = ParallelExplorer::new(&p)
                .with_workers(workers)
                .summarize(init.clone())
                .unwrap();
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    #[test]
    fn edge_counts_match_sequential() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let seq = Explorer::new(&p).explore([init.clone()]).unwrap();
        let par = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        assert_eq!(par.edge_count(), seq.edge_count());
        assert_eq!(par.config_count(), seq.config_count());
    }

    #[test]
    fn failures_are_found() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        assert!(exp.has_failure());
        assert!(exp
            .failure_reports()
            .iter()
            .any(|r| r.contains("assert false")));
        assert!(!exp.summary().good);
    }

    #[test]
    fn failure_witnesses_carry_replayable_traces() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        for workers in [1, 2, 4, 8] {
            let exp = ParallelExplorer::new(&p)
                .with_workers(workers)
                .explore([init.clone()])
                .unwrap();
            let witnesses = exp.failure_witnesses();
            assert!(!witnesses.is_empty(), "workers = {workers}");
            for w in &witnesses {
                assert_replays(&p, &w.trace);
                // The trace ends at the failing configuration: the fired
                // pending async must be enabled there and actually fail.
                let at = w.trace.last().cloned().unwrap_or_else(|| init.clone());
                assert!(at.pending.contains(&w.fired));
                assert!(matches!(
                    p.eval_pa(&at.globals, &w.fired).unwrap(),
                    inseq_kernel::ActionOutcome::Failure { .. }
                ));
            }
        }
    }

    #[test]
    fn trace_to_reaches_every_visited_config() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(4)
            .explore([init.clone()])
            .unwrap();
        for config in exp.configs() {
            let trace = exp.trace_to(&config).expect("visited config has a trace");
            assert_replays(&p, &trace);
            let end = trace.last().cloned().unwrap_or_else(|| init.clone());
            assert_eq!(end, config);
        }
        assert!(exp
            .trace_to(&Config::new(GlobalStore::new(vec![]), Multiset::new()))
            .is_none());
    }

    #[test]
    fn stop_on_first_failure_cancels_early() {
        let p = failing_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .stop_on_first_failure(true)
            .explore([init])
            .unwrap();
        assert!(exp.has_failure());
    }

    #[test]
    fn budget_is_enforced_and_reports_exhaustion_point() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let err = ParallelExplorer::new(&p)
            .with_workers(2)
            .with_budget(1)
            .explore([init.clone()])
            .unwrap_err();
        match err {
            ExploreError::BudgetExceeded {
                limit: 1,
                visited,
                trace,
            } => {
                assert!(visited > 1);
                let trace = trace.expect("budget exhaustion carries a witness trace");
                assert!(!trace.is_empty());
                assert_replays(&p, &trace);
                assert_eq!(trace.steps[0].before, init);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn stats_account_for_all_interned_configs() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        let stats = exp.stats();
        assert_eq!(stats.shards.len(), 2);
        // Every distinct config is exactly one interner miss, credited to
        // the worker that interned it first (seeds go to shard 0).
        assert_eq!(stats.intern().misses as usize, exp.config_count());
        // Every config is expanded exactly once — no item is lost or
        // duplicated by stealing.
        assert_eq!(stats.expanded() as usize, exp.config_count());
        // Steal conservation: everything stolen in was stolen from some
        // deque.
        assert_eq!(stats.stolen(), stats.migrated());
        // No reduction policy: nothing pruned, nothing collapsed, and the
        // bounded pa cache (reduction path only) stays untouched.
        assert_eq!(stats.pruned(), 0);
        assert_eq!(stats.orbit_collapses(), 0);
        assert_eq!(stats.pa_cache_peak(), 0);
        // Batch accounting: every non-terminal expansion staged at least
        // one batch, and the histogram covers exactly the batches.
        assert!(stats.intern_batches() > 0);
        let hist_total: u64 = stats.intern_batch_hist().iter().sum();
        assert_eq!(hist_total, stats.intern_batches());
        // Contention counters flow from the shared interner: every
        // distinct id allocation is a shard insert (configs + stores +
        // bags + values + pending asyncs ≥ configs).
        assert!(stats.contention.inserts_total() >= exp.config_count() as u64);
    }

    #[test]
    fn explore_with_stats_aggregates_on_budget_error() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let (result, stats) = ParallelExplorer::new(&p)
            .with_workers(4)
            .with_budget(2)
            .explore_with_stats([init]);
        let err = result.unwrap_err();
        assert!(matches!(err, ExploreError::BudgetExceeded { limit: 2, .. }));
        // The error path still joins all workers and aggregates their
        // counters: expansions happened, and steal conservation holds even
        // for a run cut short mid-flight.
        assert_eq!(stats.shards.len(), 4);
        assert!(stats.expanded() >= 1);
        assert_eq!(stats.stolen(), stats.migrated());
    }

    #[test]
    fn empty_initial_set_is_trivially_good() {
        let p = counter_program();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([])
            .unwrap();
        assert_eq!(exp.config_count(), 0);
        assert!(exp.summary().good);
    }

    #[test]
    fn deadlocks_match_sequential() {
        use inseq_kernel::{
            ActionOutcome, GlobalSchema, Multiset, NativeAction, Program as KProgram, Transition,
            Value,
        };
        let mut b = KProgram::builder(GlobalSchema::default());
        b.action(
            "Main",
            NativeAction::new("Main", 0, |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::new(
                    g.clone(),
                    Multiset::singleton(PendingAsync::new("Stuck", vec![])),
                )])
            }),
        );
        b.action(
            "Stuck",
            NativeAction::new("Stuck", 0, |_: &GlobalStore, _: &[Value]| {
                ActionOutcome::blocked()
            }),
        );
        let p = b.build().unwrap();
        let init = p.initial_config(vec![]).unwrap();
        let exp = ParallelExplorer::new(&p)
            .with_workers(2)
            .explore([init])
            .unwrap();
        assert!(exp.has_deadlock());
        assert_eq!(exp.deadlocked_configs().count(), 1);
        // The deadlock carries a replayable witness ending at the stuck
        // configuration.
        let witnesses = exp.deadlock_witnesses();
        assert_eq!(witnesses.len(), 1);
        assert_replays(&p, &witnesses[0]);
        assert_eq!(
            witnesses[0].last().unwrap(),
            exp.deadlocked_configs().next().unwrap()
        );
    }
}
