//! The parallel deterministic engine.
//!
//! # Execution model
//!
//! Nodes are split into contiguous **shards**, balanced by degree
//! (prefix-sum cuts of `1 + deg(v)`). With `threads > 1` the engine
//! *overshards* (`OVERSHARD ×` more shards than workers) and workers
//! claim shards dynamically per phase via a per-shard epoch CAS — a
//! work-stealing schedule, so a skewed frontier that lands in one
//! static shard no longer serializes the round. Workers come from a
//! persistent [`WorkerPool`] (spawned once, parked between runs, shared
//! with sub-executors), not from per-run thread spawns.
//!
//! Every classic round runs two phases separated by barriers:
//!
//! * **deliver** — the claimer of shard `s` pops up to `cap` messages
//!   from every *charged* incoming directed-edge queue of the shard's
//!   nodes into the shard's inbox arena. A directed edge has exactly
//!   one receiver, so queue access is disjoint across shards.
//! * **compute** — the claimer runs `Program::round` for the shard's
//!   *active* nodes and pushes staged sends onto the outgoing
//!   directed-edge queues. A directed edge has exactly one sender, so
//!   access is again disjoint.
//!
//! # Round fusion (contract clause 9)
//!
//! When every node that can become active in the next round lies at
//! intra-shard BFS distance `K >= 1` from its shard boundary (see
//! [`ShardLocality`]), the next `K` rounds cannot move any message
//! across a shard boundary: active nodes are non-boundary, so all
//! their incident edges are shard-internal, and activity can creep at
//! most one hop toward the boundary per round. The engine then runs a
//! **fused block** of `B = min(K, FUSE_BLOCK_MAX)` rounds in which
//! each shard executes deliver+compute locally, *without any global
//! barrier*, stopping early when it has no charged edges, no bucket
//! entries, and no non-quiescent carryover. Per-edge FIFO order is
//! schedule-independent (unique sender, unique receiver), so the fused
//! schedule is observably identical to the barriered one; per-round
//! accounting (`RunStats`, histograms, traces) is kept exact by
//! per-shard per-round [`FusedRound`] records that worker 0 merges at
//! the next decision point. With one shard (`threads == 1`) every node
//! is infinitely far from a boundary, so whole runs execute as fused
//! blocks — eliding the per-round atomics and decision overhead.
//!
//! # Frontier scheduling
//!
//! The engine implements the activation contract of `congest::exec`
//! (clause 5): per-round cost scales with the frontier, not with `n`
//! or `m`. `charged[d]` tracks whether directed queue `d` is
//! non-empty; a sender that charges an idle queue appends `d` to a
//! `touched[sender_shard][receiver_shard]` bucket, and deliver visits
//! only bucket entries plus still-charged carryover, in
//! `(receiver, directed id)` order — the simulator's inbox order.
//! Compute runs only nodes that received messages or stayed
//! non-quiescent; a shared non-quiescent counter replaces full
//! `is_quiescent` sweeps.
//!
//! # Memory layout
//!
//! The message data path is allocation-free in steady state (see
//! `DESIGN.md`, "Memory layout & the zero-alloc data path"): messages
//! are fixed-width inline values ([`congest::Message`]), queue storage
//! is pooled [`congest::slab`] cells keyed by *(sender shard, receiver
//! shard)* — the same disjointness pattern as the `touched` buckets —
//! and the whole arena ([`RunArena`]) is recycled across rounds *and*
//! runs, so a composite algorithm's later phases reuse the capacity of
//! its first.
//!
//! # Why this is deterministic
//!
//! The sequential simulator's only ordering guarantees are (a) per
//! directed edge FIFO and (b) inboxes ordered by directed edge id.
//! Both survive parallelization for free: every directed-edge queue
//! has a *unique* sender (so FIFO order equals that sender's staged
//! order, regardless of node interleaving), and each shard assembles
//! its nodes' inboxes by walking its charged incoming edges in
//! ascending directed id order — the sequential delivery order. All
//! per-shard state is keyed by the shard, not the worker, and each
//! shard is claimed by exactly one worker per phase, so *which* worker
//! processes a shard is invisible to the result — the shard plan and
//! steal order can be randomized (`ENGINE_SHARD_STRESS`) without
//! changing a single output bit. The result is bit-identical outputs
//! and [`RunStats`] versus [`congest::Simulator`] across any thread
//! count, verified by property tests.

use crate::csr::{DirectedId, ShardLocality};
use crate::plan::{EngineTopo, PlanData};
use crate::pool::WorkerPool;
use crate::report::EngineReport;
use congest::obs::{PhaseWall, RoundTrace};
use congest::plan::TopoCache;
use congest::slab::{EdgeQueue, Slab};
use congest::{
    Ctx, Executor, FrontierStats, Message, NodeStats, Program, RunStats, SharedTraceSink,
};
use lightgraph::{Graph, NodeId};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

/// Shards per worker when `threads > 1`: enough slack that a skewed
/// frontier can be stolen, few enough that bucket rows stay cheap.
const OVERSHARD: usize = 4;

/// Upper bound on rounds per fused block, so accounting buffers and
/// the livelock guard stay responsive even when shards are boundless
/// (`threads == 1` has no boundaries at all).
const FUSE_BLOCK_MAX: u64 = 512;

/// Control codes broadcast by worker 0 (low byte of `ctrl_word`; the
/// fused block bound rides in the high bits). Zero is deliberately not
/// a valid code.
const CTRL_CLASSIC: u64 = 1;
const CTRL_FUSED: u64 = 2;
const CTRL_QUIESCENT: u64 = 3;
const CTRL_LIVELOCKED: u64 = 4;
const CTRL_ABORTED: u64 = 5;

/// A slice shared across workers with externally-guaranteed disjoint
/// index access.
///
/// # Safety invariant
/// Callers of [`SharedSlice::get_mut`] must guarantee that no index is
/// accessed by two workers within the same barrier-delimited phase.
/// The engine upholds this structurally: program, queue, and shard
/// state indices are owned by their shard, and each shard is claimed
/// by exactly one worker per phase (per-shard epoch CAS).
struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<'a, T: Send> Send for SharedSlice<'a, T> {}
unsafe impl<'a, T: Send> Sync for SharedSlice<'a, T> {}

impl<'a, T> SharedSlice<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// # Safety
    /// `i < len`, and no concurrent access to index `i` (see the type
    /// docs).
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Contiguous node ranges, balanced by degree: shard boundaries are
/// prefix-sum cuts of `1 + deg(v)` (the per-node deliver+compute cost
/// proxy) instead of equal node counts, so a hub node does not
/// overload its shard. Deterministic in `(graph, threads)`; the
/// `congest::exec` contract makes outputs independent of the
/// boundaries (and hence of the thread count) entirely, so balancing
/// is free to follow the workload.
fn shard_bounds(graph: &Graph, threads: usize) -> Vec<(usize, usize)> {
    let n = graph.n();
    let total: u64 = n as u64 + 2 * graph.m() as u64;
    let mut bounds = Vec::with_capacity(threads);
    let mut acc: u64 = 0;
    let mut v = 0usize;
    let mut lo = 0usize;
    for t in 1..=threads {
        let target = total * t as u64 / threads as u64;
        while v < n && acc < target {
            acc += 1 + graph.degree(v) as u64;
            v += 1;
        }
        bounds.push((lo, v));
        lo = v;
    }
    bounds
}

/// splitmix64 — the engine's only randomness source (stress mode), so
/// no external RNG dependency is needed and stress runs are replayable
/// from a single seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Base seed for `ENGINE_SHARD_STRESS=1` runs, drawn once per process
/// and announced on stderr so failures are replayable via
/// [`Engine::set_shard_stress_seed`].
fn stress_env_base() -> Option<u64> {
    static BASE: OnceLock<Option<u64>> = OnceLock::new();
    *BASE.get_or_init(|| match std::env::var("ENGINE_SHARD_STRESS") {
        Ok(v) if !v.is_empty() && v != "0" => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let seed = nanos ^ ((std::process::id() as u64) << 32);
            eprintln!(
                "engine: ENGINE_SHARD_STRESS active, base seed {seed:#x} \
                     (replay any run with Engine::set_shard_stress_seed)"
            );
            Some(seed)
        }
        _ => None,
    })
}

/// Per-run stress seed: explicit seed wins (replay), otherwise the env
/// base advanced by a process-wide run counter so every run shakes a
/// different shard plan.
fn stress_run_seed(explicit: Option<u64>) -> Option<u64> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    explicit.or_else(|| {
        stress_env_base().map(|base| {
            let mut s = base.wrapping_add(RUNS.fetch_add(1, Ordering::Relaxed));
            splitmix(&mut s)
        })
    })
}

/// The shard plan for one run: degree-balanced overshards normally, a
/// randomized cut set under stress. Always covers `0..n` contiguously;
/// empty shards are legal (their claims are no-ops).
fn plan_shards(graph: &Graph, threads: usize, stress: Option<u64>) -> Vec<(usize, usize)> {
    let n = graph.n();
    if let Some(seed) = stress {
        let mut rng = seed;
        let hi = (threads * 2 * OVERSHARD).clamp(1, n.max(1));
        let lo = threads.min(hi);
        let nshards = lo + (splitmix(&mut rng) as usize) % (hi - lo + 1);
        let mut cuts: Vec<usize> = (1..nshards)
            .map(|_| (splitmix(&mut rng) as usize) % (n + 1))
            .collect();
        cuts.sort_unstable();
        let mut bounds = Vec::with_capacity(nshards);
        let mut prev = 0usize;
        for c in cuts {
            bounds.push((prev, c));
            prev = c;
        }
        bounds.push((prev, n));
        return bounds;
    }
    if threads == 1 {
        return shard_bounds(graph, 1);
    }
    shard_bounds(graph, (threads * OVERSHARD).min(n.max(1)))
}

/// Per-shard worker claim order: a rotation spreading workers across
/// the shard space (so first claims rarely collide), or a seeded
/// shuffle under stress to exercise every steal interleaving.
fn claim_orders(nshards: usize, threads: usize, stress: Option<u64>) -> Vec<Vec<usize>> {
    (0..threads)
        .map(|wid| {
            let mut ord: Vec<usize> = (0..nshards).collect();
            if let Some(seed) = stress {
                let mut rng = seed ^ (wid as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                for i in (1..nshards).rev() {
                    let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
                    ord.swap(i, j);
                }
            } else {
                ord.rotate_left(wid * nshards / threads);
            }
            ord
        })
        .collect()
}

/// All mutable per-shard execution state. Keyed by shard (not worker),
/// so results cannot depend on which worker claims the shard.
#[derive(Default)]
struct ShardState {
    /// Charged incoming edges carried over from the last deliver,
    /// sorted by `(receiver, directed id)`.
    carry_edges: Vec<DirectedId>,
    next_edges: Vec<DirectedId>,
    /// Non-quiescent nodes after their last activation, ascending.
    carry_nodes: Vec<NodeId>,
    next_nodes: Vec<NodeId>,
    /// Inbox arena + per-node ranges for the current round.
    arena: Vec<(NodeId, Message)>,
    inbox_ranges: Vec<(NodeId, (usize, usize))>,
    /// Record-mode: own out-queues that may be non-empty.
    out_backlog: Vec<DirectedId>,
    /// Scratch for `Ctx` staging.
    staged: Vec<(NodeId, Message)>,
    /// Per-round accounting from the shard's last fused block.
    fused: Vec<FusedRound>,
}

/// The run-to-run queue arena ([`congest::slab`]): slab cells keyed by
/// *(sender shard, receiver shard)*, per-directed-edge queue headers,
/// charged flags, touched buckets, and per-shard state. Quiescence
/// drains every queue, so between runs everything is empty but keeps
/// its high-water capacity — the later phases of a composite algorithm
/// (SLT = tree + spanner + contractions on one engine) stage and
/// deliver without allocating. Cell access mirrors the `touched`
/// buckets: compute writes row `s`, deliver drains column `s`, fused
/// blocks stay within column `s` (stagings are diagonal by clause 9) —
/// disjoint across shards in every phase. Rebuilt when the shard plan
/// changes size (stress mode); dropped, not reused, after an aborted
/// or livelocked run, whose queues may be non-empty.
#[derive(Default)]
struct RunArena {
    nshards: usize,
    slabs: Vec<Slab<Message>>,
    heads: Vec<EdgeQueue>,
    charged: Vec<bool>,
    touched: Vec<Vec<DirectedId>>,
    states: Vec<ShardState>,
    /// Per-shard claim epochs (reset to 0 between runs — `O(nshards)`,
    /// not `O(n)`).
    claims: Vec<AtomicU64>,
    /// Record-mode per-directed-edge delivery counters and backlog
    /// membership flags; kept across runs and fill-reset so recording
    /// composite workloads stays allocation-free too.
    per_directed: Vec<u64>,
    in_backlog: Vec<bool>,
}

/// Exact per-round accounting a shard writes during a fused block;
/// worker 0 merges these across shards at the next decision point so
/// histograms/traces match the barriered schedule bit for bit.
#[derive(Clone, Copy, Default)]
struct FusedRound {
    delivered: u64,
    active: u64,
    depth: u64,
    deliver_ns: u64,
    compute_ns: u64,
}

/// Per-round record-mode histograms collected by worker 0:
/// (messages, max queue depth, active nodes).
type Histograms = (Vec<u64>, Vec<u64>, Vec<u64>);

/// What worker 0 still has to account for at a decision point.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Prev {
    Init,
    Classic,
    Fused,
}

/// The parallel deterministic CONGEST engine.
///
/// Drop-in [`Executor`] replacement for [`congest::Simulator`]: same
/// [`Program`] interface, bit-identical outputs and [`RunStats`], but
/// rounds execute over work-stolen node shards on a persistent worker
/// pool, with barrier-free fused blocks where the frontier is provably
/// shard-local. See the module docs for the phase/claim structure.
pub struct Engine<'g> {
    graph: &'g Graph,
    /// Topology-derived structure (CSR, sender/receiver maps, shard
    /// plans), checked out of the shared session cache — see
    /// [`crate::plan`]. Shared with every sub-executor.
    topo: Arc<EngineTopo>,
    plans: Arc<TopoCache<EngineTopo>>,
    /// Memo of the last run's shard plan: repeat runs with the same
    /// `(threads, stress)` skip even the cache lookup.
    plan: Option<ExecPlan>,
    plan_builds: u64,
    setup_total_ns: u64,
    cap: usize,
    max_rounds: u64,
    threads: usize,
    record_metrics: bool,
    time_phases: bool,
    total: RunStats,
    frontier: FrontierStats,
    last_report: Option<EngineReport>,
    node_stats: Option<NodeStats>,
    trace: Option<SharedTraceSink>,
    wall_total: PhaseWall,
    pool: Option<Arc<WorkerPool>>,
    stress_seed: Option<u64>,
    arena: RunArena,
}

/// The engine's per-run plan memo: the cached [`PlanData`] plus the
/// configuration pair that keys it.
struct ExecPlan {
    threads: usize,
    stress: Option<u64>,
    data: Arc<PlanData>,
}

impl<'g> std::fmt::Debug for Engine<'g> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("cap", &self.cap)
            .field("threads", &self.threads)
            .field("total", &self.total)
            .finish()
    }
}

impl<'g> Engine<'g> {
    /// Creates an engine over `graph` with bandwidth cap 1 and as many
    /// worker threads as the machine reports.
    pub fn new(graph: &'g Graph) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Engine::with_threads(graph, threads)
    }

    /// Creates an engine with an explicit worker-thread count
    /// (`threads >= 1`; clamped to the node count at run time).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(graph: &'g Graph, threads: usize) -> Self {
        Engine::with_shared_plans(graph, threads, Arc::new(TopoCache::new()))
    }

    /// Creates an engine sharing an existing plan cache — the
    /// sub-executor path: every sub-run of a composite algorithm reuses
    /// the root engine's topology-derived structure.
    fn with_shared_plans(
        graph: &'g Graph,
        threads: usize,
        plans: Arc<TopoCache<EngineTopo>>,
    ) -> Self {
        assert!(threads >= 1, "engine needs at least one worker thread");
        let topo = plans.get_or_build(graph, EngineTopo::build);
        Engine {
            graph,
            topo,
            plans,
            plan: None,
            plan_builds: 0,
            setup_total_ns: 0,
            cap: 1,
            max_rounds: 50_000_000,
            threads,
            record_metrics: false,
            time_phases: false,
            total: RunStats::default(),
            frontier: FrontierStats::default(),
            last_report: None,
            node_stats: None,
            trace: None,
            wall_total: PhaseWall::default(),
            pool: None,
            stress_seed: None,
            arena: RunArena::default(),
        }
    }

    /// Worker threads used per run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables or disables congestion instrumentation (per-round
    /// message histogram, queue depths, hot edges). Off by default:
    /// recording costs an `O(m)` scan per round.
    pub fn set_record_metrics(&mut self, record: bool) {
        self.record_metrics = record;
    }

    /// Enables or disables per-phase wall sampling on its own — the
    /// cheap slice of metrics recording (a few clock reads per round,
    /// no `O(m)` histogram scans), enough to populate
    /// [`Engine::wall_total`] and the process-wide breakdown
    /// accumulators in `congest::plan`. Implied by
    /// [`Engine::set_record_metrics`] and tracing; observer-neutral
    /// (contract clause 8).
    pub fn set_time_phases(&mut self, time: bool) {
        self.time_phases = time;
    }

    /// Instrumentation from the most recent run, if
    /// [`Engine::set_record_metrics`] was enabled.
    pub fn last_report(&self) -> Option<&EngineReport> {
        self.last_report.as_ref()
    }

    /// Cumulative per-phase wall time over every timed `run` driven
    /// directly on this engine (sub-executors accumulate their own).
    /// Deliver/compute are max-across-workers per phase, barrier is
    /// total wait across workers; see `congest::obs::PhaseWall`. Zero
    /// unless metrics recording or tracing was enabled.
    pub fn wall_total(&self) -> PhaseWall {
        self.wall_total
    }

    /// Cumulative wall time this engine spent in per-run setup (plan
    /// acquisition, arena checkout, program construction) across every
    /// `run` — the session layer's target. Always measured (two clock
    /// reads per run); sub-executors accumulate their own.
    pub fn setup_total_ns(&self) -> u64 {
        self.setup_total_ns
    }

    /// How many times this engine actually *built* a shard plan rather
    /// than reusing a cached one (diagnostics; see `tests/plan_cache`).
    pub fn plan_builds(&self) -> u64 {
        self.plan_builds
    }

    /// Enables or disables per-node accounting (see
    /// [`Executor::set_record_node_stats`]). Enabling (re)allocates
    /// zeroed counters.
    pub fn set_record_node_stats(&mut self, record: bool) {
        self.node_stats = record.then(|| NodeStats::new(self.graph.n()));
    }

    /// Attaches (or detaches, with `None`) a profiling trace sink; one
    /// [`RoundTrace`] record is pushed per executed round (by worker 0,
    /// at the following decision point; fused rounds carry zero
    /// barrier time — they genuinely have none). Inherited by
    /// sub-executors; observer-neutral (contract clause 8).
    pub fn set_trace(&mut self, sink: Option<SharedTraceSink>) {
        self.trace = sink;
    }

    /// Pins the shard-stress seed for this engine (and its
    /// sub-executors): `Some(seed)` randomizes shard cuts and steal
    /// order exactly as `ENGINE_SHARD_STRESS=1` does, but replayably —
    /// determinism tests sweep seeds without touching the environment.
    /// `None` (the default) falls back to the env var.
    pub fn set_shard_stress_seed(&mut self, seed: Option<u64>) {
        self.stress_seed = seed;
    }

    /// The underlying graph (with the graph's own lifetime).
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Runs one program per node until global quiescence. Same contract
    /// and same observable behavior as [`congest::Simulator::run`]; see
    /// the module docs.
    ///
    /// # Panics
    /// Panics if the run exceeds the `max_rounds` livelock guard, or if
    /// a program callback panics (the panic is forwarded).
    pub fn run<P, F>(&mut self, mut make: F) -> (Vec<P::Output>, RunStats)
    where
        P: Program + Send,
        P::Output: Send,
        F: FnMut(NodeId, &Graph) -> P,
    {
        let t_setup = Instant::now();
        let n = self.graph.n();
        let threads = self.threads.clamp(1, n.max(1));
        // Ensure the persistent pool before the long immutable borrows
        // below; sub-executors share it via `Arc` (see `Executor::sub`).
        if threads > 1 && self.pool.as_ref().map_or(0, |p| p.workers()) < threads - 1 {
            self.pool = Some(Arc::new(WorkerPool::new(threads - 1)));
        }
        let pool = self.pool.clone();
        let stress = stress_run_seed(self.stress_seed);
        let graph = self.graph;
        let topo = self.topo.clone();
        let csr = &topo.csr;
        let senders = &topo.senders;
        let receivers = &topo.receivers;
        let cap = self.cap;
        let max_rounds = self.max_rounds;
        let record = self.record_metrics;
        // Per-node counters move out of `self` for the run so the three
        // counter vectors can be shared (disjointly) across workers:
        // `sent`/`invocations` are indexed by owned nodes, `delivered`
        // by owned receivers — the same sharding as programs/queues.
        let track_nodes = self.node_stats.is_some();
        let mut node_stats = self.node_stats.take().unwrap_or_default();
        let trace_run = self.trace.as_ref().map(|s| {
            (
                s.clone(),
                s.lock().expect("trace sink").begin_run("parallel"),
            )
        });
        let timed = record || trace_run.is_some() || self.time_phases;

        // Shard plan (bounds, claim orders, and the shard-locality
        // metadata backing the clause-9 fusion-eligibility metric):
        // acquired from the session cache, built at most once per
        // `(threads, stress)` pair per topology. The memo in
        // `self.plan` skips even the cache lock on repeat sub-runs.
        let plan_hit = self
            .plan
            .as_ref()
            .is_some_and(|p| p.threads == threads && p.stress == stress);
        if !plan_hit {
            let (data, built) = topo.plan_for(threads, stress, || {
                let shards = plan_shards(graph, threads, stress);
                let orders = claim_orders(shards.len(), threads, stress);
                let loc = ShardLocality::new(graph, &shards);
                PlanData {
                    shards,
                    orders,
                    loc,
                }
            });
            self.plan_builds += u64::from(built);
            self.plan = Some(ExecPlan {
                threads,
                stress,
                data,
            });
        }
        let plan = &self.plan.as_ref().expect("plan just ensured").data;
        let shards = &plan.shards;
        let nshards = shards.len();
        let orders = &plan.orders;
        let shard_of = &plan.loc.shard_of;
        let dist = &plan.loc.dist_to_boundary;

        // `make` runs on the calling thread, in node order (contract).
        let mut programs: Vec<P> = (0..n).map(|v| make(v, graph)).collect();
        // Queue storage is the persistent arena (see `RunArena`):
        // staging goes through the shared `congest::slab` (contract
        // clause 7), so the merge semantics are the simulator's by
        // construction. `charged[d]` ⇔ queue `d` is non-empty ⇔ `d`
        // sits in exactly one receiver-side carryover list or touched
        // bucket — written by the unique sender shard during
        // compute/init, cleared by the unique receiver shard during
        // deliver. `touched[s * nshards + r]` holds the edges freshly
        // charged by sender shard `s` toward receiver shard `r`.
        let mut run_arena = std::mem::take(&mut self.arena);
        if run_arena.heads.len() != csr.directed_len() {
            run_arena.heads = vec![EdgeQueue::EMPTY; csr.directed_len()];
            run_arena.charged = vec![false; csr.directed_len()];
        }
        if run_arena.nshards != nshards {
            run_arena.nshards = nshards;
            run_arena.slabs = (0..nshards * nshards).map(|_| Slab::new()).collect();
            run_arena.touched = vec![Vec::new(); nshards * nshards];
            run_arena.states = (0..nshards).map(|_| ShardState::default()).collect();
            run_arena.claims = (0..nshards).map(|_| AtomicU64::new(0)).collect();
        } else {
            for c in &run_arena.claims {
                c.store(0, Ordering::Relaxed);
            }
        }
        debug_assert!(run_arena.heads.iter().all(EdgeQueue::is_empty));
        // Record-mode only: per-directed delivery counters, plus
        // membership flags for each sender's backlog list of
        // possibly-non-empty own out-queues, so the per-round depth
        // histogram scans the backlog instead of all `2m` queues.
        // Fill-reset in the persistent arena, not reallocated.
        if record {
            run_arena.per_directed.clear();
            run_arena.per_directed.resize(csr.directed_len(), 0);
            run_arena.in_backlog.clear();
            run_arena.in_backlog.resize(csr.directed_len(), false);
        }

        // Everything up to here — plan acquisition, arena checkout,
        // program construction — is the per-run setup the session layer
        // amortizes; the workers below are the run proper.
        let setup_ns = t_setup.elapsed().as_nanos() as u64;
        self.setup_total_ns += setup_ns;
        congest::plan::add_setup_ns(setup_ns);

        let mut stats = RunStats::default();
        let run_frontier;
        let livelocked;
        let histograms;
        let delivered_total;
        let run_wall;

        {
            let programs_sh = SharedSlice::new(&mut programs);
            let slabs_sh = SharedSlice::new(&mut run_arena.slabs);
            let heads_sh = SharedSlice::new(&mut run_arena.heads);
            let charged_sh = SharedSlice::new(&mut run_arena.charged);
            let touched_sh = SharedSlice::new(&mut run_arena.touched);
            let states_sh = SharedSlice::new(&mut run_arena.states);
            let per_directed_sh = SharedSlice::new(&mut run_arena.per_directed);
            let in_backlog_sh = SharedSlice::new(&mut run_arena.in_backlog);
            let ns_sent_sh = SharedSlice::new(&mut node_stats.sent);
            let ns_delivered_sh = SharedSlice::new(&mut node_stats.delivered);
            let ns_invocations_sh = SharedSlice::new(&mut node_stats.invocations);
            // Per-shard claim epochs: a worker owns shard `s` for phase
            // `p` iff it wins `claims[s]: p-1 → p`. Every worker walks
            // all shards each phase, so every shard is claimed exactly
            // once per phase regardless of worker interleaving. The
            // counters live in the arena (reset above), not per run.
            let claims: &[AtomicU64] = &run_arena.claims;
            let pending = AtomicI64::new(0);
            // Count of non-quiescent programs; replaces the old
            // every-node `is_quiescent` sweep. Updated incrementally by
            // each shard from its carryover-list delta after compute.
            let nonquiescent = AtomicI64::new(0);
            // Logical sends and clause-7 merges, batched per phase like
            // `pending`; at quiescence staged = delivered + combined.
            let staged_cum = AtomicU64::new(0);
            let combined_cum = AtomicU64::new(0);
            let delivered_cum = AtomicU64::new(0);
            let active_cum = AtomicU64::new(0);
            let round_max_depth = AtomicU64::new(0);
            // Fusion eligibility: min dist-to-boundary over every node
            // that can be active next round, fetch_min'd by shards
            // after their sends, swapped out by worker 0 at decisions.
            let fuse_dist = AtomicU64::new(u64::MAX);
            // Rounds actually executed by the longest-running shard of
            // the current fused block (per-shard activity within a
            // block is prefix-contiguous, so the max is exact).
            let block_rounds = AtomicU64::new(0);
            // Worker 0's broadcast decision: control code in the low
            // byte, fused block bound in the high bits, plus the round
            // base; stored before barrier #1, loaded after.
            let ctrl_word = AtomicU64::new(0);
            let ctrl_round = AtomicU64::new(0);
            // Satellite: per-phase wall sampled by *all* workers —
            // deliver/compute via fetch_max (phase wall = slowest
            // worker), barrier via fetch_add (total wait). Worker 0
            // drains them at decisions; attribution at unit boundaries
            // is approximate (documented in `congest::obs`).
            let ph_deliver = AtomicU64::new(0);
            let ph_compute = AtomicU64::new(0);
            let ph_barrier = AtomicU64::new(0);
            let abort = AtomicBool::new(false);
            let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
            let barrier = Barrier::new(threads);

            // One worker body, run by `threads` threads in lockstep;
            // returns (rounds, frontier, histograms, wall) — meaningful
            // for worker 0 only (message totals live in the shared
            // atomics).
            let worker = |wid: usize| -> (u64, FrontierStats, Option<Histograms>, PhaseWall) {
                let order = &orders[wid];
                let mut wall = PhaseWall::default();
                let mut round: u64 = 0;
                // Local phase counter, advanced identically by every
                // worker (broadcast decisions keep them in lockstep):
                // +1 for init, +2 per classic round, +1 per fused block.
                let mut phase: u64 = 0;
                let mut prev = Prev::Init;
                let mut delivered_seen: u64 = 0;
                let mut active_seen: u64 = 0;
                let mut peak_active: u64 = 0;
                let mut hist_msgs: Vec<u64> = Vec::new();
                let mut hist_depth: Vec<u64> = Vec::new();
                let mut hist_active: Vec<u64> = Vec::new();

                let guard = |f: &mut dyn FnMut()| {
                    if abort.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                        *panic_payload.lock().unwrap() = Some(payload);
                        abort.store(true, Ordering::SeqCst);
                    }
                };

                // Clause-7 staging, shared by init/compute/fused: stage
                // one of `v`'s sends on its outgoing queue, merging per
                // the sender's combiner; a merged message was absorbed
                // into a co-queued one (the queue was non-empty, so the
                // edge is already charged and backlogged), an appended
                // one updates the charge/touched bucket (row = sender
                // shard) and record-mode backlog bookkeeping. Returns
                // whether the message merged.
                let stage_one = |p: &P,
                                 v: NodeId,
                                 to: NodeId,
                                 msg: Message,
                                 row: usize,
                                 backlog: &mut Vec<DirectedId>| {
                    let d = csr.out_id(v, to);
                    let key = p.combine_key(&msg);
                    let r = shard_of[to] as usize;
                    let cell = unsafe { slabs_sh.get_mut(row * nshards + r) };
                    let q = unsafe { heads_sh.get_mut(d) };
                    let merged = cell.stage(q, d, key, msg, |old, new| {
                        let m = p.combine(old, &new);
                        debug_assert_eq!(p.combine_key(&m), key, "combiner changed the key");
                        *old = m;
                    });
                    if merged {
                        return true;
                    }
                    let ch = unsafe { charged_sh.get_mut(d) };
                    if !*ch {
                        *ch = true;
                        unsafe { touched_sh.get_mut(row * nshards + r) }.push(d);
                    }
                    if record {
                        let ib = unsafe { in_backlog_sh.get_mut(d) };
                        if !*ib {
                            *ib = true;
                            backlog.push(d);
                        }
                    }
                    false
                };

                // Fusion-eligibility contribution of shard `s` after
                // its sends for a phase: min dist-to-boundary over
                // everything that can be active next round from this
                // shard — leftover charged receivers, freshly charged
                // receivers (bucket row `s`), and the non-quiescent
                // carryover. Batched locally, one fetch_min per shard.
                let fuse_scan = |s: usize, carry_edges: &[DirectedId], carry_nodes: &[NodeId]| {
                    let mut k = u64::MAX;
                    for &d in carry_edges {
                        k = k.min(dist[receivers[d]] as u64);
                    }
                    for r in 0..nshards {
                        for &d in unsafe { touched_sh.get_mut(s * nshards + r) }.iter() {
                            k = k.min(dist[receivers[d]] as u64);
                        }
                    }
                    for &v in carry_nodes {
                        k = k.min(dist[v] as u64);
                    }
                    if k != u64::MAX {
                        fuse_dist.fetch_min(k, Ordering::SeqCst);
                    }
                };

                // One shard's classic deliver: drain the touched-bucket
                // column, merge with carryover, pop ≤ cap per charged
                // queue into the shard arena in (receiver, id) order —
                // the simulator's per-node inbox order.
                let deliver_shard = |s: usize| {
                    let st = unsafe { states_sh.get_mut(s) };
                    let ShardState {
                        carry_edges,
                        next_edges,
                        arena,
                        inbox_ranges,
                        ..
                    } = st;
                    arena.clear();
                    inbox_ranges.clear();
                    let mut fresh = false;
                    for w in 0..nshards {
                        let bucket = unsafe { touched_sh.get_mut(w * nshards + s) };
                        fresh |= !bucket.is_empty();
                        carry_edges.append(bucket);
                    }
                    if fresh {
                        carry_edges.sort_unstable_by_key(|&d| (receivers[d], d));
                    }
                    let mut delta: i64 = 0;
                    next_edges.clear();
                    for &d in carry_edges.iter() {
                        let v = receivers[d];
                        match inbox_ranges.last_mut() {
                            Some(&mut (node, _)) if node == v => {}
                            _ => inbox_ranges.push((v, (arena.len(), arena.len()))),
                        }
                        let from = senders[d];
                        let cell =
                            unsafe { slabs_sh.get_mut(shard_of[from] as usize * nshards + s) };
                        let q = unsafe { heads_sh.get_mut(d) };
                        let mut popped = 0u64;
                        while popped < cap as u64 {
                            match cell.pop(q, d) {
                                Some((_, m)) => {
                                    arena.push((from, m));
                                    popped += 1;
                                }
                                None => break,
                            }
                        }
                        inbox_ranges.last_mut().expect("pushed above").1 .1 = arena.len();
                        delta -= popped as i64;
                        if record && popped > 0 {
                            *unsafe { per_directed_sh.get_mut(d) } += popped;
                        }
                        if track_nodes && popped > 0 {
                            *unsafe { ns_delivered_sh.get_mut(v) } += popped;
                        }
                        if q.is_empty() {
                            *unsafe { charged_sh.get_mut(d) } = false;
                        } else {
                            next_edges.push(d);
                        }
                    }
                    std::mem::swap(carry_edges, next_edges);
                    pending.fetch_add(delta, Ordering::SeqCst);
                    delivered_cum.fetch_add((-delta) as u64, Ordering::SeqCst);
                };

                // One shard's classic compute at logical round `round`:
                // run the shard's active programs (deliveries ∪
                // non-quiescent carryover, clause 5 via the shared
                // merge), push sends, update the carryover in place,
                // then report fusion eligibility for the next decision.
                let compute_shard = |s: usize, round: u64| {
                    let st = unsafe { states_sh.get_mut(s) };
                    let ShardState {
                        carry_edges,
                        carry_nodes,
                        next_nodes,
                        arena,
                        inbox_ranges,
                        out_backlog,
                        staged,
                        ..
                    } = st;
                    let mut delta: i64 = 0;
                    let mut sent: u64 = 0;
                    let mut combined: u64 = 0;
                    let mut executed: u64 = 0;
                    next_nodes.clear();
                    congest::for_each_active(
                        inbox_ranges,
                        carry_nodes,
                        (0, 0),
                        |v, (inbox_start, inbox_end)| {
                            executed += 1;
                            if track_nodes {
                                *unsafe { ns_invocations_sh.get_mut(v) } += 1;
                            }
                            let p = unsafe { programs_sh.get_mut(v) };
                            let mut ctx = Ctx::new(v, n, round, graph.neighbors(v), &mut *staged);
                            p.round(&mut ctx, &arena[inbox_start..inbox_end]);
                            for (to, msg) in staged.drain(..) {
                                sent += 1;
                                if track_nodes {
                                    *unsafe { ns_sent_sh.get_mut(v) } += 1;
                                }
                                if stage_one(p, v, to, msg, s, &mut *out_backlog) {
                                    combined += 1;
                                } else {
                                    delta += 1;
                                }
                            }
                            if !p.is_quiescent() {
                                next_nodes.push(v);
                            }
                        },
                    );
                    nonquiescent.fetch_add(
                        next_nodes.len() as i64 - carry_nodes.len() as i64,
                        Ordering::SeqCst,
                    );
                    std::mem::swap(carry_nodes, next_nodes);
                    pending.fetch_add(delta, Ordering::SeqCst);
                    staged_cum.fetch_add(sent, Ordering::SeqCst);
                    combined_cum.fetch_add(combined, Ordering::SeqCst);
                    active_cum.fetch_add(executed, Ordering::SeqCst);
                    if record {
                        // Depth scan over the sender-side backlog only:
                        // queues outside it are empty, so the max
                        // matches a full `2m`-queue sweep at
                        // frontier-proportional cost.
                        let mut depth = 0u64;
                        out_backlog.retain(|&d| {
                            let len = unsafe { heads_sh.get_mut(d) }.len() as u64;
                            if len == 0 {
                                *unsafe { in_backlog_sh.get_mut(d) } = false;
                                false
                            } else {
                                depth = depth.max(len);
                                true
                            }
                        });
                        round_max_depth.fetch_max(depth, Ordering::SeqCst);
                    }
                    fuse_scan(s, carry_edges, carry_nodes);
                };

                // One shard's fused block: up to `b` barrier-free local
                // rounds starting after logical round `base`. All
                // traffic is shard-internal by the clause-9 predicate
                // (active nodes sit ≥ 1 intra-shard hop from the
                // boundary for the whole block), so only the diagonal
                // bucket and the shard's own carry lists are touched.
                let fuse_shard = |s: usize, base: u64, b: u64, timing: bool| {
                    let st = unsafe { states_sh.get_mut(s) };
                    let ShardState {
                        carry_edges,
                        next_edges,
                        carry_nodes,
                        next_nodes,
                        arena,
                        inbox_ranges,
                        out_backlog,
                        staged,
                        fused,
                    } = st;
                    fused.clear();
                    let own = s * nshards + s;
                    let carry_start = carry_nodes.len() as i64;
                    let mut b_pending: i64 = 0;
                    let mut b_sent: u64 = 0;
                    let mut b_combined: u64 = 0;
                    let mut b_delivered: u64 = 0;
                    let mut b_active: u64 = 0;
                    for j in 1..=b {
                        if abort.load(Ordering::SeqCst) {
                            break;
                        }
                        let bucket_empty = unsafe { touched_sh.get_mut(own) }.is_empty();
                        if carry_edges.is_empty() && carry_nodes.is_empty() && bucket_empty {
                            break; // dead: nothing can wake this shard mid-block
                        }
                        let mut fr = FusedRound::default();
                        // -- local deliver (diagonal bucket only: cross
                        // buckets are provably empty for the block).
                        let t = timing.then(Instant::now);
                        arena.clear();
                        inbox_ranges.clear();
                        {
                            let bucket = unsafe { touched_sh.get_mut(own) };
                            if !bucket.is_empty() {
                                carry_edges.append(bucket);
                                carry_edges.sort_unstable_by_key(|&d| (receivers[d], d));
                            }
                        }
                        next_edges.clear();
                        for &d in carry_edges.iter() {
                            let v = receivers[d];
                            match inbox_ranges.last_mut() {
                                Some(&mut (node, _)) if node == v => {}
                                _ => inbox_ranges.push((v, (arena.len(), arena.len()))),
                            }
                            let from = senders[d];
                            let cell =
                                unsafe { slabs_sh.get_mut(shard_of[from] as usize * nshards + s) };
                            let q = unsafe { heads_sh.get_mut(d) };
                            let mut popped = 0u64;
                            while popped < cap as u64 {
                                match cell.pop(q, d) {
                                    Some((_, m)) => {
                                        arena.push((from, m));
                                        popped += 1;
                                    }
                                    None => break,
                                }
                            }
                            inbox_ranges.last_mut().expect("pushed above").1 .1 = arena.len();
                            fr.delivered += popped;
                            if record && popped > 0 {
                                *unsafe { per_directed_sh.get_mut(d) } += popped;
                            }
                            if track_nodes && popped > 0 {
                                *unsafe { ns_delivered_sh.get_mut(v) } += popped;
                            }
                            if q.is_empty() {
                                *unsafe { charged_sh.get_mut(d) } = false;
                            } else {
                                next_edges.push(d);
                            }
                        }
                        std::mem::swap(carry_edges, next_edges);
                        b_pending -= fr.delivered as i64;
                        b_delivered += fr.delivered;
                        if let Some(t) = t {
                            fr.deliver_ns = t.elapsed().as_nanos() as u64;
                        }
                        // -- local compute at logical round base + j.
                        let t = timing.then(Instant::now);
                        next_nodes.clear();
                        congest::for_each_active(
                            inbox_ranges,
                            carry_nodes,
                            (0, 0),
                            |v, (inbox_start, inbox_end)| {
                                fr.active += 1;
                                if track_nodes {
                                    *unsafe { ns_invocations_sh.get_mut(v) } += 1;
                                }
                                let p = unsafe { programs_sh.get_mut(v) };
                                let mut ctx =
                                    Ctx::new(v, n, base + j, graph.neighbors(v), &mut *staged);
                                p.round(&mut ctx, &arena[inbox_start..inbox_end]);
                                for (to, msg) in staged.drain(..) {
                                    b_sent += 1;
                                    if track_nodes {
                                        *unsafe { ns_sent_sh.get_mut(v) } += 1;
                                    }
                                    if stage_one(p, v, to, msg, s, &mut *out_backlog) {
                                        b_combined += 1;
                                    } else {
                                        b_pending += 1;
                                    }
                                }
                                if !p.is_quiescent() {
                                    next_nodes.push(v);
                                }
                            },
                        );
                        std::mem::swap(carry_nodes, next_nodes);
                        b_active += fr.active;
                        if record {
                            let mut depth = 0u64;
                            out_backlog.retain(|&d| {
                                let len = unsafe { heads_sh.get_mut(d) }.len() as u64;
                                if len == 0 {
                                    *unsafe { in_backlog_sh.get_mut(d) } = false;
                                    false
                                } else {
                                    depth = depth.max(len);
                                    true
                                }
                            });
                            fr.depth = depth;
                        }
                        if let Some(t) = t {
                            fr.compute_ns = t.elapsed().as_nanos() as u64;
                        }
                        fused.push(fr);
                    }
                    // Batched flushes: decisions only read these after
                    // the block's resync barrier.
                    pending.fetch_add(b_pending, Ordering::SeqCst);
                    staged_cum.fetch_add(b_sent, Ordering::SeqCst);
                    combined_cum.fetch_add(b_combined, Ordering::SeqCst);
                    delivered_cum.fetch_add(b_delivered, Ordering::SeqCst);
                    active_cum.fetch_add(b_active, Ordering::SeqCst);
                    nonquiescent
                        .fetch_add(carry_nodes.len() as i64 - carry_start, Ordering::SeqCst);
                    block_rounds.fetch_max(fused.len() as u64, Ordering::SeqCst);
                    fuse_scan(s, carry_edges, carry_nodes);
                };

                // ---- init phase (round 0): one send burst per node;
                // seed the non-quiescent carryover (the only full-shard
                // `is_quiescent` evaluation of the run).
                phase += 1;
                guard(&mut || {
                    for &s in order {
                        if claims[s]
                            .compare_exchange(phase - 1, phase, Ordering::SeqCst, Ordering::SeqCst)
                            .is_err()
                        {
                            continue;
                        }
                        let st = unsafe { states_sh.get_mut(s) };
                        let ShardState {
                            carry_edges,
                            carry_nodes,
                            out_backlog,
                            staged,
                            ..
                        } = st;
                        let (lo, hi) = shards[s];
                        let mut delta: i64 = 0;
                        let mut sent: u64 = 0;
                        let mut combined: u64 = 0;
                        for v in lo..hi {
                            let p = unsafe { programs_sh.get_mut(v) };
                            let mut ctx = Ctx::new(v, n, 0, graph.neighbors(v), &mut *staged);
                            p.init(&mut ctx);
                            for (to, msg) in staged.drain(..) {
                                sent += 1;
                                if track_nodes {
                                    *unsafe { ns_sent_sh.get_mut(v) } += 1;
                                }
                                if stage_one(p, v, to, msg, s, &mut *out_backlog) {
                                    combined += 1;
                                } else {
                                    delta += 1;
                                }
                            }
                            if !p.is_quiescent() {
                                carry_nodes.push(v);
                            }
                        }
                        pending.fetch_add(delta, Ordering::SeqCst);
                        staged_cum.fetch_add(sent, Ordering::SeqCst);
                        combined_cum.fetch_add(combined, Ordering::SeqCst);
                        nonquiescent.fetch_add(carry_nodes.len() as i64, Ordering::SeqCst);
                        fuse_scan(s, carry_edges, carry_nodes);
                    }
                });
                let t_barrier = timed.then(Instant::now);
                barrier.wait(); // init burst + carryover seeds visible
                if let Some(t) = t_barrier {
                    ph_barrier.fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                }

                loop {
                    // ---- decide: worker 0 alone accounts the previous
                    // unit (every counter settled before the last
                    // barrier), then broadcasts the next move.
                    if wid == 0 {
                        match prev {
                            Prev::Init => {}
                            Prev::Classic => {
                                round += 1;
                                let cum = delivered_cum.load(Ordering::SeqCst);
                                let this_round = cum - delivered_seen;
                                delivered_seen = cum;
                                let acum = active_cum.load(Ordering::SeqCst);
                                let round_active = acum - active_seen;
                                active_seen = acum;
                                peak_active = peak_active.max(round_active);
                                let dns = ph_deliver.swap(0, Ordering::SeqCst);
                                let cns = ph_compute.swap(0, Ordering::SeqCst);
                                let bns = ph_barrier.swap(0, Ordering::SeqCst);
                                if record {
                                    hist_msgs.push(this_round);
                                    hist_depth.push(round_max_depth.swap(0, Ordering::SeqCst));
                                    hist_active.push(round_active);
                                }
                                if let Some((sink, run_id)) = trace_run.as_ref() {
                                    sink.lock().expect("trace sink").push_round(
                                        *run_id,
                                        RoundTrace {
                                            round,
                                            delivered: this_round,
                                            active: round_active,
                                            deliver_ns: dns,
                                            compute_ns: cns,
                                            barrier_ns: bns,
                                        },
                                    );
                                }
                                wall.deliver_ns += dns;
                                wall.compute_ns += cns;
                                wall.barrier_ns += bns;
                            }
                            Prev::Fused => {
                                // Merge the block's per-shard per-round
                                // records into exact global rounds;
                                // fused rounds have no barriers, so the
                                // block's (single resync) barrier wait
                                // is attributed to its first round.
                                let l = block_rounds.swap(0, Ordering::SeqCst) as usize;
                                let bar = ph_barrier.swap(0, Ordering::SeqCst);
                                let _ = ph_deliver.swap(0, Ordering::SeqCst);
                                let _ = ph_compute.swap(0, Ordering::SeqCst);
                                for j in 0..l {
                                    let mut delivered_j = 0u64;
                                    let mut active_j = 0u64;
                                    let mut depth_j = 0u64;
                                    let mut dns = 0u64;
                                    let mut cns = 0u64;
                                    for s in 0..nshards {
                                        if let Some(fr) =
                                            unsafe { states_sh.get_mut(s) }.fused.get(j)
                                        {
                                            delivered_j += fr.delivered;
                                            active_j += fr.active;
                                            depth_j = depth_j.max(fr.depth);
                                            dns += fr.deliver_ns;
                                            cns += fr.compute_ns;
                                        }
                                    }
                                    round += 1;
                                    peak_active = peak_active.max(active_j);
                                    let bns = if j == 0 { bar } else { 0 };
                                    if record {
                                        hist_msgs.push(delivered_j);
                                        hist_depth.push(depth_j);
                                        hist_active.push(active_j);
                                    }
                                    if let Some((sink, run_id)) = trace_run.as_ref() {
                                        sink.lock().expect("trace sink").push_round(
                                            *run_id,
                                            RoundTrace {
                                                round,
                                                delivered: delivered_j,
                                                active: active_j,
                                                deliver_ns: dns,
                                                compute_ns: cns,
                                                barrier_ns: bns,
                                            },
                                        );
                                    }
                                    wall.deliver_ns += dns;
                                    wall.compute_ns += cns;
                                    wall.barrier_ns += bns;
                                }
                                delivered_seen = delivered_cum.load(Ordering::SeqCst);
                                active_seen = active_cum.load(Ordering::SeqCst);
                            }
                        }
                        // Only worker 0 ever touches `fuse_dist` here,
                        // so the swap-reset cannot race worker loads.
                        let k = fuse_dist.swap(u64::MAX, Ordering::SeqCst);
                        let (code, b) = if abort.load(Ordering::SeqCst) {
                            (CTRL_ABORTED, 0)
                        } else if pending.load(Ordering::SeqCst) == 0
                            && nonquiescent.load(Ordering::SeqCst) == 0
                        {
                            (CTRL_QUIESCENT, 0)
                        } else if round + 1 > max_rounds {
                            (CTRL_LIVELOCKED, 0)
                        } else if k >= 1 && k != u64::MAX {
                            (CTRL_FUSED, k.min(FUSE_BLOCK_MAX).min(max_rounds - round))
                        } else {
                            (CTRL_CLASSIC, 0)
                        };
                        ctrl_round.store(round, Ordering::SeqCst);
                        ctrl_word.store(code | (b << 8), Ordering::SeqCst);
                    }
                    let t_barrier = timed.then(Instant::now);
                    barrier.wait(); // #1: decision epoch closed
                    if let Some(t) = t_barrier {
                        ph_barrier.fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    }
                    let word = ctrl_word.load(Ordering::SeqCst);
                    let code = word & 0xff;
                    let b = word >> 8;
                    let base = ctrl_round.load(Ordering::SeqCst);

                    match code {
                        CTRL_CLASSIC => {
                            // ---- deliver phase.
                            phase += 1;
                            let t = timed.then(Instant::now);
                            guard(&mut || {
                                for &s in order {
                                    if claims[s]
                                        .compare_exchange(
                                            phase - 1,
                                            phase,
                                            Ordering::SeqCst,
                                            Ordering::SeqCst,
                                        )
                                        .is_ok()
                                    {
                                        deliver_shard(s);
                                    }
                                }
                            });
                            if let Some(t) = t {
                                ph_deliver
                                    .fetch_max(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                            }
                            let t_barrier = timed.then(Instant::now);
                            barrier.wait(); // #2: all inboxes assembled
                            if let Some(t) = t_barrier {
                                ph_barrier
                                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                            }
                            // ---- compute phase.
                            phase += 1;
                            let t = timed.then(Instant::now);
                            guard(&mut || {
                                for &s in order {
                                    if claims[s]
                                        .compare_exchange(
                                            phase - 1,
                                            phase,
                                            Ordering::SeqCst,
                                            Ordering::SeqCst,
                                        )
                                        .is_ok()
                                    {
                                        compute_shard(s, base + 1);
                                    }
                                }
                            });
                            if let Some(t) = t {
                                ph_compute
                                    .fetch_max(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                            }
                            let t_barrier = timed.then(Instant::now);
                            barrier.wait(); // #3: all sends queued
                            if let Some(t) = t_barrier {
                                ph_barrier
                                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                            }
                            prev = Prev::Classic;
                        }
                        CTRL_FUSED => {
                            // ---- fused block: one claim phase, up to
                            // `b` barrier-free rounds per shard.
                            phase += 1;
                            guard(&mut || {
                                for &s in order {
                                    if claims[s]
                                        .compare_exchange(
                                            phase - 1,
                                            phase,
                                            Ordering::SeqCst,
                                            Ordering::SeqCst,
                                        )
                                        .is_ok()
                                    {
                                        fuse_shard(s, base, b, timed);
                                    }
                                }
                            });
                            let t_barrier = timed.then(Instant::now);
                            barrier.wait(); // resync: block results visible
                            if let Some(t) = t_barrier {
                                ph_barrier
                                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
                            }
                            prev = Prev::Fused;
                        }
                        _ => {
                            // Terminal (quiescent / livelocked /
                            // aborted): worker 0 already accounted the
                            // final unit above.
                            let frontier = FrontierStats {
                                invocations: active_seen,
                                peak_active,
                                rounds: round,
                            };
                            return (
                                round,
                                frontier,
                                (wid == 0 && record).then_some((
                                    hist_msgs,
                                    hist_depth,
                                    hist_active,
                                )),
                                wall,
                            );
                        }
                    }
                }
            };

            let (rounds, frontier, hists, wall) = if threads > 1 {
                let pool_ref = pool.as_ref().expect("pool ensured for threads > 1");
                pool_ref.scope(
                    threads,
                    &|wid| {
                        let _ = worker(wid);
                    },
                    || worker(0),
                )
            } else {
                worker(0)
            };

            if let Some(payload) = panic_payload.lock().unwrap().take() {
                resume_unwind(payload);
            }
            stats.rounds = rounds;
            stats.messages = staged_cum.load(Ordering::SeqCst);
            stats.messages_combined = combined_cum.load(Ordering::SeqCst);
            delivered_total = delivered_cum.load(Ordering::SeqCst);
            run_frontier = frontier;
            livelocked = rounds >= max_rounds
                && (pending.load(Ordering::SeqCst) != 0
                    || nonquiescent.load(Ordering::SeqCst) != 0);
            histograms = hists;
            run_wall = wall;
        }
        if track_nodes {
            self.node_stats = Some(node_stats);
        }
        self.wall_total.absorb(run_wall);
        if timed {
            congest::plan::add_phase_wall_ns(
                run_wall.deliver_ns,
                run_wall.compute_ns,
                run_wall.barrier_ns,
            );
        }

        if livelocked {
            panic!("CONGEST run exceeded {max_rounds} rounds — livelocked program?");
        }
        // Quiescence drained every queue (pending == 0); keep the arena
        // for the next run. Aborted/livelocked runs unwind above and
        // drop it instead — their queues may be non-empty.
        self.arena = run_arena;
        debug_assert_eq!(
            delivered_total,
            stats.messages_delivered(),
            "staged = delivered + combined at quiescence"
        );

        if record {
            let (messages_per_round, max_queue_depth_per_round, active_per_round) =
                histograms.unwrap_or_default();
            self.last_report = Some(EngineReport {
                rounds: stats.rounds,
                total_messages: stats.messages,
                messages_delivered: delivered_total,
                messages_combined: stats.messages_combined,
                messages_per_round,
                max_queue_depth_per_round,
                active_per_round,
                hot_edges: EngineReport::rank_hot_edges(&self.arena.per_directed),
                threads,
                wall: run_wall,
            });
        }

        self.total.absorb(stats);
        self.frontier.absorb(run_frontier);
        (programs.into_iter().map(Program::finish).collect(), stats)
    }
}
impl<'g> Executor for Engine<'g> {
    type Sub<'h> = Engine<'h>;

    fn sub<'h>(&self, graph: &'h Graph) -> Engine<'h> {
        // Sub-executors share the session plan cache: a derived graph
        // seen before (same topology) skips CSR/shard-plan rebuilds.
        let mut sub = Engine::with_shared_plans(graph, self.threads, self.plans.clone());
        sub.cap = self.cap;
        sub.max_rounds = self.max_rounds;
        sub.record_metrics = self.record_metrics;
        sub.time_phases = self.time_phases;
        if self.node_stats.is_some() {
            sub.set_record_node_stats(true);
        }
        sub.trace = self.trace.clone();
        // Sub-executors reuse the parent's parked workers and stress
        // plan — a composite algorithm spawns threads exactly once.
        sub.pool = self.pool.clone();
        sub.stress_seed = self.stress_seed;
        sub
    }

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn cap(&self) -> usize {
        self.cap
    }

    fn set_cap(&mut self, cap: usize) {
        assert!(cap >= 1, "bandwidth cap must be at least 1");
        self.cap = cap;
    }

    fn set_max_rounds(&mut self, max_rounds: u64) {
        self.max_rounds = max_rounds;
    }

    fn total(&self) -> RunStats {
        self.total
    }

    fn frontier_total(&self) -> FrontierStats {
        self.frontier
    }

    fn reset_total(&mut self) {
        self.total = RunStats::default();
        self.frontier = FrontierStats::default();
    }

    fn charge(&mut self, stats: RunStats) {
        self.total.absorb(stats);
    }

    fn charge_frontier(&mut self, frontier: FrontierStats) {
        self.frontier.absorb(frontier);
    }

    fn set_record_node_stats(&mut self, record: bool) {
        Engine::set_record_node_stats(self, record)
    }

    fn node_stats(&self) -> Option<&NodeStats> {
        self.node_stats.as_ref()
    }

    fn charge_node_stats(&mut self, other: &NodeStats) {
        if let Some(ns) = self.node_stats.as_mut() {
            ns.absorb(other);
        }
    }

    fn run<P, F>(&mut self, make: F) -> (Vec<P::Output>, RunStats)
    where
        P: Program + Send,
        P::Output: Send,
        F: FnMut(NodeId, &Graph) -> P,
    {
        Engine::run(self, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::{Simulator, Word};
    use lightgraph::generators;

    struct Flood {
        have: bool,
    }

    impl Program for Flood {
        type Output = (bool, u64);
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                self.have = true;
                ctx.send_all(Message::words(&[7]));
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            if !self.have && !inbox.is_empty() {
                self.have = true;
                ctx.send_all(Message::words(&[7]));
            }
        }
        fn finish(self) -> (bool, u64) {
            (self.have, 0)
        }
    }

    #[test]
    fn matches_simulator_on_flood() {
        for seed in 0..5 {
            let g = generators::erdos_renyi(64, 0.08, 10, seed);
            let mut sim = Simulator::new(&g);
            let (a, sa) = sim.run(|_, _| Flood { have: false });
            for threads in [1, 2, 5] {
                let mut eng = Engine::with_threads(&g, threads);
                let (b, sb) = eng.run(|_, _| Flood { have: false });
                assert_eq!(a, b, "outputs differ (threads={threads}, seed={seed})");
                assert_eq!(sa, sb, "stats differ (threads={threads}, seed={seed})");
            }
        }
    }

    struct Burst {
        k: usize,
        received: usize,
    }

    impl Program for Burst {
        type Output = usize;
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                for i in 0..self.k {
                    ctx.send(1, Message::words(&[i as u64]));
                }
            }
        }
        fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            self.received += inbox.len();
        }
        fn finish(self) -> usize {
            self.received
        }
    }

    #[test]
    fn bandwidth_cap_pipelines_like_simulator() {
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        let (out, stats) = eng.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(stats.rounds, 10);
        assert_eq!(out[1], 10);

        let mut eng5 = Engine::with_threads(&g, 2);
        Executor::set_cap(&mut eng5, 5);
        let (_, s5) = eng5.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(s5.rounds, 2);
    }

    #[test]
    fn per_edge_fifo_order_is_preserved() {
        // node 0 sends 0..6 to node 1; they must arrive in order.
        struct Seq {
            k: u64,
            got: Vec<u64>,
        }
        impl Program for Seq {
            type Output = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node() == 0 {
                    for i in 0..self.k {
                        ctx.send(1, Message::words(&[i]));
                    }
                }
            }
            fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
                for (_, m) in inbox {
                    self.got.push(m.word(0));
                }
            }
            fn finish(self) -> Vec<u64> {
                self.got
            }
        }
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        let (out, _) = eng.run(|_, _| Seq {
            k: 6,
            got: Vec::new(),
        });
        assert_eq!(out[1], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn livelock_guard_fires() {
        struct Chatter;
        impl Program for Chatter {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[0]));
            }
            fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
                let senders: Vec<NodeId> = inbox.iter().map(|&(from, _)| from).collect();
                for from in senders {
                    ctx.send(from, Message::words(&[0]));
                }
            }
            fn finish(self) {}
        }
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        Executor::set_max_rounds(&mut eng, 100);
        eng.run(|_, _| Chatter);
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn livelock_guard_fires_inside_fused_blocks() {
        // Single-threaded (one boundless shard): the whole run executes
        // as fused blocks, and the guard must still stop at max_rounds.
        struct Chatter;
        impl Program for Chatter {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[0]));
            }
            fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
                let senders: Vec<NodeId> = inbox.iter().map(|&(from, _)| from).collect();
                for from in senders {
                    ctx.send(from, Message::words(&[0]));
                }
            }
            fn finish(self) {}
        }
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 1);
        Executor::set_max_rounds(&mut eng, 1000);
        eng.run(|_, _| Chatter);
    }

    #[test]
    fn program_panics_are_forwarded_not_deadlocked() {
        struct Bomb;
        impl Program for Bomb {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[1]));
            }
            fn round(&mut self, ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {
                if ctx.node() == 3 {
                    panic!("boom at node 3");
                }
            }
            fn finish(self) {}
        }
        let g = generators::cycle(8, 1);
        let mut eng = Engine::with_threads(&g, 3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| eng.run(|_, _| Bomb)))
            .expect_err("must propagate");
        let text = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(text.contains("boom"), "unexpected payload {text:?}");
        // The engine (and its pool) must stay usable after the panic.
        let (out, _) = eng.run(|_, _| Flood { have: false });
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn panicking_is_quiescent_is_forwarded_not_deadlocked() {
        struct QuietBomb {
            armed: bool,
        }
        impl Program for QuietBomb {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[1]));
            }
            fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {
                self.armed = true;
            }
            fn is_quiescent(&self) -> bool {
                assert!(!self.armed, "quiescence bomb");
                true
            }
            fn finish(self) {}
        }
        let g = generators::cycle(8, 1);
        let mut eng = Engine::with_threads(&g, 3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            eng.run(|_, _| QuietBomb { armed: false })
        }))
        .expect_err("must propagate");
        let text = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            text.contains("quiescence bomb"),
            "unexpected payload {text:?}"
        );
    }

    #[test]
    fn shards_balance_by_degree_not_node_count() {
        // Star: the hub carries almost all the work; its shard must
        // hold far fewer nodes than the leaf shard.
        let g = generators::star(31, 9, 1);
        let bounds = shard_bounds(&g, 2);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds[1].1, 31);
        assert_eq!(bounds[0].1, bounds[1].0, "shards are contiguous");
        let hub_shard = bounds[if g.degree(0) > g.degree(30) { 0 } else { 1 }];
        assert!(
            hub_shard.1 - hub_shard.0 < 16,
            "hub shard {hub_shard:?} should be node-light"
        );
        // Work (1 + degree) is near-balanced.
        let work =
            |(lo, hi): (usize, usize)| -> u64 { (lo..hi).map(|v| 1 + g.degree(v) as u64).sum() };
        let (w0, w1) = (work(bounds[0]), work(bounds[1]));
        assert!(w0.abs_diff(w1) <= 1 + g.degree(0) as u64, "{w0} vs {w1}");
    }

    #[test]
    fn shard_bounds_cover_all_nodes_for_any_thread_count() {
        for (n, seed) in [(1usize, 0u64), (7, 1), (40, 2)] {
            let g = generators::erdos_renyi(n, 0.2, 9, seed);
            for threads in 1..=8 {
                let bounds = shard_bounds(&g, threads);
                assert_eq!(bounds.len(), threads);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[threads - 1].1, n);
                assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
            }
        }
    }

    #[test]
    fn plan_shards_covers_nodes_under_stress_and_normally() {
        for (n, seed) in [(1usize, 11u64), (7, 12), (40, 13)] {
            let g = generators::erdos_renyi(n, 0.2, 9, seed);
            for threads in 1..=4 {
                for stress in [None, Some(seed), Some(seed ^ 0xdead_beef)] {
                    let bounds = plan_shards(&g, threads, stress);
                    assert!(!bounds.is_empty());
                    assert_eq!(bounds[0].0, 0);
                    assert_eq!(bounds.last().unwrap().1, n);
                    assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
                    assert!(bounds.iter().all(|&(lo, hi)| lo <= hi));
                }
            }
        }
    }

    #[test]
    fn frontier_stats_match_simulator_and_skip_idle_nodes() {
        // Burst over one edge: only the receiver is ever active, so a
        // 10-round run costs 10 invocations (dense: 20), on any thread
        // count, matching the simulator's frontier accounting.
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = congest::Simulator::new(&g);
        sim.run(|_, _| Burst { k: 10, received: 0 });
        for threads in [1, 2] {
            let mut eng = Engine::with_threads(&g, threads);
            let (_, stats) = eng.run(|_, _| Burst { k: 10, received: 0 });
            let f = Executor::frontier_total(&eng);
            assert_eq!(f, sim.frontier_total(), "threads={threads}");
            assert_eq!(f.invocations, 10);
            assert_eq!(f.peak_active, 1);
            assert!(f.invocations < stats.rounds * g.n() as u64, "skips idle");
        }
    }

    #[test]
    fn report_collects_histograms_and_hot_edges() {
        let g = lightgraph::Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        eng.set_record_metrics(true);
        let (_, stats) = eng.run(|_, _| Burst { k: 4, received: 0 });
        let report = eng.last_report().expect("recording enabled");
        assert_eq!(report.rounds, stats.rounds);
        assert_eq!(report.total_messages, stats.messages);
        assert_eq!(report.messages_delivered, stats.messages_delivered());
        assert_eq!(report.messages_combined, stats.messages_combined);
        assert_eq!(
            report.messages_per_round.iter().sum::<u64>(),
            report.messages_delivered
        );
        assert_eq!(
            report.active_per_round.iter().sum::<u64>(),
            Executor::frontier_total(&eng).invocations,
            "active histogram sums to the invocation count"
        );
        assert_eq!(
            report.peak_active(),
            Executor::frontier_total(&eng).peak_active
        );
        assert_eq!(report.hot_edges[0].0, 0, "edge 0 carries the burst");
        assert_eq!(
            report.peak_queue_depth(),
            3,
            "k-1 messages remain after round 1"
        );
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn fused_blocks_keep_report_series_exact() {
        // Single-thread runs fuse whole bursts into barrier-free
        // blocks; every per-round histogram column must still match
        // the barriered multi-thread schedule bit for bit.
        let g = generators::path(24, 1);
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| Flood { have: false });
        let mut reference: Option<EngineReport> = None;
        for threads in [1, 2, 4] {
            let mut eng = Engine::with_threads(&g, threads);
            eng.set_record_metrics(true);
            let (oe, se) = eng.run(|_, _| Flood { have: false });
            assert_eq!(os, oe, "outputs (threads={threads})");
            assert_eq!(ss, se, "stats (threads={threads})");
            assert_eq!(
                sim.frontier_total(),
                Executor::frontier_total(&eng),
                "frontier (threads={threads})"
            );
            let report = eng.last_report().expect("recording enabled");
            if let Some(r) = reference.as_ref() {
                assert_eq!(
                    r.messages_per_round, report.messages_per_round,
                    "messages/round (threads={threads})"
                );
                assert_eq!(
                    r.active_per_round, report.active_per_round,
                    "active/round (threads={threads})"
                );
                assert_eq!(
                    r.max_queue_depth_per_round, report.max_queue_depth_per_round,
                    "depth/round (threads={threads})"
                );
                assert_eq!(
                    r.hot_edges, report.hot_edges,
                    "hot edges (threads={threads})"
                );
            } else {
                reference = Some(report.clone());
            }
        }
    }

    #[test]
    fn stress_seeds_never_change_outputs() {
        // Randomized shard cuts and steal orders must be invisible:
        // same outputs, stats, frontier, and report series for every
        // seed. This is the in-tree face of ENGINE_SHARD_STRESS=1.
        let g = generators::erdos_renyi(48, 0.1, 9, 3);
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| Flood { have: false });
        for threads in [1, 3] {
            for seed in 0..6u64 {
                let mut eng = Engine::with_threads(&g, threads);
                eng.set_shard_stress_seed(Some(seed));
                eng.set_record_metrics(true);
                let (oe, se) = eng.run(|_, _| Flood { have: false });
                assert_eq!(os, oe, "outputs (threads={threads}, seed={seed})");
                assert_eq!(ss, se, "stats (threads={threads}, seed={seed})");
                assert_eq!(
                    sim.frontier_total(),
                    Executor::frontier_total(&eng),
                    "frontier (threads={threads}, seed={seed})"
                );
            }
        }
    }

    /// Same program as the simulator's combining unit test: node 0
    /// stages `k` same-key messages in one burst; the min-combiner
    /// collapses them to one survivor.
    struct KeyedBurst {
        k: u64,
        got: Vec<u64>,
    }

    impl Program for KeyedBurst {
        type Output = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                for i in 0..self.k {
                    ctx.send(1, Message::words(&[5, 100 - i]));
                }
            }
        }
        fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            for (_, m) in inbox {
                self.got.push(m.word(1));
            }
        }
        fn combine_key(&self, msg: &Message) -> Option<Word> {
            Some(msg.word(0))
        }
        fn combine(&self, queued: &Message, incoming: &Message) -> Message {
            Message::words(&[queued.word(0), queued.word(1).min(incoming.word(1))])
        }
        fn finish(self) -> Vec<u64> {
            self.got
        }
    }

    #[test]
    fn combiner_matches_simulator_bit_for_bit() {
        let g = generators::cycle(8, 1);
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| KeyedBurst {
            k: 10,
            got: Vec::new(),
        });
        assert_eq!(ss.messages_combined, 9, "the burst merged");
        assert_eq!(ss.messages_delivered(), ss.messages - 9);
        for threads in [1, 2, 3] {
            let mut eng = Engine::with_threads(&g, threads);
            eng.set_record_metrics(true);
            let (oe, se) = eng.run(|_, _| KeyedBurst {
                k: 10,
                got: Vec::new(),
            });
            assert_eq!(os, oe, "outputs (threads={threads})");
            assert_eq!(ss, se, "stats incl. combine counters (threads={threads})");
            assert_eq!(
                sim.frontier_total(),
                Executor::frontier_total(&eng),
                "frontier (threads={threads})"
            );
            let report = eng.last_report().expect("recording enabled");
            assert_eq!(report.messages_combined, se.messages_combined);
            assert_eq!(report.messages_delivered, se.messages_delivered());
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g0 = lightgraph::Graph::new(0);
        let mut e0 = Engine::new(&g0);
        let (out, stats) = e0.run(|_, _| Flood { have: false });
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());

        let g1 = lightgraph::Graph::new(1);
        let mut e1 = Engine::new(&g1);
        let (out, stats) = e1.run(|_, _| Flood { have: false });
        assert_eq!(out.len(), 1);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn totals_accumulate_and_sub_inherits() {
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 1);
        eng.run(|_, _| Burst { k: 3, received: 0 });
        eng.run(|_, _| Burst { k: 4, received: 0 });
        assert_eq!(Executor::total(&eng).rounds, 7);
        Executor::set_cap(&mut eng, 3);
        let h = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let sub = Executor::sub(&eng, &h);
        assert_eq!(Executor::cap(&sub), 3);
        assert_eq!(Executor::total(&sub), RunStats::default());
    }
}
