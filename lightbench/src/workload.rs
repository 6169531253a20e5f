//! The four workloads: input generation, one construction on a fresh
//! engine, and the output checks against the paper's bounds.

use congest::obs::{self, SpanTree};
use congest::tree::{build_bfs_tree, BfsTree};
use congest::{Executor, FrontierStats, RunStats};
use engine::Engine;
use lightgraph::{generators, metrics, mst, EdgeId, Graph, NodeId};
use std::time::Instant;

/// ε of the SLT (Theorem 1) and of the light spanner (Theorem 2).
pub const EPS: f64 = 0.5;
/// Stretch parameter `k` of the light spanner.
pub const K: usize = 2;
/// Random vertex pairs behind the spanner's sampled stretch.
pub const STRETCH_SAMPLES: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    Bfs,
    Slt,
    Spanner,
}

/// One workload: which construction, on how many nodes, with how many
/// engine worker threads, over how many input graphs per run. Several
/// inputs per run average out how much rounds and messages swing from
/// one random graph to the next.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub algo: Algo,
    pub n: usize,
    pub threads: usize,
    pub inputs: usize,
}

/// One input graph and the root every construction on it uses.
pub struct Input {
    pub g: Graph,
    pub root: NodeId,
    /// Seed of the generator, also handed to the construction.
    pub seed: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bfs-1m",
        algo: Algo::Bfs,
        n: 1_000_000,
        threads: 1,
        inputs: 1,
    },
    Workload {
        name: "slt-32k",
        algo: Algo::Slt,
        n: 32_000,
        threads: 1,
        inputs: 3,
    },
    Workload {
        name: "slt-32k-t2",
        algo: Algo::Slt,
        n: 32_000,
        threads: 2,
        inputs: 3,
    },
    Workload {
        name: "spanner-er-8k",
        algo: Algo::Spanner,
        n: 8_000,
        threads: 1,
        inputs: 3,
    },
];

impl Algo {
    /// The result an output check of this construction verifies.
    fn theorem(self) -> &'static str {
        match self {
            Algo::Bfs => "BFS tree (§2)",
            Algo::Slt => "Theorem 1",
            Algo::Spanner => "Theorem 2",
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The run's input graphs, a pure function of `seed`: input `i` is
    /// generated from `seed · inputs + i`, so distinct seeds never share
    /// an input.
    pub fn generate(&self, seed: u64) -> Vec<Input> {
        (0..self.inputs as u64)
            .map(|i| {
                let seed = seed.wrapping_mul(self.inputs as u64).wrapping_add(i);
                let g = self.graph(seed);
                let root = center(&g);
                Input { g, root, seed }
            })
            .collect()
    }

    fn graph(&self, seed: u64) -> Graph {
        match self.algo {
            Algo::Bfs | Algo::Slt => {
                let radius = (8.0 / (std::f64::consts::PI * self.n as f64)).sqrt();
                generators::random_geometric(self.n, radius, seed)
            }
            Algo::Spanner => generators::gnp_sparse(self.n, 32.0 / self.n as f64, 1000, seed),
        }
    }
}

/// Hop distances from `src` and each vertex's BFS parent.
fn bfs(g: &Graph, src: NodeId) -> (Vec<usize>, Vec<NodeId>) {
    let mut dist = vec![usize::MAX; g.n()];
    let mut parent = vec![src; g.n()];
    let mut queue = std::collections::VecDeque::from([src]);
    dist[src] = 0;
    while let Some(u) = queue.pop_front() {
        for &(v, _, _) in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Farthest vertex in hops (smallest id on ties).
fn farthest(dist: &[usize]) -> NodeId {
    (0..dist.len())
        .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)))
        .unwrap_or(0)
}

/// An approximate hop center: the midpoint of the path between the two
/// ends of a double BFS sweep from vertex 0. Rooting there keeps the
/// root's eccentricity — which sets BFS depth, pipelining latency and
/// hence rounds — from swinging with where vertex 0 happens to land.
fn center(g: &Graph) -> NodeId {
    let a = farthest(&bfs(g, 0).0);
    let (dist, parent) = bfs(g, a);
    let mut v = farthest(&dist);
    for _ in 0..dist[v] / 2 {
        v = parent[v];
    }
    v
}

/// How much observation a construction runs with.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Nothing: the timed runs.
    Off,
    /// Per-node message counters only: the single-thread reference a
    /// traced multi-thread run is compared with.
    NodeStats,
    /// Node stats, phase-wall sampling and span collection.
    Traced,
}

/// One finished construction.
pub struct Run {
    /// Engine creation to result.
    pub wall_s: f64,
    /// `Engine::with_threads` wall.
    pub create_s: f64,
    /// Per-run setup of every run and sub-run (plan and arena
    /// acquisition), from the process-wide accumulator.
    pub run_setup_s: f64,
    pub stats: RunStats,
    pub frontier: FrontierStats,
    /// Output edge ids of the input graph, sorted.
    pub edges: Vec<EdgeId>,
    /// BFS tree height (BFS workload only).
    pub height: Option<u64>,
    /// Largest, median and 99th-percentile per-node message load, when
    /// node stats were on.
    pub msg: Option<(u64, u64, u64)>,
    /// Deliver/compute/barrier wall deltas in ns, when traced.
    pub phase_ns: (u64, u64, u64),
    pub spans: SpanTree,
}

impl Run {
    pub fn setup_s(&self) -> f64 {
        self.create_s + self.run_setup_s
    }

    /// What must repeat exactly between runs of one input.
    pub fn fingerprint(&self) -> (u64, u64, &[EdgeId]) {
        (
            self.stats.rounds,
            self.stats.messages_delivered(),
            &self.edges,
        )
    }
}

/// What a construction returns, before the benchmark reads it.
enum Output {
    Tree(BfsTree),
    Edges(Vec<EdgeId>),
}

/// Edge id joining `v` to `p`.
fn edge_between(g: &Graph, v: NodeId, p: NodeId) -> EdgeId {
    g.neighbors(v)
        .iter()
        .find(|&&(u, _, _)| u == p)
        .map(|&(_, _, e)| e)
        .expect("tree edge exists in the graph")
}

/// Builds the workload's structure on `g` with a fresh engine.
pub fn construct(w: &Workload, input: &Input, observe: Observe) -> Run {
    let (g, root, seed) = (&input.g, input.root, input.seed);
    let setup0 = congest::plan::setup_wall_ns();
    let phase0 = congest::plan::phase_wall_ns();
    let start = Instant::now();
    let mut eng = Engine::with_threads(std::hint::black_box(g), w.threads);
    let create_s = start.elapsed().as_secs_f64();
    if observe != Observe::Off {
        eng.set_record_node_stats(true);
    }
    if observe == Observe::Traced {
        eng.set_time_phases(true);
    }
    // The BFS result stays a tree until the clock stops; turning it
    // into edge ids is the benchmark's work, not the program's.
    let body = |eng: &mut Engine| -> Output {
        let (tau, _) = obs::span(eng, "tau", |e| build_bfs_tree(e, root));
        match w.algo {
            Algo::Bfs => Output::Tree(tau),
            Algo::Slt => Output::Edges(obs::span(eng, "slt", |e| {
                lightnet::shallow_light_tree(e, &tau, root, EPS, seed).edges
            })),
            Algo::Spanner => Output::Edges(obs::span(eng, "spanner", |e| {
                lightnet::light_spanner(e, &tau, root, K, EPS, seed).edges
            })),
        }
    };
    let (out, spans) = if observe == Observe::Traced {
        obs::collect_spans(|| body(&mut eng))
    } else {
        (body(&mut eng), SpanTree::default())
    };
    let wall_s = start.elapsed().as_secs_f64();
    let (edges, height) = match std::hint::black_box(out) {
        Output::Tree(tau) => {
            let mut edges: Vec<EdgeId> = (0..g.n())
                .filter_map(|v| tau.parent[v].map(|p| edge_between(g, v, p)))
                .collect();
            edges.sort_unstable();
            (edges, Some(tau.height()))
        }
        Output::Edges(edges) => (edges, None),
    };
    let run_setup_s = (congest::plan::setup_wall_ns() - setup0) as f64 / 1e9;
    let phase1 = congest::plan::phase_wall_ns();
    let msg = Executor::node_stats(&eng).map(|ns| {
        let s = ns.summary();
        (s.msg_max, s.msg_p50, s.msg_p99)
    });
    Run {
        wall_s,
        create_s,
        run_setup_s,
        stats: eng.total(),
        frontier: eng.frontier_total(),
        edges,
        height,
        msg,
        phase_ns: (
            phase1.0 - phase0.0,
            phase1.1 - phase0.1,
            phase1.2 - phase0.2,
        ),
        spans,
    }
}

/// Output quality of one construction, and what it got wrong.
///
/// `invalid` holds structural faults — not a spanning tree, not a
/// subgraph, disconnected, not a BFS tree — which make the output
/// wrong. `missed` holds quality bounds of the paper the output exceeds
/// while still being the right kind of structure; such a construction
/// counts as a failed operation without making the output incorrect.
pub struct Certificate {
    /// `w(H) / w(MST)`.
    pub lightness: f64,
    /// The stretch the construction promises: hop stretch from the root
    /// for the BFS tree (height over the root's hop eccentricity),
    /// weighted root stretch for the SLT, sampled pairwise stretch for
    /// the spanner.
    pub stretch: f64,
    pub invalid: Vec<String>,
    pub missed: Vec<String>,
}

/// Checks `run`'s output on `input` against the paper's bounds.
pub fn certify(w: &Workload, input: &Input, run: &Run) -> Certificate {
    let (g, root, seed) = (&input.g, input.root, input.seed);
    let mut invalid = Vec::new();
    let mut missed = Vec::new();
    let in_range =
        run.edges.windows(2).all(|p| p[0] < p[1]) && run.edges.last().is_none_or(|&e| e < g.m());
    if !in_range {
        invalid.push(format!(
            "{}: output is not a set of edges of G",
            w.algo.theorem()
        ));
        return Certificate {
            lightness: f64::INFINITY,
            stretch: f64::INFINITY,
            invalid,
            missed,
        };
    }
    let h = g.edge_subgraph(run.edges.iter().copied());
    let lightness = metrics::lightness(g, &h);
    let tree = || mst::spanning_tree_weight(g, &run.edges).is_some();
    let stretch = match w.algo {
        Algo::Bfs => {
            let ecc = g.hop_eccentricity(root) as u64;
            let height = run.height.expect("BFS runs report their height");
            if !tree() {
                invalid.push("BFS tree (§2): output is not a spanning tree".to_owned());
            }
            if height != ecc {
                invalid.push(format!(
                    "BFS tree (§2): height {height} differs from the root's hop eccentricity {ecc}"
                ));
            }
            height as f64 / ecc.max(1) as f64
        }
        Algo::Slt => {
            let stretch = metrics::root_stretch(g, &h, root);
            if !tree() {
                invalid.push("Theorem 1: SLT output is not a spanning tree".to_owned());
            }
            if stretch > 1.0 + EPS {
                missed.push(format!(
                    "Lemma 4: SLT root stretch {stretch} exceeds 1+ε = {}",
                    1.0 + EPS
                ));
            }
            if lightness > 1.0 + 4.0 / EPS {
                missed.push(format!(
                    "Corollary 3: SLT lightness {lightness} exceeds 1+4/ε = {}",
                    1.0 + 4.0 / EPS
                ));
            }
            stretch
        }
        Algo::Spanner => {
            let stretch = metrics::sampled_stretch(g, &h, STRETCH_SAMPLES, seed);
            if !h.is_connected() {
                invalid.push("Theorem 2: spanner is not connected".to_owned());
            }
            let bound = (2 * K - 1) as f64 * (1.0 + EPS);
            if stretch > bound {
                missed.push(format!(
                    "Theorem 2: spanner sampled stretch {stretch} exceeds (2k-1)(1+ε) = {bound}"
                ));
            }
            stretch
        }
    };
    Certificate {
        lightness,
        stretch,
        invalid,
        missed,
    }
}
