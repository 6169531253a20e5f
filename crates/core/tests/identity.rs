//! Pins the outputs of the light-network constructions bit for bit.
//!
//! Message-volume optimisations — which vertices exchange cluster state
//! with whom, which neighbors a flood skips, how the interval sweeps
//! are built — must never change what a construction outputs. Each case
//! hashes every output field of one result except the run statistics
//! and compares the digest with a value recorded before those
//! optimisations, on both the sequential `Simulator` and the parallel
//! `Engine`. Round and message counts are deliberately left out: they
//! are what such optimisations are allowed to move.
//!
//! * [`LightSpannerResult`]: the edge set and both bucket counts. Every
//!   input is chosen so that at least one bucket runs the Case-2
//!   (interval-coordinated) simulation.
//! * `BfsTree`: parent, depth and children of every vertex.
//! * [`ApproxSpt`]: `dist` and `parent`, with the default adaptive
//!   landmark cutoff (on inputs that pass its probe and on inputs that
//!   run the full scheme) and with the forced-landmark ablation, whose
//!   output is timing-dependent (see its test).
//! * [`SltResult`]: the edge set and the break-point count.

use congest::tree::build_bfs_tree;
use congest::{Executor, Simulator};
use dist_sssp::landmark::{approx_spt, ApproxSpt, SptConfig};
use engine::Engine;
use lightgraph::{generators, Graph};
use lightnet::light_spanner::{light_spanner, LightSpannerResult};
use lightnet::slt::{shallow_light_tree, SltResult};

/// FNV-1a over 64-bit words: stable across platforms and toolchains,
/// unlike `std`'s default hasher.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed sequence, so field boundaries are unambiguous.
    fn seq(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn node(v: Option<usize>) -> u64 {
    v.map_or(u64::MAX, |v| v as u64)
}

fn graph(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "gnp" => generators::gnp_sparse(n, 8.0 / n as f64, 1000, seed),
        "geometric" => {
            let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
            generators::random_geometric(n, radius, seed)
        }
        // The regime the landmark scheme exists for: a light path whose
        // shortest paths run ~n hops, plus a hub of heavy shortcuts
        // keeping the hop diameter at 2. The adaptive probe truncates,
        // so the default configuration runs the full landmark scheme.
        "hubpath" => {
            let hub = n - 1;
            let mut g = Graph::new(n);
            for v in 1..hub {
                let w = 1 + (v as u64).wrapping_mul(seed.wrapping_mul(2) + 1) % 10;
                g.add_edge(v - 1, v, w).unwrap();
            }
            for v in 0..hub {
                g.add_edge(hub, v, 1_000_000).unwrap();
            }
            g
        }
        other => unreachable!("unknown family {other}"),
    }
}

/// Computes each case's digest on a `Simulator` and a 2-thread
/// `Engine`, asserts they agree, and fails once listing every digest
/// that drifted from its pin.
fn assert_pinned(
    what: &str,
    cases: &[(&str, usize, u64, u64)],
    digest_of: impl Fn(&Graph, u64) -> (u64, u64),
) {
    let mut drift = Vec::new();
    for &(family, n, seed, want) in cases {
        let (sim, eng) = digest_of(&graph(family, n, seed), seed);
        assert_eq!(
            sim, eng,
            "{what} {family} n={n} seed={seed}: engines disagree"
        );
        if sim != want {
            drift.push(format!(
                "{family} n={n} seed={seed}: {sim:#018x} != pinned {want:#018x}"
            ));
        }
    }
    assert!(drift.is_empty(), "{what} drifted:\n{}", drift.join("\n"));
}

/// Digest of one light spanner (k = 2, ε = 0.5, the scenario runner's
/// defaults), which must exercise at least one Case-2 bucket.
fn spanner_digest(exec: &mut impl Executor, seed: u64) -> u64 {
    let (tau, _) = build_bfs_tree(exec, 0);
    let r: LightSpannerResult = light_spanner(exec, &tau, 0, 2, 0.5, seed);
    assert!(
        r.case2_buckets > 0,
        "seed={seed}: no Case-2 bucket exercised"
    );
    let mut h = Fnv(FNV_OFFSET);
    h.seq(r.edges.iter().map(|&e| e as u64));
    h.word(r.case1_buckets as u64);
    h.word(r.case2_buckets as u64);
    h.0
}

fn bfs_digest(exec: &mut impl Executor) -> u64 {
    let (t, _) = build_bfs_tree(exec, 0);
    let mut h = Fnv(FNV_OFFSET);
    h.word(t.root as u64);
    h.seq(t.parent.iter().map(|&p| node(p)));
    h.seq(t.depth.iter().copied());
    for c in &t.children {
        h.seq(c.iter().map(|&u| u as u64));
    }
    h.0
}

fn spt_digest(exec: &mut impl Executor, cfg: &SptConfig) -> u64 {
    let (tau, _) = build_bfs_tree(exec, 0);
    let s: ApproxSpt = approx_spt(exec, &tau, 0, cfg);
    let mut h = Fnv(FNV_OFFSET);
    h.seq(s.dist.iter().copied());
    h.seq(s.parent.iter().map(|&p| node(p)));
    h.0
}

fn slt_digest(exec: &mut impl Executor, seed: u64) -> u64 {
    let (tau, _) = build_bfs_tree(exec, 0);
    let r: SltResult = shallow_light_tree(exec, &tau, 0, 0.5, seed);
    let mut h = Fnv(FNV_OFFSET);
    h.seq(r.edges.iter().map(|&e| e as u64));
    h.word(r.breakpoints as u64);
    h.0
}

#[test]
fn spanner_output_is_pinned_on_both_executors() {
    // Digests recorded before the Case-2 exchange was cut to E_i.
    const CASES: [(&str, usize, u64, u64); 5] = [
        ("gnp", 1000, 1, 0x4efc_6741_2584_de9e),
        ("gnp", 2000, 2, 0x3ffd_a258_8e0e_d174),
        ("gnp", 3000, 3, 0xd5b9_b84b_b77b_1c8f),
        ("geometric", 1000, 4, 0xe83c_749b_c049_43af),
        ("geometric", 2000, 5, 0xee25_e181_9e23_61b2),
    ];
    assert_pinned("LightSpannerResult", &CASES, |g, seed| {
        (
            spanner_digest(&mut Simulator::new(g), seed),
            spanner_digest(&mut Engine::with_threads(g, 2), seed),
        )
    });
}

#[test]
fn bfs_tree_is_pinned_on_both_executors() {
    const CASES: [(&str, usize, u64, u64); 3] = [
        ("geometric", 1000, 21, 0x97c0_d660_fd23_5ea6),
        ("geometric", 4000, 22, 0xfd76_9a96_5dff_7678),
        ("gnp", 2000, 23, 0xfa94_51fe_f361_6f0e),
    ];
    assert_pinned("BfsTree", &CASES, |g, _| {
        (
            bfs_digest(&mut Simulator::new(g)),
            bfs_digest(&mut Engine::with_threads(g, 2)),
        )
    });
}

#[test]
fn approx_spt_is_pinned_on_both_executors() {
    // Default configuration: the geometric and G(n, p) inputs pass the
    // adaptive probe (a single-source exploration); the hub-path
    // inputs truncate it and run the full landmark scheme.
    const CASES: [(&str, usize, u64, u64); 4] = [
        ("geometric", 2000, 30, 0xf032_bdee_3b73_64a4),
        ("gnp", 2000, 32, 0xa35e_52ce_4ccf_1b90),
        ("hubpath", 1500, 34, 0xb55c_951d_330d_3e0b),
        ("hubpath", 800, 36, 0xbffd_4194_37ab_0371),
    ];
    assert_pinned("ApproxSpt", &CASES, |g, seed| {
        (
            spt_digest(&mut Simulator::new(g), &SptConfig::new(seed)),
            spt_digest(&mut Engine::with_threads(g, 2), &SptConfig::new(seed)),
        )
    });
}

/// The forced-landmark ablation (24 landmarks under a 6-hop budget)
/// truncates a multi-source exploration whose keys share edge queues.
/// Its output depends on queue timing — which update reaches a vertex
/// first decides the hop budget it forwards, and the combiner pairs
/// the minimum distance with the minimum hop count — so a change that
/// removes messages from those queues may move it, unlike every other
/// pin here. The geometric digest predates echo-free relaxation and
/// survived it; the `G(n, p)` digest was re-recorded when that change
/// moved 129 of its 1500 distances (all still `≥ d_G`).
#[test]
fn forced_landmark_spt_is_pinned_on_both_executors() {
    const CASES: [(&str, usize, u64, u64); 2] = [
        ("geometric", 2000, 31, 0x9db8_e615_95a4_c1da),
        ("gnp", 1500, 33, 0x9ef5_ddd0_38c7_88c3),
    ];
    let cfg = |seed| SptConfig {
        landmarks: Some(24),
        hop_bound: Some(6),
        ..SptConfig::new(seed)
    };
    assert_pinned("forced-landmark ApproxSpt", &CASES, |g, seed| {
        (
            spt_digest(&mut Simulator::new(g), &cfg(seed)),
            spt_digest(&mut Engine::with_threads(g, 2), &cfg(seed)),
        )
    });
}

#[test]
fn slt_output_is_pinned_on_both_executors() {
    const CASES: [(&str, usize, u64, u64); 3] = [
        ("geometric", 1000, 41, 0x6ae1_60bb_23bf_c974),
        ("geometric", 2500, 42, 0x2507_677a_3b9f_5c19),
        ("geometric", 4000, 43, 0x2990_068d_eea9_9f37),
    ];
    assert_pinned("SltResult", &CASES, |g, seed| {
        (
            slt_digest(&mut Simulator::new(g), seed),
            slt_digest(&mut Engine::with_threads(g, 2), seed),
        )
    });
}
