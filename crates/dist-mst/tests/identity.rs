//! Pins the distributed MST's *output* bit for bit.
//!
//! Message-volume optimisations of the Borůvka construction (which
//! fragments take part in which pass, how the convergecasts signal
//! completion) must never change what it builds. Each case hashes every
//! output field of [`MstResult`] — MST edges, base fragments, fragment
//! views (parent and tree-neighbor order), external edges and both
//! phase counts — and compares the digest with a value recorded before
//! those optimisations, on both the sequential `Simulator` and the
//! parallel `Engine`. Round and message counts are deliberately left
//! out: they are what such optimisations are allowed to move.
//!
//! The inputs are large enough (n ≥ 600) that phase 1 runs for many
//! iterations with frozen fragments present.

use congest::tree::build_bfs_tree;
use congest::{Executor, Simulator};
use dist_mst::boruvka::{distributed_mst, MstResult};
use engine::Engine;
use lightgraph::{generators, Graph};

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

fn digest(r: &MstResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.seq(r.mst_edges.iter().map(|&e| e as u64));
    h.seq(r.base_fragment_of.iter().copied());
    h.word(r.base_views.len() as u64);
    for view in &r.base_views {
        h.word(view.parent.map_or(u64::MAX, |p| p as u64));
        h.seq(view.tree_neighbors.iter().map(|&u| u as u64));
    }
    h.seq(r.external_edges.iter().map(|&e| e as u64));
    h.word(r.phase1_iterations as u64);
    h.word(r.phase2_iterations as u64);
    h.0
}

fn mst_digest(exec: &mut impl Executor, seed: u64) -> u64 {
    let (tau, _) = build_bfs_tree(exec, 0);
    digest(&distributed_mst(exec, &tau, 0, seed))
}

/// `(family, n, seed, digest recorded before the message-volume cuts)`.
const CASES: [(&str, usize, u64, u64); 6] = [
    ("geometric", 600, 1, 0xc808_467a_c2b7_5653),
    ("geometric", 1200, 2, 0xe100_c293_a75f_4da4),
    ("geometric", 2500, 3, 0x543d_809f_dc54_54cb),
    ("geometric", 4000, 4, 0x9f80_7105_304a_4a75),
    ("gnp", 1000, 5, 0x9729_f362_13d1_a89b),
    ("gnp", 3000, 6, 0xc1a0_2fa2_f6c0_09a9),
];

fn graph(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "geometric" => {
            let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
            generators::random_geometric(n, radius, seed)
        }
        "gnp" => generators::gnp_sparse(n, 16.0 / n as f64, 1000, seed),
        other => unreachable!("unknown family {other}"),
    }
}

#[test]
fn mst_output_is_pinned_on_both_executors() {
    let mut drift = Vec::new();
    for (family, n, seed, want) in CASES {
        let g = graph(family, n, seed);
        let sim = mst_digest(&mut Simulator::new(&g), seed);
        let eng = mst_digest(&mut Engine::with_threads(&g, 2), seed);
        assert_eq!(sim, eng, "{family} n={n} seed={seed}: engines disagree");
        if sim != want {
            drift.push(format!(
                "{family} n={n} seed={seed}: {sim:#018x} != pinned {want:#018x}"
            ));
        }
    }
    assert!(drift.is_empty(), "MstResult drifted:\n{}", drift.join("\n"));
}
