//! Pins the light spanner's *output* bit for bit.
//!
//! Message-volume optimisations of the Theorem 2 construction (which
//! vertices exchange cluster state with whom, how the interval sweeps
//! are built) must never change which edges it selects. Each case
//! hashes every output field of [`LightSpannerResult`] except the run
//! statistics — the edge set and both bucket counts — and compares the
//! digest with a value recorded before those optimisations, on both the
//! sequential `Simulator` and the parallel `Engine`. Round and message
//! counts are deliberately left out: they are what such optimisations
//! are allowed to move.
//!
//! Every input is chosen so that at least one bucket runs the Case-2
//! (interval-coordinated) simulation.

use congest::tree::build_bfs_tree;
use congest::{Executor, Simulator};
use engine::Engine;
use lightgraph::{generators, Graph};
use lightnet::light_spanner::{light_spanner, LightSpannerResult};

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

fn digest(r: &LightSpannerResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.seq(r.edges.iter().map(|&e| e as u64));
    h.word(r.case1_buckets as u64);
    h.word(r.case2_buckets as u64);
    h.0
}

/// `(digest, case2_buckets)` of one construction (k = 2, ε = 0.5, the
/// scenario runner's defaults).
fn spanner_digest(exec: &mut impl Executor, seed: u64) -> (u64, usize) {
    let (tau, _) = build_bfs_tree(exec, 0);
    let r = light_spanner(exec, &tau, 0, 2, 0.5, seed);
    (digest(&r), r.case2_buckets)
}

/// `(family, n, seed, digest recorded before the message-volume cuts)`.
const CASES: [(&str, usize, u64, u64); 5] = [
    ("gnp", 1000, 1, 0x4efc_6741_2584_de9e),
    ("gnp", 2000, 2, 0x3ffd_a258_8e0e_d174),
    ("gnp", 3000, 3, 0xd5b9_b84b_b77b_1c8f),
    ("geometric", 1000, 4, 0xe83c_749b_c049_43af),
    ("geometric", 2000, 5, 0xee25_e181_9e23_61b2),
];

fn graph(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "gnp" => generators::gnp_sparse(n, 8.0 / n as f64, 1000, seed),
        "geometric" => {
            let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
            generators::random_geometric(n, radius, seed)
        }
        other => unreachable!("unknown family {other}"),
    }
}

#[test]
fn spanner_output_is_pinned_on_both_executors() {
    let mut drift = Vec::new();
    for (family, n, seed, want) in CASES {
        let g = graph(family, n, seed);
        let (sim, case2) = spanner_digest(&mut Simulator::new(&g), seed);
        let (eng, _) = spanner_digest(&mut Engine::with_threads(&g, 2), seed);
        assert_eq!(sim, eng, "{family} n={n} seed={seed}: engines disagree");
        assert!(
            case2 > 0,
            "{family} n={n} seed={seed}: no Case-2 bucket exercised"
        );
        if sim != want {
            drift.push(format!(
                "{family} n={n} seed={seed}: {sim:#018x} != pinned {want:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "LightSpannerResult drifted:\n{}",
        drift.join("\n")
    );
}
