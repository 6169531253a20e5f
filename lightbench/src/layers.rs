//! Per-layer metrics of one traced construction.
//!
//! Layer names follow the crates: `engine` (executor), `congest`
//! (message model, BFS tree τ), `dist-mst` (Borůvka and Euler tour),
//! `dist-sssp` (approximate shortest-path trees), `lightnet` (the SLT
//! and spanner drivers) and `lightgraph` (generation and checking).
//! A layer that does not run on a workload reports 0. LEDGER.md maps
//! each metric to the end-to-end metric it should move.

use crate::workload::Run;
use congest::obs::{SpanNode, SpanTree};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Wall, rounds and deliveries charged to a group of spans.
#[derive(Clone, Copy, Default)]
struct Part {
    wall_ns: u64,
    rounds: u64,
    delivered: u64,
}

impl Part {
    fn of(node: &SpanNode) -> Part {
        Part {
            wall_ns: node.wall_ns,
            rounds: node.stats.rounds,
            delivered: node.delivered(),
        }
    }

    fn add(self, o: Part) -> Part {
        Part {
            wall_ns: self.wall_ns + o.wall_ns,
            rounds: self.rounds + o.rounds,
            delivered: self.delivered + o.delivered,
        }
    }

    /// `self` minus the parts of its children (saturating: a child run
    /// on a sub-executor may charge its parent after the span closes).
    fn minus(self, o: Part) -> Part {
        Part {
            wall_ns: self.wall_ns.saturating_sub(o.wall_ns),
            rounds: self.rounds.saturating_sub(o.rounds),
            delivered: self.delivered.saturating_sub(o.delivered),
        }
    }

    fn wall_s(self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// Sum over the outermost spans named in `names`, anywhere in `nodes`.
fn named(nodes: &[SpanNode], names: &[&str]) -> Part {
    nodes.iter().fold(Part::default(), |acc, n| {
        if names.contains(&n.name) {
            acc.add(Part::of(n))
        } else {
            acc.add(named(&n.children, names))
        }
    })
}

/// The sub-spans of the Euler tour; the spanner calls the tour without
/// an enclosing `tour` span.
const TOUR_PARTS: [&str; 4] = ["frag_tree", "reroot", "times", "indices"];

/// Per-layer metrics of `traced`, given the untraced median wall and
/// the benchmark's own generation and checking times.
pub fn per_layer(traced: &Run, untraced_wall_s: f64, gen_s: f64, certify_s: f64) -> Vec<Metric> {
    let spans: &SpanTree = &traced.spans;
    let root = |name: &str| spans.roots.iter().find(|n| n.name == name);
    let tau = named(&spans.roots, &["tau"]);
    let grow = named(&spans.roots, &["grow"]);
    let merge = named(&spans.roots, &["merge"]);
    let tour = match spans.find("tour") {
        Some(t) => Part::of(t),
        None => named(&spans.roots, &TOUR_PARTS),
    };
    let spt = named(&spans.roots, &["spt"]);
    let final_spt = named(&spans.roots, &["final_spt"]);
    let select = named(&spans.roots, &["bp1", "bp2", "mark"]);
    let slt_self = root("slt").map_or(Part::default(), |s| Part::of(s).minus(children_sum(s)));
    // On the spanner workload every MST and tour span sits inside it.
    let buckets = root("spanner").map_or(Part::default(), |s| {
        Part::of(s).minus(grow.add(merge).add(tour))
    });

    let (deliver_ns, compute_ns, barrier_ns) = traced.phase_ns;
    let stats = traced.stats;
    let delivered = stats.messages_delivered();
    let (msg_max, msg_p50, msg_p99) = traced.msg.expect("traced runs record node stats");
    // Everything the reported wall parts below leave uncovered.
    let covered = traced.create_s
        + tau.wall_s()
        + grow.wall_s()
        + merge.wall_s()
        + tour.wall_s()
        + spt.wall_s()
        + final_spt.wall_s()
        + select.wall_s()
        + slt_self.wall_s()
        + buckets.wall_s();

    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        })
    };
    put("engine.create_s", "s", traced.create_s);
    put("engine.setup_s", "s", traced.run_setup_s);
    put("engine.deliver_s", "s", deliver_ns as f64 / 1e9);
    put("engine.compute_s", "s", compute_ns as f64 / 1e9);
    put("engine.barrier_s", "s", barrier_ns as f64 / 1e9);
    put(
        "engine.ns_per_delivery",
        "ns",
        (deliver_ns + compute_ns) as f64 / delivered.max(1) as f64,
    );
    put(
        "engine.invocations",
        "count",
        traced.frontier.invocations as f64,
    );
    put("engine.active_mean", "nodes", traced.frontier.mean_active());
    put("congest.messages_sent", "messages", stats.messages as f64);
    put(
        "congest.messages_combined",
        "messages",
        stats.messages_combined as f64,
    );
    put(
        "congest.combine_ratio",
        "ratio",
        stats.messages_combined as f64 / stats.messages.max(1) as f64,
    );
    put("congest.msg_max", "messages", msg_max as f64);
    put("congest.msg_p50", "messages", msg_p50 as f64);
    put("congest.msg_p99", "messages", msg_p99 as f64);
    for (layer, part) in [
        ("congest.tau", tau),
        ("dist-mst.grow", grow),
        ("dist-mst.merge", merge),
        ("dist-mst.tour", tour),
        ("dist-sssp.spt", spt),
        ("dist-sssp.final_spt", final_spt),
        ("lightnet.slt_select", select),
    ] {
        put(&format!("{layer}.wall_s"), "s", part.wall_s());
        put(&format!("{layer}.rounds"), "rounds", part.rounds as f64);
        put(
            &format!("{layer}.delivered"),
            "messages",
            part.delivered as f64,
        );
    }
    put("lightnet.slt_self_s", "s", slt_self.wall_s());
    put("lightnet.spanner_buckets.wall_s", "s", buckets.wall_s());
    put(
        "lightnet.spanner_buckets.rounds",
        "rounds",
        buckets.rounds as f64,
    );
    put(
        "lightnet.spanner_buckets.delivered",
        "messages",
        buckets.delivered as f64,
    );
    put("lightgraph.gen_s", "s", gen_s);
    put("lightgraph.certify_s", "s", certify_s);
    put("trace.wall_s", "s", traced.wall_s);
    put("trace.overhead_s", "s", traced.wall_s - untraced_wall_s);
    put("trace.remainder_s", "s", traced.wall_s - covered);
    out
}

/// Sum of a span's direct children.
fn children_sum(node: &SpanNode) -> Part {
    node.children
        .iter()
        .fold(Part::default(), |acc, c| acc.add(Part::of(c)))
}
