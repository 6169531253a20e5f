//! End-to-end benchmark of the light-network constructions.
//!
//! ```text
//! lightbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop: it generates the
//! workload's input graphs from `--seed` (timed as `lightgraph.gen_s`,
//! outside every other metric), then builds the structure on a fresh
//! engine, one construction at a time and one input after another,
//! until `--seconds` have passed, every input was built and at least
//! [`MIN_TIMED`] constructions ran. These timed runs have all
//! observation off — no node stats, no phase timing, no spans — because
//! observation changes the wall time it would measure.
//!
//! After the clock stops the benchmark checks every output against the
//! paper's bounds (see `workload::certify`) and that repeated runs of
//! one input produced the same rounds, deliveries and edge set. With
//! `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
//! makes one traced construction on the first input — and on a
//! multi-thread workload a single-thread reference, which must match it
//! exactly — and reports the per-layer metrics. LEDGER.md lists them.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `failed / attempted` is the share of constructions that failed a
//! check; `correct` is false when an output was wrong rather than short
//! of a quality bound. Each failure is named on standard error.

mod layers;
mod workload;

use layers::Metric;
use std::time::{Duration, Instant};
use workload::{certify, construct, Certificate, Observe, Run, Workload};

/// Fewest timed constructions per process, whatever `--seconds` says.
const MIN_TIMED: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};
    /// `struct rusage` on LP64 Linux: two `timeval`s (two `long`s
    /// each), then fourteen `long`s starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out like the C
    // `struct rusage`, and `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// Constructions attempted and failed, and whether every output was
/// correct.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    /// Counts one construction: it fails if anything is `wrong` (which
    /// also makes the result incorrect) or it `missed` a quality bound.
    fn count(&mut self, wrong: &[String], missed: &[String]) {
        self.attempted += 1;
        self.correct &= wrong.is_empty();
        if !wrong.is_empty() || !missed.is_empty() {
            self.failed += 1;
        }
        for r in wrong {
            eprintln!("lightbench: FAILED (incorrect) {r}");
        }
        for r in missed {
            eprintln!("lightbench: FAILED (bound missed) {r}");
        }
    }
}

/// Why `run` differs from `reference`, if it does.
fn mismatch(clause: &str, reference: &Run, run: &Run) -> Vec<String> {
    if reference.fingerprint() == run.fingerprint() {
        return Vec::new();
    }
    vec![format!(
        "determinism ({clause}): rounds/delivered {}/{} and {} edges, against {}/{} and {} edges",
        run.stats.rounds,
        run.stats.messages_delivered(),
        run.edges.len(),
        reference.stats.rounds,
        reference.stats.messages_delivered(),
        reference.edges.len(),
    )]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no infinity; only a failed output check yields one.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The timed runs on one input: the first kept whole, the rest only
/// as times, each checked against the first.
struct Timed {
    first: Run,
    walls: Vec<f64>,
    setups: Vec<f64>,
    repeats: Vec<Vec<String>>,
}

impl Timed {
    fn new(first: Run) -> Timed {
        Timed {
            walls: vec![first.wall_s],
            setups: vec![first.setup_s()],
            repeats: Vec::new(),
            first,
        }
    }

    fn add(&mut self, run: Run) {
        self.walls.push(run.wall_s);
        self.setups.push(run.setup_s());
        self.repeats
            .push(mismatch("timed runs of one input", &self.first, &run));
    }
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len() as f64;
    xs.sum::<f64>() / n
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lightbench: {e}");
            eprintln!("usage: lightbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;

    let t = Instant::now();
    let inputs = w.generate(args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    for input in &inputs {
        eprintln!(
            "lightbench: {} input seed {}: n={} m={} root={}",
            w.name,
            input.seed,
            input.g.n(),
            input.g.m(),
            input.root
        );
    }
    eprintln!("lightbench: generated in {gen_s:.2}s");

    // Timed closed loop over the inputs in turn: every input at least
    // once, at least MIN_TIMED runs, and until the budget is spent.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    for i in 0.. {
        if i >= inputs.len() && i >= MIN_TIMED && start.elapsed() >= budget {
            break;
        }
        let k = i % inputs.len();
        let run = construct(&w, &inputs[k], Observe::Off);
        match timed.get_mut(k) {
            Some(t) => t.add(run),
            None => timed.push(Timed::new(run)),
        }
    }
    let peak_rss_mb = peak_rss_mb();
    for t in &timed {
        eprintln!(
            "lightbench: timed walls {:?} s",
            t.walls
                .iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
        );
    }

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let t = Instant::now();
    let certs: Vec<Certificate> = inputs
        .iter()
        .zip(&timed)
        .map(|(input, t)| certify(&w, input, &t.first))
        .collect();
    let certify_s = t.elapsed().as_secs_f64();
    for (t, cert) in timed.iter().zip(&certs) {
        tally.count(&cert.invalid, &cert.missed);
        for r in &t.repeats {
            // An identical output inherits the first run's verdict.
            if r.is_empty() {
                tally.count(&cert.invalid, &cert.missed);
            } else {
                tally.count(r, &[]);
            }
        }
    }

    // Input 0 carries the observed runs: the traced construction and,
    // on a multi-thread workload, a single-thread reference that must
    // match it exactly, `msg_max` included.
    let traced = args.trace.then(|| {
        let traced = construct(&w, &inputs[0], Observe::Traced);
        let (a, b) = (timed[0].first.stats, traced.stats);
        let mut reasons = Vec::new();
        if (a.rounds, a.messages_delivered()) != (b.rounds, b.messages_delivered()) {
            reasons.push(format!(
                "determinism (clause 8, observer neutrality): traced run has rounds/delivered \
                 {}/{}, timed runs {}/{}",
                b.rounds,
                b.messages_delivered(),
                a.rounds,
                a.messages_delivered()
            ));
        }
        tally.count(&reasons, &[]);
        eprint!("{}", traced.spans.render());
        if w.threads > 1 {
            let single = Workload { threads: 1, ..w };
            let reference = construct(&single, &inputs[0], Observe::NodeStats);
            let mut reasons = mismatch("clause 9, thread-count invariance", &reference, &traced);
            let (got, want) = (traced.msg.map(|m| m.0), reference.msg.map(|m| m.0));
            if got != want {
                reasons.push(format!(
                    "determinism (clause 9, thread-count invariance): msg_max {got:?} at {} \
                     threads, {want:?} at 1 thread",
                    w.threads,
                ));
            }
            tally.count(&reasons, &[]);
        }
        traced
    });

    let metrics = match &traced {
        Some(traced) => layers::per_layer(traced, median(timed[0].walls.clone()), gen_s, certify_s),
        None => {
            let metric = |name: &str, unit: &'static str, value: f64| Metric {
                name: name.to_owned(),
                unit,
                value,
            };
            let per_input = |f: &dyn Fn(&Timed) -> f64| mean(timed.iter().map(f));
            vec![
                metric("wall_s", "s", per_input(&|t| median(t.walls.clone()))),
                metric("setup_s", "s", per_input(&|t| median(t.setups.clone()))),
                metric(
                    "rounds",
                    "rounds",
                    per_input(&|t| t.first.stats.rounds as f64),
                ),
                metric(
                    "messages_delivered",
                    "messages",
                    per_input(&|t| t.first.stats.messages_delivered() as f64),
                ),
                metric("peak_rss_mb", "MB", peak_rss_mb),
                metric(
                    "lightness",
                    "ratio",
                    mean(certs.iter().map(|c| c.lightness)),
                ),
                metric("stretch", "ratio", mean(certs.iter().map(|c| c.stretch))),
            ]
        }
    };

    for m in &metrics {
        eprintln!("lightbench: {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
}
