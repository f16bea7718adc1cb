//! `perfbench` — the c1p benchmark: solver routes called in-process and
//! `c1pd` served over loopback, every output checked after the timed
//! window.
//!
//! ```text
//! perfbench --workload <bulk|dc|dc_par|pqtree|certify|serve|sessions> --seed N
//!           --seconds S --trace <0|1> --c1pd PATH --work-dir DIR
//! ```
//!
//! With `--trace 0` the last stdout line is the JSON result with every
//! end-to-end metric; with `--trace 1` a second, traced pass follows and
//! the result holds every per-layer metric, after a table that names the
//! end-to-end metric each one should move. `perfbench/run.py` builds the
//! program and this binary and is the command to run.

mod check;
mod ledger;
mod route;
mod serve;
mod sys;

use ledger::Report;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: sys::Counting = sys::Counting;

/// What one run measured: its metrics and its operation tally.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
}

/// A derived seed: SplitMix64 of `seed` and a stream index.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x632B_E59B_D9B4_E019);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// End-to-end metrics, printed by every untraced run: name, unit.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("latency_p50_us", "us"), ("throughput_ops", "1/s"), ("peak_rss_mb", "MB")];

const ROUTES: &str = "bulk, dc, dc_par, pqtree, certify";
const SERVED: &str = "serve, sessions";

/// Per-layer metrics, printed by every traced run: name, unit, the
/// end-to-end metric it should move, and the workloads that measure it.
/// A workload that does not measure a layer reports 0 for it.
const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("latency_p99_us", "us", "itself: the tail, too unsteady between runs to gate", "all"),
    ("route.dc_us", "us", "latency_p50_us of bulk: median c1p::solve call", "bulk"),
    ("route.dc_par_us", "us", "latency_p50_us of bulk: median c1p::solve_par call", "bulk"),
    ("route.pqtree_us", "us", "latency_p50_us of bulk: median c1p::pqtree::solve call", "bulk"),
    ("route.certify_us", "us", "latency_p50_us of bulk: median c1p::solve_certified call", "bulk"),
    (
        "core.partition_us",
        "us",
        "route.dc_us, route.dc_par_us of bulk; latency_p50_us of serve via engine.solve_us",
        "bulk, serve",
    ),
    (
        "core.prepare_us",
        "us",
        "route.dc_us, route.dc_par_us of bulk; latency_p50_us of serve via engine.solve_us",
        "bulk, serve",
    ),
    (
        "core.bitmat_us",
        "us",
        "route.dc_us, route.dc_par_us of bulk; latency_p50_us of serve via engine.solve_us",
        "bulk, serve",
    ),
    (
        "core.decompose_us",
        "us",
        "route.dc_us, route.dc_par_us of bulk; latency_p50_us of serve via engine.solve_us",
        "bulk, serve",
    ),
    (
        "core.align_us",
        "us",
        "route.dc_us, route.dc_par_us of bulk; latency_p50_us of serve via engine.solve_us",
        "bulk, serve",
    ),
    (
        "core.merge_us",
        "us",
        "route.dc_us, route.dc_par_us of bulk; latency_p50_us of serve via engine.solve_us",
        "bulk, serve",
    ),
    ("core.unattributed_us", "us", "route.dc_us of bulk", "bulk"),
    ("core.subproblems", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.decompositions", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.members", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.case2", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.fast_merges", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.bitmat_divides", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.csr_divides", "count", "route.dc_us, route.dc_par_us of bulk", "bulk"),
    ("core.allocs", "count", "route.dc_us of bulk", "bulk"),
    ("core.alloc_mb", "MB", "route.dc_us of bulk", "bulk"),
    ("matrix.components_us", "us", "route.dc_us of bulk", "bulk"),
    ("matrix.verify_linear_us", "us", "route.dc_us of bulk", "bulk"),
    ("par.cpu_per_wall", "ratio", "route.dc_par_us of bulk", "bulk"),
    ("pram.work", "count", "route.dc_par_us of bulk", "bulk"),
    ("pram.depth", "count", "route.dc_par_us of bulk", "bulk"),
    ("pqtree.reductions", "count", "route.pqtree_us of bulk", "bulk"),
    ("pqtree.nodes_allocated", "count", "route.pqtree_us of bulk", "bulk"),
    ("pqtree.ns_per_reduction", "ns", "route.pqtree_us of bulk", "bulk"),
    ("cert.reject_solve_us", "us", "route.certify_us of bulk; latency_p99_us of serve", "bulk"),
    ("cert.extract_us", "us", "route.certify_us of bulk; latency_p99_us of serve", "bulk"),
    ("cert.witness_atoms", "count", "route.certify_us of bulk", "bulk"),
    ("net.decode_us.p50", "us", "latency_p50_us, throughput_ops of serve, sessions", SERVED),
    ("net.decode_us.p99", "us", "latency_p99_us of serve, sessions", SERVED),
    ("net.admission_us.p50", "us", "latency_p50_us, throughput_ops of serve, sessions", SERVED),
    ("net.admission_us.p99", "us", "latency_p99_us of serve, sessions", SERVED),
    ("net.flush_us.p50", "us", "latency_p50_us, throughput_ops of serve, sessions", SERVED),
    ("net.flush_us.p99", "us", "latency_p99_us of serve, sessions", SERVED),
    ("net.wire_us.p50", "us", "latency_p50_us, throughput_ops of serve, sessions", SERVED),
    ("net.wire_us.p99", "us", "latency_p99_us of serve, sessions", SERVED),
    ("engine.queue_us.p50", "us", "latency_p50_us, throughput_ops of serve", SERVED),
    ("engine.queue_us.p99", "us", "latency_p99_us of serve", SERVED),
    ("engine.mailbox_us.p50", "us", "latency_p50_us, throughput_ops of serve", SERVED),
    ("engine.mailbox_us.p99", "us", "latency_p99_us of serve", SERVED),
    ("engine.cache_us.p50", "us", "latency_p50_us, throughput_ops of serve", SERVED),
    ("engine.cache_us.p99", "us", "latency_p99_us of serve", SERVED),
    ("engine.solve_us.p50", "us", "latency_p50_us of serve, sessions", SERVED),
    ("engine.solve_us.p99", "us", "latency_p99_us of serve, sessions", SERVED),
    ("engine.wal_us.p50", "us", "latency_p50_us of sessions", "sessions, serve"),
    ("engine.wal_us.p99", "us", "latency_p99_us of sessions", "sessions, serve"),
    ("engine.hit_ratio", "ratio", "latency_p50_us, throughput_ops of serve", SERVED),
    ("engine.batch_size", "count", "throughput_ops of serve", SERVED),
    ("engine.coalesced", "count", "throughput_ops of serve", SERVED),
    ("engine.wal_fsyncs", "count", "latency_p50_us of sessions", "sessions, serve"),
    ("incremental.push_us", "us", "latency_p50_us of sessions", "sessions, serve"),
    ("incremental.atoms_resolved", "count", "latency_p50_us of sessions", "sessions, serve"),
    ("incremental.components_resolved", "count", "latency_p50_us of sessions", "sessions, serve"),
    (
        "trace.attributed_share",
        "ratio",
        "none: share of latency the ledger explains",
        "all but pqtree",
    ),
    ("trace.overhead_us", "us", "none: traced minus untraced latency_p50_us", "all"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    c1pd: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == name).ok_or(format!("{name} is required"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{name} takes a value"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|_| format!("{name} takes a whole number"))
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        c1pd: PathBuf::from(get("--c1pd")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn run(a: &Args) -> Result<Outcome, String> {
    use route::Route;
    use serve::Mode;
    let (seed, secs, t) = (a.seed, a.seconds, a.trace);
    match a.workload.as_str() {
        "bulk" => route::run_bulk(seed, secs, t),
        "dc" => route::run(Route::Dc, seed, secs, t),
        "dc_par" => route::run(Route::DcPar, seed, secs, t),
        "pqtree" => route::run(Route::PqTree, seed, secs, t),
        "certify" => route::run(Route::Certify, seed, secs, t),
        "serve" => serve::run(Mode::Serve, &a.c1pd, &a.work_dir, seed, secs, t),
        "sessions" => serve::run(Mode::Sessions, &a.c1pd, &a.work_dir, seed, secs, t),
        other => Err(format!("unknown workload {other:?} (one of {ROUTES}, {SERVED})")),
    }
}

fn main() {
    let outcome = parse_args().and_then(|a| run(&a).map(|o| (a, o)));
    let (args, o) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut out = Report::default();
    if args.trace {
        println!("per-layer ledger of {} (seed {}):", args.workload, args.seed);
        for &(name, unit, moves, measured_on) in PER_LAYER {
            let v = o.report.get(name).unwrap_or(0.0);
            println!("  {name:<32} {v:>14.3} {unit:<6} moves {moves} [measured on {measured_on}]");
            out.set(name, v, unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = o.report.get(name).expect("every workload reports every end-to-end metric");
            println!("  {name:<16} {v:>14.3} {unit}");
            out.set(name, v, unit);
        }
    }
    println!("{}", out.json(o.attempted, o.failed));
}
