//! The in-process library workloads: one solver route each, called on
//! n = 2^14 instances through the public `c1p` API. The network layer
//! and the engine do no work here.

use crate::check::{check_order, check_witness};
use crate::ledger::{median, quantile, Report};
use crate::sys::{count_allocs, peak_rss_mb, process_cpu_ns};
use crate::{mix, Outcome};
use c1p::core_alg::stats::PHASE_NAMES;
use c1p::matrix::generate::{planted, planted_reject};
use c1p::matrix::Ensemble;
use c1p::{Config, SolveStats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Atom count of every route instance: the size every solver claim in
/// this repository has been measured at.
const N: usize = 1 << 14;
/// Distinct instances per round; a run repeats whole rounds. Solve
/// times differ widely between instances of one shape, so a seed's
/// figures need many instances to agree with another seed's.
const ROUND: usize = 20;
/// Set-up repetitions; `setup_s` reports their median.
const SETUPS: usize = 9;
/// Seed of the set-up call's instance. It is the same for every
/// `--seed`, so `setup_s` measures the program rather than which
/// instances a seed drew.
const SETUP_SEED: u64 = 0x5E70;

/// A solver route of the public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `c1p::solve` — the sequential divide-and-conquer solver.
    Dc,
    /// `c1p::solve_par` on a 2-thread pool.
    DcPar,
    /// `c1p::pqtree::solve` — the Booth–Lueker baseline.
    PqTree,
    /// `c1p::solve_certified` on planted rejects.
    Certify,
}

/// What one call answered.
enum Out {
    Order(Vec<u32>),
    Witness { rows: Vec<u32>, cols: Vec<u32> },
    NotC1p,
}

/// Per-call layer figures gathered in the traced pass.
#[derive(Default, Clone)]
struct Probe {
    /// Wall time of the route call alone, µs.
    wall_us: f64,
    stats: SolveStats,
    allocs: u64,
    alloc_bytes: u64,
    components_us: f64,
    verify_us: f64,
    cpu_us: f64,
    pq_reductions: u64,
    pq_nodes: u64,
    reject_solve_us: f64,
    extract_us: f64,
    witness_atoms: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct Calls {
    inst: Vec<usize>,
    wall_us: Vec<f64>,
    outs: Vec<Out>,
    probes: Vec<Probe>,
    /// This process's peak RSS after the first round, MB.
    rss_mb: f64,
}

/// Calls `call` on instances `0..ROUND` in whole rounds until `seconds`
/// have passed. Peak RSS is read after the first round, which has met
/// every instance, so it does not grow with the answers kept for the
/// checks.
fn window(seconds: f64, mut call: impl FnMut(usize) -> (Out, Probe)) -> Result<Calls, String> {
    let mut c = Calls { inst: vec![], wall_us: vec![], outs: vec![], probes: vec![], rss_mb: 0.0 };
    let t_start = Instant::now();
    loop {
        for i in 0..ROUND {
            let t0 = Instant::now();
            let (out, probe) = call(i);
            let wall = us(t0.elapsed());
            c.inst.push(i);
            c.wall_us.push(if probe.wall_us > 0.0 { probe.wall_us } else { wall });
            c.outs.push(out);
            c.probes.push(probe);
        }
        if c.inst.len() == ROUND {
            c.rss_mb = peak_rss_mb("self")?;
        }
        if t_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(c)
}

fn order_or_reject<E>(r: Result<Vec<u32>, E>) -> Out {
    r.map_or(Out::NotC1p, Out::Order)
}

/// Runs one route workload; with `traced`, a second, traced window
/// follows the untraced one and the report holds the per-layer figures.
pub fn run(route: Route, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let insts: Vec<Ensemble> = (0..ROUND as u64)
        .map(|i| {
            let s = mix(seed, i);
            if route == Route::Certify {
                // `planted_reject` picks the Tucker family by `seed % 5`:
                // every round holds each family equally often
                planted_reject(N, s - s % 5 + i % 5).0
            } else {
                planted(N, s)
            }
        })
        .collect();
    let cfg = Config::default();

    // set-up: the pool (dc_par) plus one warm-up call on a fixed instance
    let warm = match route {
        Route::Certify => planted_reject(N, SETUP_SEED).0,
        _ => planted(N, SETUP_SEED),
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pool = None;
    for _ in 0..SETUPS {
        drop(pool.take());
        let t0 = Instant::now();
        if route == Route::DcPar {
            pool = Some(c1p::pram::pool(2));
        }
        let ens = &warm;
        match route {
            Route::Dc => drop(black_box(c1p::solve(ens))),
            Route::DcPar => {
                drop(black_box(pool.as_ref().expect("pool").install(|| c1p::solve_par(ens))))
            }
            Route::PqTree => drop(black_box(c1p::pqtree::solve(N, ens.columns()))),
            Route::Certify => drop(black_box(c1p::solve_certified(ens))),
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let par = |f: &mut dyn FnMut() -> (Result<Vec<u32>, c1p::Rejection>, SolveStats)| {
        pool.as_ref().expect("dc_par builds its pool in set-up").install(f)
    };

    let plain = window(seconds, |i| {
        let ens = black_box(&insts[i]);
        let out = match route {
            Route::Dc => order_or_reject(c1p::solve(ens)),
            Route::DcPar => order_or_reject(par(&mut || c1p::solve_par(ens)).0),
            Route::PqTree => c1p::pqtree::solve(N, ens.columns()).map_or(Out::NotC1p, Out::Order),
            Route::Certify => match c1p::solve_certified(ens) {
                Ok(order) => Out::Order(order),
                Err(c) => Out::Witness { rows: c.witness.atom_rows, cols: c.witness.column_ids },
            },
        };
        (black_box(out), Probe::default())
    })?;
    let mut report = Report::default();
    let mut attempted = plain.outs.len() as u64;
    let mut failed = check(route, &insts, &plain);

    report.set("setup_s", median(&setups), "s");
    report.set("latency_p50_us", median(&plain.wall_us), "us");
    report.set("latency_p99_us", quantile(&plain.wall_us, 0.99), "us");
    // calls per second over a round made of each instance's median call
    let round_us: f64 = (0..ROUND)
        .map(|i| {
            let walls: Vec<f64> =
                plain.inst.iter().zip(&plain.wall_us).filter(|c| *c.0 == i).map(|c| *c.1).collect();
            median(&walls)
        })
        .sum();
    report.set("throughput_ops", ROUND as f64 * 1e6 / round_us, "1/s");
    report.set("peak_rss_mb", plain.rss_mb, "MB");
    if !traced {
        return Ok(Outcome { report, attempted, failed });
    }

    let traced_calls = window(seconds, |i| {
        let ens = black_box(&insts[i]);
        let mut p = Probe::default();
        let out = match route {
            Route::Dc => {
                let ((res, st, wall), allocs, bytes) = count_allocs(|| {
                    let t0 = Instant::now();
                    let (res, st) = c1p::solve_with(ens, &cfg);
                    (res, st, t0.elapsed())
                });
                (p.wall_us, p.stats, p.allocs, p.alloc_bytes) = (us(wall), st, allocs, bytes);
                let t0 = Instant::now();
                black_box(ens.components());
                p.components_us = us(t0.elapsed());
                if let Ok(order) = &res {
                    let t0 = Instant::now();
                    black_box(c1p::matrix::verify_linear(ens, order)).ok();
                    p.verify_us = us(t0.elapsed());
                }
                order_or_reject(res)
            }
            Route::DcPar => {
                let (cpu0, t0) = (process_cpu_ns(), Instant::now());
                let (res, st) = par(&mut || c1p::solve_par_with(ens, &cfg));
                p.wall_us = us(t0.elapsed());
                p.cpu_us = (process_cpu_ns() - cpu0) as f64 / 1e3;
                p.stats = st;
                order_or_reject(res)
            }
            Route::PqTree => {
                let t0 = Instant::now();
                let (res, st) = c1p::pqtree::solve_with_stats(N, ens.columns());
                p.wall_us = us(t0.elapsed());
                (p.pq_reductions, p.pq_nodes) = (st.reductions as u64, st.nodes_allocated as u64);
                res.map_or(Out::NotC1p, Out::Order)
            }
            Route::Certify => {
                let t0 = Instant::now();
                let (res, st) = c1p::solve_with(ens, &cfg);
                p.reject_solve_us = us(t0.elapsed());
                p.stats = st;
                match res {
                    Ok(order) => Out::Order(order),
                    Err(rej) => {
                        let t1 = Instant::now();
                        let cert = c1p::certify_rejection(ens, rej);
                        p.extract_us = us(t1.elapsed());
                        p.wall_us = p.reject_solve_us + p.extract_us;
                        p.witness_atoms = cert.witness.atom_rows.len() as u64;
                        Out::Witness { rows: cert.witness.atom_rows, cols: cert.witness.column_ids }
                    }
                }
            }
        };
        (black_box(out), p)
    })?;
    attempted += traced_calls.outs.len() as u64;
    failed += check(route, &insts, &traced_calls);
    layers(route, &plain, &traced_calls, &mut report);
    Ok(Outcome { report, attempted, failed })
}

/// The `bulk` workload: the four routes in turn on the seed's instances,
/// each for a quarter of the window. One operation is one instance
/// through all four routes, so `latency_p50_us` is the sum of the
/// routes' medians, `throughput_ops` the operations per second over
/// that sum, and `setup_s` the sum of their set-ups (the pool plus a
/// warm-up call per route). Each route's median is printed with the
/// per-layer figures as `route.<route>_us`; where two routes measure
/// the same layer, the first route's figure is kept (`dc` before
/// `dc_par` for `core.*`).
pub fn run_bulk(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let routes = [
        (Route::Dc, "dc"),
        (Route::DcPar, "dc_par"),
        (Route::PqTree, "pqtree"),
        (Route::Certify, "certify"),
    ];
    let mut report = Report::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut sums = [0.0; 5];
    let mut rss_mb: f64 = 0.0;
    for (route, name) in routes {
        let o = run(route, seed, seconds / routes.len() as f64, traced)?;
        attempted += o.attempted;
        failed += o.failed;
        let get = |k: &str| o.report.get(k).unwrap_or(0.0);
        let latency = get("latency_p50_us");
        for (sum, v) in sums.iter_mut().zip([
            get("setup_s"),
            latency,
            1.0 / get("throughput_ops"),
            get("latency_p99_us"),
            get("trace.overhead_us"),
        ]) {
            *sum += v;
        }
        rss_mb = rss_mb.max(get("peak_rss_mb"));
        if traced {
            report.set(format!("route.{name}_us"), latency, "us");
            report.fill_from(&o.report);
        }
    }
    let [setup_s, latency_us, op_s, p99_us, overhead_us] = sums;
    report.set("setup_s", setup_s, "s");
    report.set("latency_p50_us", latency_us, "us");
    report.set("throughput_ops", 1.0 / op_s, "1/s");
    report.set("peak_rss_mb", rss_mb, "MB");
    if traced {
        report.set("latency_p99_us", p99_us, "us");
        report.set("trace.overhead_us", overhead_us, "us");
    }
    Ok(Outcome { report, attempted, failed })
}

/// Checks every call's answer after the window: orders with the
/// independent consecutive-ones test, witnesses by brute force, verdicts
/// against the generator (planted accepts accept, planted rejects
/// reject), and `solve_par` against `solve`. Returns the failed calls.
fn check(route: Route, insts: &[Ensemble], calls: &Calls) -> u64 {
    let reference: Vec<Option<Vec<u32>>> = match route {
        Route::DcPar => insts.iter().map(|e| c1p::solve(e).ok()).collect(),
        _ => vec![None; insts.len()],
    };
    let mut failed = 0;
    for (k, (&i, out)) in calls.inst.iter().zip(&calls.outs).enumerate() {
        let ens = &insts[i];
        let verdict = match (route, out) {
            (Route::Certify, Out::Witness { rows, cols }) => {
                let columns: Vec<&[u32]> = ens.columns().iter().map(Vec::as_slice).collect();
                check_witness(N, &columns, rows, cols).map(drop)
            }
            (Route::Certify, _) => Err("planted reject was not rejected".to_string()),
            (_, Out::Order(order)) => {
                check_order(N, ens.columns().iter().map(Vec::as_slice), order).and_then(|()| {
                    match &reference[i] {
                        Some(seq) if seq != order => {
                            Err("solve_par order differs from solve".to_string())
                        }
                        _ => Ok(()),
                    }
                })
            }
            (_, _) => Err("planted accept was not accepted".to_string()),
        };
        if let Err(e) = verdict {
            eprintln!("perfbench: call {k} on instance {i}: {e}");
            failed += 1;
        }
    }
    failed
}

/// The per-layer figures of a traced route run. Counts are per call,
/// averaged over the first round, which visits each instance once, so
/// they repeat exactly for a seed however long the run is.
fn layers(route: Route, plain: &Calls, t: &Calls, r: &mut Report) {
    let first = &t.probes[..ROUND];
    let per_call = |f: &dyn Fn(&Probe) -> f64| first.iter().map(f).sum::<f64>() / ROUND as f64;
    let med = |f: &dyn Fn(&Probe) -> f64| median(&t.probes.iter().map(f).collect::<Vec<_>>());
    let phases_us = |p: &Probe| p.stats.phase_ns.iter().sum::<u64>() as f64 / 1e3;
    r.set("trace.overhead_us", median(&t.wall_us) - median(&plain.wall_us), "us");

    if matches!(route, Route::Dc | Route::DcPar) {
        for (ph, name) in PHASE_NAMES.iter().enumerate() {
            r.set(format!("core.{name}_us"), med(&|p| p.stats.phase_ns[ph] as f64 / 1e3), "us");
        }
        type Count = (&'static str, fn(&SolveStats) -> usize);
        let counts: [Count; 7] = [
            ("subproblems", |s| s.subproblems),
            ("decompositions", |s| s.decompositions),
            ("members", |s| s.members),
            ("case2", |s| s.case2),
            ("fast_merges", |s| s.fast_merges),
            ("bitmat_divides", |s| s.bitmat_divides),
            ("csr_divides", |s| s.csr_divides),
        ];
        for (name, f) in counts {
            r.set(format!("core.{name}"), per_call(&|p| f(&p.stats) as f64), "count");
        }
    }
    match route {
        Route::Dc => {
            r.set("core.allocs", per_call(&|p| p.allocs as f64), "count");
            r.set("core.alloc_mb", per_call(&|p| p.alloc_bytes as f64 / 1e6), "MB");
            r.set("matrix.components_us", med(&|p| p.components_us), "us");
            r.set("matrix.verify_linear_us", med(&|p| p.verify_us), "us");
            let explained = |p: &Probe| phases_us(p) + p.components_us + p.verify_us;
            r.set("core.unattributed_us", med(&|p| p.wall_us - explained(p)), "us");
            r.set("trace.attributed_share", med(&|p| explained(p) / p.wall_us), "ratio");
        }
        Route::DcPar => {
            let (cpu, wall): (f64, f64) =
                t.probes.iter().fold((0.0, 0.0), |(c, w), p| (c + p.cpu_us, w + p.wall_us));
            r.set("par.cpu_per_wall", cpu / wall, "ratio");
            r.set("pram.work", per_call(&|p| p.stats.cost.work as f64), "count");
            r.set("pram.depth", per_call(&|p| p.stats.cost.depth as f64), "count");
            // phase times are summed over both threads here: share of CPU
            r.set("trace.attributed_share", med(&|p| phases_us(p) / p.cpu_us), "ratio");
        }
        Route::PqTree => {
            r.set("pqtree.reductions", per_call(&|p| p.pq_reductions as f64), "count");
            r.set("pqtree.nodes_allocated", per_call(&|p| p.pq_nodes as f64), "count");
            r.set(
                "pqtree.ns_per_reduction",
                med(&|p| p.wall_us * 1e3 / p.pq_reductions.max(1) as f64),
                "ns",
            );
        }
        Route::Certify => {
            r.set("cert.reject_solve_us", med(&|p| p.reject_solve_us), "us");
            r.set("cert.extract_us", med(&|p| p.extract_us), "us");
            r.set("cert.witness_atoms", per_call(&|p| p.witness_atoms as f64), "count");
            r.set(
                "trace.attributed_share",
                med(&|p| (phases_us(p) + p.extract_us) / p.wall_us),
                "ratio",
            );
        }
    }
}
