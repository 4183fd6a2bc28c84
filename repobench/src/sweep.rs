//! `engine_sweep`: the fig17–20 union plus a tile-timed slice through
//! `Engine::run_all` on a fresh 2-thread `Engine` (arm `a`, the cold
//! pass), then again on the same `Engine` (arm `b`, the memo-warm pass).
//! Latencies are per scenario: a pass's wall time over its scenario
//! count.
//!
//! The traced phase evaluates the same passes through the public pieces
//! `run_all` is made of — `Scenario::resolve_workloads`, then
//! `Engine::run_workloads`, then `EvalResult::to_json` — on two threads
//! of its own, timing each piece, and checks that its documents equal
//! the untraced ones. It then times `evaluate_layer_with` directly.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use procrustes_core::{Engine, EvalResult, Fidelity, Scenario};
use procrustes_sim::{evaluate_layer_with, LayerTask, Phase as SimPhase, SparsityInfo};

use crate::inputs::engine_sweep;
use crate::stats::{combine, ms_since, Outcome};

/// Worker threads of every `Engine` here.
const THREADS: usize = 2;
/// Times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;

/// Set-up: expands the sweep, then warms up by evaluating its first
/// dense and first sparse scenario on a throwaway `Engine`, so that
/// process-wide lazy costs (allocator growth, first page touches of
/// mask buffers) are paid before the first timed pass.
fn setup(seed: u64) -> Vec<Scenario> {
    let scenarios = engine_sweep(seed);
    let first = |dense: bool| {
        scenarios
            .iter()
            .find(|s| s.sparsity.is_dense() == dense)
            .expect("the sweep has dense and sparse scenarios")
            .clone()
    };
    let warm_up = [first(true), first(false)];
    // A failure here shows again, counted, in the measured passes.
    let _ = black_box(Engine::with_threads(THREADS).run_all(&warm_up));
    scenarios
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        scenarios = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let budget = if trace { seconds / 2.0 } else { seconds };
    let (plain, reference) = untraced(&scenarios, budget);
    let traced = trace.then(|| traced(&scenarios, budget, &reference));
    combine(&setup_s, plain, traced)
}

fn docs(results: &[EvalResult]) -> Vec<String> {
    results.iter().map(EvalResult::to_json).collect()
}

/// Counts one operation per scenario of a pass, failed where its
/// document differs from `reference`.
fn check_docs(out: &mut Outcome, docs: &[String], reference: &[String]) {
    for (i, doc) in docs.iter().enumerate() {
        out.check(reference.get(i) == Some(doc));
    }
}

/// The untraced phase, and the first cold pass's documents.
fn untraced(scenarios: &[Scenario], budget: f64) -> (Outcome, Vec<String>) {
    let mut out = Outcome::default();
    let n = scenarios.len() as f64;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut reference: Vec<String> = Vec::new();
    let start = Instant::now();
    loop {
        let engine = Engine::with_threads(THREADS);
        let t = Instant::now();
        let cold = engine.run_all(scenarios);
        let cold_ms = ms_since(t);
        let t = Instant::now();
        let warm = engine.run_all(scenarios);
        let warm_ms = ms_since(t);
        let (Ok(cold), Ok(warm)) = (cold, warm) else {
            // Every later pass would fail the same way.
            out.attempted += 2 * scenarios.len() as u64;
            out.failed += 2 * scenarios.len() as u64;
            break;
        };
        a.push(cold_ms / n);
        b.push(warm_ms / n);
        let cold = docs(&cold);
        if reference.is_empty() {
            reference.clone_from(&cold);
        }
        // Cold and warm passes, and every pass of the run, must agree
        // byte for byte.
        check_docs(&mut out, &cold, &reference);
        check_docs(&mut out, &docs(&warm), &reference);
        if start.elapsed() >= Duration::from_secs_f64(budget) {
            break;
        }
    }
    out.set_dist("a_ms.p50", "a_ms.tail", &a);
    out.set_dist("b_ms.p50", "b_ms.tail", &b);
    let busy_ms: f64 = a.iter().chain(&b).sum::<f64>() * n;
    out.set("ops_per_s", 2.0 * a.len() as f64 * n / (busy_ms / 1e3));
    (out, reference)
}

/// Per-scenario timings of one traced pass.
#[derive(Default)]
struct PassTimes {
    resolve_dense_ms: Vec<f64>,
    resolve_sparse_ms: Vec<f64>,
    run_workloads_ms: Vec<f64>,
    to_json_us: Vec<f64>,
    /// Layer × phase cost lookups the pass made.
    lookups: usize,
    docs: Vec<(usize, String)>,
    wall_ms: f64,
}

/// One pass over `scenarios` on `engine`, split the way `run_all`
/// splits it: two workers pulling scenario indices from a shared
/// counter.
fn traced_pass(engine: &Engine, scenarios: &[Scenario]) -> PassTimes {
    let next = AtomicUsize::new(0);
    let times = Mutex::new(PassTimes::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = scenarios.get(i) else {
                    break;
                };
                let t = Instant::now();
                let Ok(workloads) = scenario.resolve_workloads() else {
                    // No document: counted as a mismatch.
                    let mut times = times.lock().expect("no worker panics holding the lock");
                    times.docs.push((i, String::new()));
                    continue;
                };
                let resolve_ms = ms_since(t);
                let t = Instant::now();
                let cost = engine.run_workloads(
                    &scenario.network,
                    &scenario.arch,
                    scenario.mapping,
                    &workloads,
                    scenario.balance,
                    scenario.fidelity,
                );
                let run_ms = ms_since(t);
                let result = EvalResult {
                    scenario: scenario.clone(),
                    cost,
                };
                let t = Instant::now();
                let doc = result.to_json();
                let json_us = ms_since(t) * 1e3;
                let mut times = times.lock().expect("no worker panics holding the lock");
                if scenario.sparsity.is_dense() {
                    times.resolve_dense_ms.push(resolve_ms);
                } else {
                    times.resolve_sparse_ms.push(resolve_ms);
                }
                times.run_workloads_ms.push(run_ms);
                times.to_json_us.push(json_us);
                times.lookups += 3 * workloads.len();
                times.docs.push((i, doc));
            });
        }
    });
    let mut times = times.into_inner().expect("no worker panicked");
    times.wall_ms = ms_since(start);
    times.docs.sort_by_key(|(i, _)| *i);
    times
}

fn traced(scenarios: &[Scenario], budget: f64, reference: &[String]) -> Outcome {
    let mut out = Outcome::default();
    let n = scenarios.len();
    let (mut resolve_dense, mut resolve_sparse, mut to_json) = (Vec::new(), Vec::new(), Vec::new());
    let mut hit_ratio = Vec::new();
    // Indexed by `warm`: the cold pass, then the memo-warm one.
    let (mut run_ms, mut resolve_share): ([Vec<f64>; 2], [Vec<f64>; 2]) = Default::default();
    let mut busy_ms = 0.0;
    let mut passes = 0usize;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < Duration::from_secs_f64(budget) {
        let engine = Engine::with_threads(THREADS);
        for warm in [false, true] {
            let before = engine.cached_layer_costs();
            let pass = traced_pass(&engine, scenarios);
            let docs: Vec<String> = pass.docs.into_iter().map(|(_, d)| d).collect();
            check_docs(&mut out, &docs, reference);
            busy_ms += pass.wall_ms;
            passes += 1;
            if !warm {
                let misses = engine.cached_layer_costs() - before;
                hit_ratio.push(1.0 - misses as f64 / pass.lookups as f64);
            }
            let resolve_total: f64 = pass
                .resolve_dense_ms
                .iter()
                .chain(&pass.resolve_sparse_ms)
                .sum();
            let run_total: f64 = pass.run_workloads_ms.iter().sum();
            resolve_share[usize::from(warm)].push(resolve_total / (resolve_total + run_total));
            run_ms[usize::from(warm)].extend(pass.run_workloads_ms);
            resolve_dense.extend(pass.resolve_dense_ms);
            resolve_sparse.extend(pass.resolve_sparse_ms);
            to_json.extend(pass.to_json_us);
        }
    }
    out.set_median("core.resolve_workloads_ms.dense", &resolve_dense);
    out.set_median("core.resolve_workloads_ms.sparse", &resolve_sparse);
    out.set_median("core.run_workloads_ms.cold", &run_ms[0]);
    out.set_median("core.run_workloads_ms.warm", &run_ms[1]);
    out.set_median("core.memo_hit_ratio", &hit_ratio);
    out.set_median("core.resolve_share.cold", &resolve_share[0]);
    out.set_median("core.resolve_share.warm", &resolve_share[1]);
    out.set_median("core.to_json_us", &to_json);
    let (analytic, tile_timed) = evaluate_layer_us(scenarios);
    out.set("sim.evaluate_layer_us.analytic", analytic);
    out.set("sim.evaluate_layer_us.tile_timed", tile_timed);
    out.set("ops_per_s", (passes * n) as f64 / (busy_ms / 1e3));
    out
}

/// Mean microseconds per `evaluate_layer_with` call over every layer ×
/// phase of one sparse 16×16 scenario per network, under each fidelity.
fn evaluate_layer_us(scenarios: &[Scenario]) -> (f64, f64) {
    let mut seen: Vec<&str> = Vec::new();
    let mut picked: Vec<(&Scenario, Vec<(LayerTask, SparsityInfo)>)> = Vec::new();
    for s in scenarios {
        if s.sparsity.is_dense() || seen.contains(&s.network.as_str()) {
            continue;
        }
        if let Ok(workloads) = s.resolve_workloads() {
            seen.push(&s.network);
            picked.push((s, workloads));
        }
    }
    let time = |fidelity: Fidelity| {
        let mut calls = 0usize;
        let t = Instant::now();
        for (s, workloads) in &picked {
            for (task, sp) in workloads {
                for phase in SimPhase::ALL {
                    black_box(evaluate_layer_with(
                        &s.arch, task, phase, s.mapping, sp, s.balance, fidelity,
                    ));
                    calls += 1;
                }
            }
        }
        ms_since(t) * 1e3 / calls as f64
    };
    (time(Fidelity::Analytic), time(Fidelity::TileTimed))
}
