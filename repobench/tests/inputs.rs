//! Self-test of the seeded input generators, and of `BENCHMARK.json`
//! against the metric lists the benchmark prints.

use procrustes_core::json::Json;
use procrustes_core::Scenario;
use repobench::inputs::{engine_sweep, serve_plan, Batches, Request, ServePlan, TrainSeeds};
use repobench::stats::{MetricSpec, END_TO_END, PER_LAYER};

fn batches(seed: u64, n: usize) -> Vec<(Vec<f32>, Vec<usize>)> {
    let mut stream = Batches::new(&TrainSeeds::new(seed));
    (0..n)
        .map(|_| {
            let (x, labels) = stream.next_batch();
            (x.data().to_vec(), labels)
        })
        .collect()
}

fn docs(scenarios: &[Scenario]) -> Vec<String> {
    scenarios.iter().map(Scenario::to_json).collect()
}

fn plan_text(plan: &ServePlan) -> (Vec<String>, Vec<usize>, Vec<Request>) {
    (
        docs(&plan.pool),
        plan.prepopulated.clone(),
        plan.requests.clone(),
    )
}

#[test]
fn same_seed_gives_identical_inputs() {
    assert_eq!(batches(7, 3), batches(7, 3));
    assert_eq!(TrainSeeds::new(7), TrainSeeds::new(7));
    assert_eq!(docs(&engine_sweep(7)), docs(&engine_sweep(7)));
    assert_eq!(plan_text(&serve_plan(7)), plan_text(&serve_plan(7)));
}

#[test]
fn different_seed_changes_inputs() {
    assert_ne!(batches(7, 3), batches(8, 3));
    assert_ne!(TrainSeeds::new(7).model, TrainSeeds::new(8).model);
    assert_ne!(TrainSeeds::new(7).wr, TrainSeeds::new(8).wr);
    assert_ne!(docs(&engine_sweep(7)), docs(&engine_sweep(8)));
    let (a, b) = (serve_plan(7), serve_plan(8));
    assert_ne!(docs(&a.pool), docs(&b.pool));
    assert_ne!(a.requests, b.requests);
}

#[test]
fn sweep_is_the_fig17_20_union_plus_a_tile_timed_slice() {
    let sweep = engine_sweep(1);
    // 5 networks × 2 arrays × 4 mappings × dense/sparse, then
    // 2 networks × 4 mappings tile-timed.
    assert_eq!(sweep.len(), 80 + 8);
    assert_eq!(sweep.iter().filter(|s| s.sparsity.is_dense()).count(), 40);
}

/// How one request of a `serve_repeat` sequence reaches the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Disk,
    Computed,
    Repeat,
    Metrics,
}

fn kinds(plan: &ServePlan) -> Vec<Kind> {
    let mut seen = std::collections::BTreeSet::new();
    plan.requests
        .iter()
        .map(|r| match *r {
            Request::Metrics => Kind::Metrics,
            Request::Eval(i) if !seen.insert(i) => Kind::Repeat,
            Request::Eval(i) if plan.prepopulated.contains(&i) => Kind::Disk,
            Request::Eval(_) => Kind::Computed,
        })
        .collect()
}

#[test]
fn serve_sequence_keeps_its_mix_to_the_end() {
    for seed in [3, 4] {
        let plan = serve_plan(seed);
        let kinds = kinds(&plan);
        // Every 200-request block, the last one included, holds 5 disk
        // reads, 40 computed misses, 4 metrics calls and 151 repeats,
        // so how far a run gets does not change its mix.
        assert_eq!(kinds.len() % 200, 0);
        for block in kinds.chunks(200) {
            let count = |k: Kind| block.iter().filter(|&&b| b == k).count();
            assert_eq!(
                [Kind::Disk, Kind::Computed, Kind::Metrics, Kind::Repeat].map(count),
                [5, 40, 4, 151]
            );
        }
        // Every pre-populated scenario is read once, and every other
        // pool scenario is computed once.
        let first_touches = kinds
            .iter()
            .filter(|k| matches!(k, Kind::Disk | Kind::Computed))
            .count();
        assert_eq!(first_touches, plan.pool.len());
        assert_eq!(
            kinds.iter().filter(|&&k| k == Kind::Disk).count(),
            plan.prepopulated.len()
        );
    }
}

fn listed(json: &Json, key: &str) -> Vec<(String, String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn printed(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|s| (s.name.into(), s.unit.into(), s.better.into()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(listed(&json, "end_to_end"), printed(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), printed(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, repobench::WORKLOADS);
}
