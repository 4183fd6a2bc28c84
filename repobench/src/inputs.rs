//! Seeded input generators. Every batch, scenario and request the
//! workloads hand to the library comes from here, derived from the one
//! workload seed given on the command line: the same seed gives the same
//! inputs, a different seed different ones.

use procrustes_core::{Fidelity, Scenario, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_nn::data::SyntheticImages;
use procrustes_prng::{shuffle, SplitMix64, UniformRng, Xorshift64};
use procrustes_sim::{ArchConfig, Mapping};
use procrustes_tensor::Tensor;

/// Minibatch size of the `train` workload.
pub(crate) const TRAIN_BATCH: usize = 16;
/// Classes of the synthetic CIFAR-like dataset.
pub(crate) const TRAIN_CLASSES: usize = 10;

/// A sub-seed for one named purpose, so that the data, model, mask and
/// request streams of one workload seed are independent of each other.
pub(crate) fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in purpose.bytes() {
        h = SplitMix64::mix(h ^ u64::from(b));
    }
    SplitMix64::mix(h)
}

/// The seeds of the `train` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainSeeds {
    /// Dataset texture seed.
    pub data: u64,
    /// Minibatch sampling stream.
    pub batches: u64,
    /// Model initialization stream (both trainers start from it).
    pub model: u64,
    /// The Procrustes weight-recompute seed.
    pub wr: u32,
}

impl TrainSeeds {
    /// Derives the train seeds from the workload seed.
    pub fn new(seed: u64) -> Self {
        Self {
            data: derive(seed, "train.data"),
            batches: derive(seed, "train.batches"),
            model: derive(seed, "train.model"),
            wr: derive(seed, "train.wr") as u32,
        }
    }
}

/// An endless, seeded stream of CIFAR-like minibatches.
pub struct Batches {
    data: SyntheticImages,
    rng: Xorshift64,
}

impl Batches {
    /// The stream for `seeds`.
    pub fn new(seeds: &TrainSeeds) -> Self {
        Self {
            data: SyntheticImages::cifar_like(TRAIN_CLASSES, seeds.data),
            rng: Xorshift64::new(seeds.batches),
        }
    }

    /// The next minibatch.
    pub fn next_batch(&mut self) -> (Tensor, Vec<usize>) {
        self.data.batch(TRAIN_BATCH, &mut self.rng)
    }
}

/// The `engine_sweep` scenarios: the union of the fig17–20 sweeps (paper
/// networks × mappings × 16×16/32×32 arrays × dense/paper-synthetic
/// masks) followed by a tile-timed slice, with mask seeds taken from the
/// workload seed.
pub fn engine_sweep(seed: u64) -> Vec<Scenario> {
    let mask_seed = derive(seed, "engine.masks");
    let mut scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .arches([
            ArchConfig::procrustes_16x16(),
            ArchConfig::procrustes_32x32(),
        ])
        .mappings(Mapping::ALL)
        .sparsities([
            SparsityGen::Dense,
            SparsityGen::PaperSynthetic { seed: mask_seed },
        ])
        .build()
        .expect("the fig17-20 union is a valid sweep");
    let tile_timed = Sweep::new()
        .networks(["VGG-S", "ResNet18"])
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::PaperSynthetic {
            seed: derive(seed, "engine.tile_masks"),
        }])
        .fidelities([Fidelity::TileTimed])
        .build()
        .expect("the tile-timed slice is a valid sweep");
    scenarios.extend(tile_timed);
    scenarios
}

/// One request of the `serve_repeat` sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `eval` of the pool scenario at this index.
    Eval(usize),
    /// A `metrics` call.
    Metrics,
}

/// The `serve_repeat` inputs: a scenario pool, the part of it written to
/// the daemon's disk cache before measuring, and the request sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Every scenario the sequence may name.
    pub pool: Vec<Scenario>,
    /// Pool indices pre-populated into the cache directory.
    pub prepopulated: Vec<usize>,
    /// The request sequence, consumed in order until time or the
    /// sequence runs out.
    pub requests: Vec<Request>,
}

/// Pool scenarios per (network, dense/sparse, batch) pre-populated into
/// the disk cache, at batches 16 and 32.
const SERVE_PREPOPULATED_PER_BATCH: usize = 2;
/// Batches of the never-seen scenarios: mask synthesis grows with the
/// batch, so a spread of batches spreads miss costs smoothly.
const SERVE_FRESH_BATCHES: [usize; 7] = [8, 12, 16, 20, 24, 28, 32];
/// Mask seeds per (network, batch) of the never-seen scenarios; each
/// gives one scenario per array × mapping.
const SERVE_FRESH_MASK_SEEDS: usize = 2;
/// Every this many requests, one is a `metrics` call.
const SERVE_METRICS_EVERY: usize = 50;
/// Every this many requests, one is the first touch of a pre-populated
/// scenario (a disk read).
const SERVE_DISK_EVERY: usize = 40;
/// Every this many requests, one is the first touch of a never-seen
/// scenario (computed, then written to disk).
const SERVE_FRESH_EVERY: usize = 5;

/// Up to `per_batch` distinct scenarios of one network at each of
/// `batches`, a seeded choice among every array × mapping × sparsity,
/// ordered round-robin over the batches.
fn stratum(
    network: &str,
    batches: &[usize],
    sparsities: &[SparsityGen],
    per_batch: usize,
    rng: &mut SplitMix64,
) -> Vec<Scenario> {
    let by_batch: Vec<Vec<Scenario>> = batches
        .iter()
        .map(|&batch| {
            let mut all = Sweep::new()
                .networks([network])
                .arches([
                    ArchConfig::procrustes_16x16(),
                    ArchConfig::procrustes_32x32(),
                ])
                .mappings(Mapping::ALL)
                .batches([batch])
                .sparsities(sparsities.iter().cloned())
                .build()
                .expect("a serve stratum is a valid sweep");
            shuffle(&mut all, rng);
            all.truncate(per_batch);
            all
        })
        .collect();
    round_robin(&by_batch, rng)
}

/// Concatenates the strata round-robin, shuffling the strata order of
/// every round, so that every prefix is balanced across strata.
fn round_robin(strata: &[Vec<Scenario>], rng: &mut SplitMix64) -> Vec<Scenario> {
    let rounds = strata.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..strata.len()).collect();
        shuffle(&mut order, rng);
        out.extend(
            order
                .into_iter()
                .filter_map(|s| strata[s].get(round).cloned()),
        );
    }
    out
}

/// Builds the `serve_repeat` plan for `seed`.
///
/// The pool is stratified so that every seed offers the same mix of
/// cheap and expensive first touches, in a different order and with
/// different masks: the pre-populated part holds the same number of
/// scenarios per (network, dense/sparse, batch), the never-seen part the
/// same number of sparse scenarios per (network, batch) — the misses
/// that pay for mask synthesis. First touches walk networks and batches
/// round-robin at fixed positions of the sequence; the remaining
/// `eval`s repeat a seeded choice among the scenarios already touched.
///
/// The sequence ends when the pre-populated scenarios run out, and the
/// never-seen part is sized to last as long, so every request kind
/// keeps its share over the whole sequence: a run that gets further
/// sees the same mix, not more repeats.
pub fn serve_plan(seed: u64) -> ServePlan {
    let mut rng = SplitMix64::new(derive(seed, "serve.requests"));
    let mut warm = Vec::new();
    let mut fresh = Vec::new();
    // Distinct mask seeds keep never-seen scenarios out of the
    // pre-populated part.
    let fresh_masks: Vec<SparsityGen> = (0..SERVE_FRESH_MASK_SEEDS)
        .map(|k| SparsityGen::PaperSynthetic {
            seed: derive(seed, &format!("serve.fresh_masks.{k}")),
        })
        .collect();
    let warm_masks = SparsityGen::PaperSynthetic {
        seed: derive(seed, "serve.masks"),
    };
    for network in PAPER_NETWORKS {
        for sparsity in [SparsityGen::Dense, warm_masks.clone()] {
            let per_batch = SERVE_PREPOPULATED_PER_BATCH;
            let batches = [16, 32];
            warm.push(stratum(network, &batches, &[sparsity], per_batch, &mut rng));
        }
        fresh.push(stratum(
            network,
            &SERVE_FRESH_BATCHES,
            &fresh_masks,
            usize::MAX,
            &mut rng,
        ));
    }
    let mut pool = round_robin(&warm, &mut rng);
    let prepopulated_len = pool.len();
    let requests_len = prepopulated_len * SERVE_DISK_EVERY;
    let fresh = round_robin(&fresh, &mut rng);
    let fresh_len = requests_len.div_ceil(SERVE_FRESH_EVERY);
    assert!(
        fresh.len() >= fresh_len,
        "the never-seen pool lasts the sequence"
    );
    pool.extend(fresh.into_iter().take(fresh_len));
    let prepopulated: Vec<usize> = (0..prepopulated_len).collect();

    let mut next_disk = 0usize;
    let mut next_fresh = prepopulated_len;
    let mut touched: Vec<usize> = Vec::new();
    let mut requests = Vec::with_capacity(requests_len);
    for i in 0..requests_len {
        // The three periods never pick the same position.
        let request = if i % SERVE_METRICS_EVERY == SERVE_METRICS_EVERY - 1 {
            Request::Metrics
        } else if i % SERVE_DISK_EVERY == 0 {
            next_disk += 1;
            touched.push(next_disk - 1);
            Request::Eval(next_disk - 1)
        } else if i % SERVE_FRESH_EVERY == SERVE_FRESH_EVERY / 2 {
            next_fresh += 1;
            touched.push(next_fresh - 1);
            Request::Eval(next_fresh - 1)
        } else {
            Request::Eval(touched[rng.next_below(touched.len() as u64) as usize])
        };
        requests.push(request);
    }
    ServePlan {
        pool,
        prepopulated,
        requests,
    }
}
