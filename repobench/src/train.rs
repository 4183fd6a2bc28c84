//! `train`: the same seeded minibatches through `DenseSgdTrainer` and
//! `ProcrustesTrainer` on tiny-VGG, interleaved step by step.
//!
//! Arm `a` is a dense step, arm `b` a Procrustes step. The traced phase
//! adds, per step: a forward/loss/backward pass on each trainer's own
//! model for the same batch (its gradients are cleared again, so the
//! training trajectory is unchanged — the losses are compared against
//! the untraced phase to prove it), a WR regeneration of every prunable
//! weight, and the four conv kernels on tiny-VGG's five geometries.

use std::hint::black_box;
use std::time::{Duration, Instant};

use procrustes_dropback::{DenseSgdTrainer, ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes_nn::{arch, Layer, Scratch, SoftmaxCrossEntropy};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols, conv2d_from_cols, im2col_into,
    Tensor,
};

use crate::host::TINY_VGG_CONVS;
use crate::inputs::{derive, Batches, TrainSeeds, TRAIN_BATCH, TRAIN_CLASSES};
use crate::stats::{combine, median, ms_since, Outcome};

/// Times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Procrustes steps whose `StepStats` counts the traced phase reports;
/// a fixed count, so the counts repeat exactly for one seed.
const COUNTED_STEPS: usize = 16;

struct Trainers {
    dense: DenseSgdTrainer,
    procrustes: ProcrustesTrainer,
    batches: Batches,
}

/// Builds both trainers from the seeded model stream and takes one
/// warm-up step on each, so buffers and kernel workers exist before
/// anything is timed.
fn setup(seeds: &TrainSeeds) -> Trainers {
    let model = || arch::tiny_vgg(TRAIN_CLASSES, &mut Xorshift64::new(seeds.model));
    let mut t = Trainers {
        dense: DenseSgdTrainer::new(model(), 0.05, 0.9),
        procrustes: ProcrustesTrainer::new(
            model(),
            ProcrustesConfig {
                sparsity_factor: 10.0,
                ..ProcrustesConfig::default()
            },
            seeds.wr,
        ),
        batches: Batches::new(seeds),
    };
    let (x, labels) = t.batches.next_batch();
    t.dense.train_step(&x, &labels);
    t.procrustes.train_step(&x, &labels);
    t
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let seeds = TrainSeeds::new(seed);
    let mut setup_s = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        sets.push(setup(&seeds));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let traced_set = sets.pop().expect("SETUPS > 1");
    let plain_set = sets.pop().expect("SETUPS > 1");

    let budget = if trace { seconds / 2.0 } else { seconds };
    let (plain, losses) = untraced(plain_set, budget);
    let traced = trace.then(|| traced(traced_set, budget, seed, &losses));
    combine(&setup_s, plain, traced)
}

/// One interleaved step pair: alternates which trainer goes first so
/// neither always runs on a cache the other just filled. `before` runs
/// just ahead of each trainer's step (`true` for the dense one).
fn step_pair(
    t: &mut Trainers,
    x: &Tensor,
    labels: &[usize],
    step: usize,
    mut before: impl FnMut(&mut Trainers, bool),
) -> StepPair {
    let mut pair = StepPair::default();
    for turn in 0..2 {
        let dense = (turn + step) & 1 == 0;
        before(t, dense);
        if dense {
            let start = Instant::now();
            pair.dense_loss = t.dense.train_step(x, labels).loss;
            pair.dense_ms = ms_since(start);
        } else {
            let start = Instant::now();
            let stats = t.procrustes.train_step(x, labels);
            pair.procrustes_ms = ms_since(start);
            pair.procrustes_loss = stats.loss;
            pair.within_budget = stats.tracked <= t.procrustes.budget();
            pair.stats = stats;
        }
    }
    pair
}

#[derive(Default)]
struct StepPair {
    dense_ms: f64,
    procrustes_ms: f64,
    dense_loss: f32,
    procrustes_loss: f32,
    within_budget: bool,
    stats: procrustes_dropback::StepStats,
}

impl StepPair {
    fn ok(&self) -> (bool, bool) {
        (
            self.dense_loss.is_finite(),
            self.procrustes_loss.is_finite() && self.within_budget,
        )
    }
}

/// The untraced phase, and the `(dense, procrustes)` loss of every step.
fn untraced(mut t: Trainers, budget: f64) -> (Outcome, Vec<(f32, f32)>) {
    let mut out = Outcome::default();
    let (mut a, mut b, mut losses) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut step = 0;
    while start.elapsed() < Duration::from_secs_f64(budget) {
        let (x, labels) = t.batches.next_batch();
        let pair = step_pair(&mut t, &x, &labels, step, |_, _| {});
        let (dense_ok, procrustes_ok) = pair.ok();
        out.check(dense_ok);
        out.check(procrustes_ok);
        a.push(pair.dense_ms);
        b.push(pair.procrustes_ms);
        losses.push((pair.dense_loss, pair.procrustes_loss));
        step += 1;
    }
    out.set_dist("a_ms.p50", "a_ms.tail", &a);
    out.set_dist("b_ms.p50", "b_ms.tail", &b);
    out.set("ops_per_s", ops_per_s(&a, &b));
    (out, losses)
}

/// Steps completed per second of time spent inside `train_step`.
fn ops_per_s(a: &[f64], b: &[f64]) -> f64 {
    let busy_ms: f64 = a.iter().chain(b).sum();
    (a.len() + b.len()) as f64 / (busy_ms / 1e3)
}

/// Forward, loss and backward on a trainer's own model, timed; the
/// parameter gradients it leaves behind are cleared.
fn probe_nn(model: &mut dyn Layer, x: &Tensor, labels: &[usize], s: &mut Scratch) -> [f64; 3] {
    let t = Instant::now();
    let logits = model.forward_with(x, true, s);
    let fw = ms_since(t);
    let t = Instant::now();
    let (_, dlogits) = SoftmaxCrossEntropy.loss_and_grad_with(&logits, labels, s);
    let loss = ms_since(t);
    let t = Instant::now();
    let dx = model.backward_with(&dlogits, s);
    let bw = ms_since(t);
    s.recycle(logits);
    s.recycle(dlogits);
    s.recycle(dx);
    model.zero_grads();
    [fw, loss, bw]
}

/// Seeded operands for one tiny-VGG conv geometry at the train batch.
struct ConvProbe {
    x: Tensor,
    w: Tensor,
    dy: Tensor,
    cols: Vec<f32>,
    c: usize,
    hw: usize,
}

impl ConvProbe {
    fn all(seed: u64) -> Vec<ConvProbe> {
        let mut rng = Xorshift64::new(derive(seed, "train.conv_probe"));
        let mut tensor = |dims: &[usize]| {
            let len = dims.iter().product();
            Tensor::from_vec(dims, (0..len).map(|_| rng.next_f32() - 0.5).collect())
        };
        TINY_VGG_CONVS
            .iter()
            .map(|&(c, k, hw)| ConvProbe {
                x: tensor(&[TRAIN_BATCH, c, hw, hw]),
                w: tensor(&[k, c, 3, 3]),
                dy: tensor(&[TRAIN_BATCH, k, hw, hw]),
                cols: vec![0.0; c * 9 * TRAIN_BATCH * hw * hw],
                c,
                hw,
            })
            .collect()
    }

    /// `[im2col, fw, bw, wu]` milliseconds for this geometry.
    fn time(&mut self, s: &mut Scratch) -> [f64; 4] {
        let (n, hw) = (TRAIN_BATCH, self.hw);
        let t = Instant::now();
        im2col_into(&self.x, 3, 3, 1, 1, &mut self.cols);
        let im2col = ms_since(t);
        let t = Instant::now();
        let y = conv2d_from_cols(&self.w, &self.cols, n, hw, hw, s);
        let fw = ms_since(t);
        s.recycle(black_box(y));
        let t = Instant::now();
        let dx = conv2d_backward_input_gemm(&self.dy, &self.w, hw, hw, 1, 1, s);
        let bw = ms_since(t);
        s.recycle(black_box(dx));
        let t = Instant::now();
        let dw = conv2d_backward_weights_from_cols(&self.dy, &self.cols, self.c, 3, 3, s);
        let wu = ms_since(t);
        s.recycle(black_box(dw));
        [im2col, fw, bw, wu]
    }
}

/// Regenerates every prunable weight's decayed initial value at the
/// trainer's current step, as the WR unit does.
fn wr_regen_ms(p: &ProcrustesTrainer) -> f64 {
    let (wr, step) = (p.wr(), p.steps());
    let t = Instant::now();
    let mut acc = 0.0f32;
    for i in 0..wr.len() {
        acc += wr.decayed_value(i, step);
    }
    black_box(acc);
    ms_since(t)
}

fn traced(mut t: Trainers, budget: f64, seed: u64, reference: &[(f32, f32)]) -> Outcome {
    let mut out = Outcome::default();
    let mut s = Scratch::new();
    let mut convs = ConvProbe::all(seed);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut fw, mut bw) = (Vec::new(), Vec::new());
    let (mut update_dense, mut update_procrustes, mut wr) = (Vec::new(), Vec::new(), Vec::new());
    let mut kernels: [Vec<f64>; 4] = Default::default();
    let (mut admitted, mut evicted, mut sparsity) = (0usize, 0usize, 0.0f64);
    let start = Instant::now();
    let mut step = 0;
    while step < COUNTED_STEPS || start.elapsed() < Duration::from_secs_f64(budget) {
        let (x, labels) = t.batches.next_batch();
        wr.push(wr_regen_ms(&t.procrustes));
        let mut sums = [0.0; 4];
        for conv in &mut convs {
            for (sum, ms) in sums.iter_mut().zip(conv.time(&mut s)) {
                *sum += ms;
            }
        }
        for (k, ms) in kernels.iter_mut().zip(sums) {
            k.push(ms);
        }
        // Each trainer's probe runs right before its own step, so both
        // see the same cache state.
        let (mut dense_nn, mut procrustes_nn) = ([0.0; 3], [0.0; 3]);
        let pair = step_pair(&mut t, &x, &labels, step, |t, dense| {
            if dense {
                dense_nn = probe_nn(t.dense.model_mut(), &x, &labels, &mut s);
            } else {
                procrustes_nn = probe_nn(t.procrustes.model_mut(), &x, &labels, &mut s);
            }
        });
        let same = reference
            .get(step)
            .is_none_or(|&r| r == (pair.dense_loss, pair.procrustes_loss));
        let (dense_ok, procrustes_ok) = pair.ok();
        out.check(dense_ok && same);
        out.check(procrustes_ok && same);
        for probe in [dense_nn, procrustes_nn] {
            fw.push(probe[0]);
            bw.push(probe[2]);
        }
        update_dense.push(pair.dense_ms - dense_nn.iter().sum::<f64>());
        update_procrustes.push(pair.procrustes_ms - procrustes_nn.iter().sum::<f64>());
        if step < COUNTED_STEPS {
            admitted += pair.stats.admitted;
            evicted += pair.stats.evicted;
            sparsity = pair.stats.weight_sparsity;
        }
        a.push(pair.dense_ms);
        b.push(pair.procrustes_ms);
        step += 1;
    }
    out.set_median("nn.forward_ms", &fw);
    out.set_median("nn.backward_ms", &bw);
    out.set_median("dropback.update_ms.dense", &update_dense);
    out.set_median("dropback.update_ms.procrustes", &update_procrustes);
    out.set_median("dropback.wr_regen_ms", &wr);
    out.set("dropback.admitted", admitted as f64);
    out.set("dropback.evicted", evicted as f64);
    out.set("dropback.weight_sparsity", sparsity);
    out.set(
        "dropback.step_share.procrustes",
        median(&update_procrustes) / median(&b),
    );
    for (name, values) in [
        "tensor.im2col_ms",
        "tensor.conv_fw_ms",
        "tensor.conv_bw_ms",
        "tensor.conv_wu_ms",
    ]
    .into_iter()
    .zip(&kernels)
    {
        out.set_median(name, values);
    }
    out.set("ops_per_s", ops_per_s(&a, &b));
    out
}
