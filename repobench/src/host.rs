//! The stamp printed with every result: the host the numbers come from
//! and the GEMM plan the kernel selector picks for each tiny-VGG shape,
//! so a later kernel-table change is attributable.

use procrustes_core::json::Json;
use procrustes_tensor::kernel::{self, Blueprint};

/// A tiny-VGG convolution at the `train` workload's batch:
/// `(in channels, out channels, input height = width)`, 3×3 filters,
/// stride 1, padding 1.
pub(crate) const TINY_VGG_CONVS: [(usize, usize, usize); 5] = [
    (3, 16, 32),
    (16, 16, 32),
    (16, 32, 16),
    (32, 32, 16),
    (32, 64, 8),
];
/// tiny-VGG's fully connected layers: `(inputs, outputs)`.
const TINY_VGG_FCS: [(usize, usize); 2] = [(1024, 64), (64, 10)];

/// The JSON stamp line.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        ("workload".into(), s(workload)),
        ("seed".into(), Json::u64(seed)),
        ("seconds".into(), Json::u64(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("host".into(), host()),
        ("kernel_plans".into(), kernel_plans()),
    ])
    .to_string()
}

fn host() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::u64(parallelism as u64),
        ),
        (
            "simd".into(),
            Json::Arr(simd().into_iter().map(s).collect()),
        ),
        ("build_profile".into(), s(env!("REPOBENCH_PROFILE"))),
        ("rustc".into(), s(env!("REPOBENCH_RUSTC"))),
        ("git_commit".into(), s(&git_commit())),
        (
            "kernel_threads_env".into(),
            std::env::var(kernel::thread::THREADS_ENV).map_or(Json::Null, |v| s(&v)),
        ),
        (
            "kernel_threads".into(),
            Json::u64(kernel::default_threads() as u64),
        ),
    ])
}

/// SIMD features detected at run time.
fn simd() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
    }
    found
}

/// The commit of the checkout, when it is a git work tree; `unknown`
/// otherwise (e.g. an exported source tree).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

/// The selector's plan for every GEMM a tiny-VGG training step issues,
/// as `kernel::explain` renders it, keyed `<layer>.<fw|bw|wu>`.
fn kernel_plans() -> Json {
    let batch = crate::inputs::TRAIN_BATCH;
    let threads = kernel::default_threads();
    let mut plans = Vec::new();
    let mut add = |name: String, bp: Blueprint| {
        let (plan, layer) = kernel::explain(&bp.with_threads(threads));
        let text = format!("{}x{}x{} {} ({layer})", bp.m, bp.k, bp.n, plan.describe());
        plans.push((name, Json::Str(text)));
    };
    for (i, &(c, k, hw)) in TINY_VGG_CONVS.iter().enumerate() {
        let (crs, npq) = (c * 9, batch * hw * hw);
        add(format!("conv{}.fw", i + 1), Blueprint::nn(k, crs, npq));
        add(format!("conv{}.bw", i + 1), Blueprint::nn(c, k * 9, npq));
        add(format!("conv{}.wu", i + 1), Blueprint::nt(k, npq, crs));
    }
    for (i, &(inp, out)) in TINY_VGG_FCS.iter().enumerate() {
        add(format!("fc{}.fw", i + 1), Blueprint::nt(batch, inp, out));
        add(format!("fc{}.bw", i + 1), Blueprint::nn(batch, out, inp));
        add(format!("fc{}.wu", i + 1), Blueprint::tn(out, batch, inp));
    }
    Json::Obj(plans)
}
