//! # flexserve-bench
//!
//! Shared fixtures of the `perf_report` before/after harness
//! (`src/bin/perf_report.rs`), which writes the `BENCH_*.json` files at
//! the repository root. Per-layer timings of a whole `flexserve run all`
//! and of the serving paths come from `flexbench/run.py --trace 1`
//! (see `docs/BENCHMARKS.md`).
//!
//! Cost-level (not time-level) ablations live in the
//! `flexserve-experiments` crate (`cargo run -p flexserve-experiments
//! --release --bin ablations`).

#![deny(missing_docs)]

use flexserve_graph::gen::{waxman, GenConfig};
use flexserve_graph::Graph;
use flexserve_sim::{CostBreakdown, CostParams, LoadModel};
use flexserve_workload::{record, CommuterScenario, LoadVariant};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Seeded connected Waxman substrate (no matrix — `perf_report`'s APSP entry
/// builds it itself; that *is* the measurement).
pub fn waxman_env(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    waxman(n, 0.4, 0.15, 10.0, &GenConfig::default(), &mut rng).expect("valid params")
}

/// Seeds per sweep cell in the before/after perf harness (the acceptance
/// criterion's "20-seed sweep cell").
pub const SWEEP_SEEDS: u64 = 20;

/// One per-seed cell of a figure sweep: a commuter trace over the shared
/// environment, played by ONTH. Exactly the shape every figure binary
/// hands to `flexserve_experiments::average`.
pub fn sweep_cell(env: &flexserve_experiments::setup::ExperimentEnv, seed: u64) -> CostBreakdown {
    let ctx = env.context(CostParams::default(), LoadModel::Linear);
    let mut scenario =
        CommuterScenario::with_matrix(&env.graph, &env.matrix, 8, 5, LoadVariant::Dynamic, seed);
    let trace = record(&mut scenario, 240);
    flexserve_experiments::run_algorithm(&ctx, &trace, flexserve_experiments::Algorithm::OnTh)
        .total()
}
