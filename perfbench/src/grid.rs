//! The paper grid shared by `served_mixed` (tenant `a`'s sweep) and its
//! reference check (the same grid run naively on the threaded backend).

use std::sync::Arc;

use hpo::experiment::Objective;
use hpo::prelude::*;
use hpo::results::HpoReport;
use rcompss::{Runtime, RuntimeConfig};
use tinyml::Dataset;

use crate::common;
use crate::trace;

/// The paper's Listing 1 grid (3 optimizers × 3 epoch counts × 3 batch
/// sizes) with the epoch axis scaled by 1/10 (20/50/100 → 10/5/2), so the
/// stage tree's share of saved epochs stays the paper grid's 41%. The
/// epoch axis is listed longest first, so the long trials start first.
pub const PAPER_SPACE_JSON: &str = r#"{"optimizer": ["Adam", "SGD", "RMSprop"], "num_epochs": [10, 5, 2], "batch_size": [32, 64, 128]}"#;

/// Trials in the paper grid.
pub const GRID_TRIALS: usize = 27;

/// Hidden width of every trained MLP (the CLI's default objective).
pub const HIDDEN: usize = 64;

/// The paper grid's search space, parsed exactly as the sweep server
/// parses a submitted space.
pub fn paper_space() -> SearchSpace {
    SearchSpace::from_json(PAPER_SPACE_JSON).expect("paper space JSON is valid")
}

/// Threaded-runtime configuration with the program's defaults: metrics
/// registry on, runtime tracing off.
pub fn threaded_runtime() -> Runtime {
    Runtime::threaded(
        RuntimeConfig::single_node(common::CORES as u32).with_tracing(false).with_metrics(true),
    )
}

/// Wrap `inner` in a benchmark span named `exec.objective`.
pub fn traced_objective(inner: Objective) -> Objective {
    Arc::new(move |config, budget| {
        let _s = trace::span("exec.objective");
        inner(config, budget)
    })
}

/// Digest of a report's trial table (see [`common::digest`]).
pub fn report_digest(report: &HpoReport) -> u64 {
    common::digest(
        report.trials.iter().map(|t| (t.config.label(), t.outcome.accuracy, t.outcome.epochs_run)),
    )
}

/// Build the dataset every grid trial trains on.
pub fn dataset(samples: usize, seed: u64) -> Arc<Dataset> {
    Arc::new(Dataset::synthetic_mnist(samples, seed))
}
