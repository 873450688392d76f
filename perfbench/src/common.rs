//! What every workload shares: the metric catalogue, one iteration's
//! result, leaderboard digests and small statistics.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("tasks_per_s", "1/s"),
    ("first_row_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. Layers a
/// workload does not cross read 0 (see NOTES.md for which are idle where).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tinyml.exec_s", "s"),
    ("tinyml.epochs", "count"),
    ("tinyml.ms_per_epoch", "ms"),
    ("rcompss.submit_us", "us"),
    ("rcompss.barrier_s", "s"),
    ("rcompss.overhead_us_per_task", "us"),
    ("rcompss.tasks", "count"),
    ("rcompss.tasks_failed", "count"),
    ("rcompss.tasks_retried", "count"),
    ("rcompss.exec_s", "s"),
    ("rcompss.core_idle_frac", "frac"),
    ("rnet.bytes_sent", "B"),
    ("rnet.bytes_received", "B"),
    ("rnet.bytes_per_task", "B"),
    ("blocks.cache_hits", "count"),
    ("blocks.cache_misses", "count"),
    ("blocks.transfer_bytes", "B"),
    ("stagetree.epochs_trained", "count"),
    ("stagetree.epochs_saved", "count"),
    ("stagetree.forks", "count"),
    ("server.submit_ms", "ms"),
    ("server.rows", "count"),
    ("server.throttled", "count"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Cores every workload runs on: two loopback workers advertising one
/// core each (and the threaded pool of 2 that `served_mixed`'s reference
/// check runs on).
pub const CORES: f64 = 2.0;

/// Per-layer values of one traced iteration.
pub type Layers = BTreeMap<&'static str, f64>;

/// The outcome of one measured iteration (set-up plus one timed pass).
#[derive(Debug, Default)]
pub struct Iter {
    pub setup_s: f64,
    pub wall_s: f64,
    pub first_row_s: f64,
    /// Leaderboard epochs (trials counted at full length); the no-op graph
    /// counts each task as one unit.
    pub epochs: f64,
    /// Runtime tasks completed inside the timed pass.
    pub tasks: f64,
    /// Operations the benchmark asked for (trials, or graph tasks) and how
    /// many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Filled by traced iterations only.
    pub layers: Layers,
}

/// A workload: repeatable iterations, then a one-off check against
/// references computed outside the timed passes.
pub trait Workload {
    /// Set up, run one timed pass, check its outputs, tear down.
    fn iterate(&mut self, traced: bool) -> Result<Iter, String>;
    /// Compare what the iterations produced with reference runs or
    /// checked-in digests.
    fn verify(&mut self) -> Result<(), String>;
}

/// Order-independent digest of a leaderboard: FNV-1a over the rows sorted
/// by label, each as `label|accuracy bits|epochs`.
pub fn digest(rows: impl IntoIterator<Item = (String, f64, u32)>) -> u64 {
    let mut lines: Vec<String> =
        rows.into_iter().map(|(l, a, e)| format!("{l}|{:016x}|{e}\n", a.to_bits())).collect();
    lines.sort();
    lines.iter().flat_map(|l| l.bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Registry snapshots taken on one side of a timed pass: the runtime's
/// registry and the process-global one (training epochs, and the block
/// caches of in-process workers).
pub struct Counters {
    rt: runmetrics::MetricsSnapshot,
    global: runmetrics::MetricsSnapshot,
}

impl Counters {
    pub fn take(rt: &runmetrics::MetricsRegistry) -> Counters {
        Counters { rt: rt.snapshot(), global: runmetrics::global().snapshot() }
    }

    /// Growth of runtime-registry counter `name` since `before`.
    pub fn delta(&self, before: &Counters, name: &str) -> f64 {
        let n = |s: &runmetrics::MetricsSnapshot| s.counter(name).unwrap_or(0);
        n(&self.rt).saturating_sub(n(&before.rt)) as f64
    }

    fn global_delta(&self, before: &Counters, name: &str) -> f64 {
        let n = |s: &runmetrics::MetricsSnapshot| s.counter(name).unwrap_or(0);
        n(&self.global).saturating_sub(n(&before.global)) as f64
    }
}

/// A layer table with every per-layer metric at 0, so a layer a workload
/// does not cross still prints (as idle).
pub fn idle_layers() -> Layers {
    PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect()
}

/// The `tinyml` layer of a traced pass: time in wrapped training bodies,
/// and the epochs training ran (one `tinyml_epoch_us` sample per epoch).
pub fn tinyml_layers(l: &mut Layers, before: &Counters, after: &Counters, exec_s: f64) {
    let n = |c: &Counters| c.global.histogram("tinyml_epoch_us").map_or(0, |h| h.count);
    let epochs = n(after).saturating_sub(n(before)) as f64;
    l.insert("tinyml.exec_s", exec_s);
    l.insert("tinyml.epochs", epochs);
    l.insert("tinyml.ms_per_epoch", if epochs > 0.0 { exec_s * 1e3 / epochs } else { 0.0 });
}

/// The layers every workload reports: executor accounting (busy time,
/// idle share, per-task overhead `(cores × wall − Σexec) / tasks`),
/// runtime task counts, `rnet` bytes and the block plane. No counter of
/// block bytes moved exists, so `blocks.transfer_bytes` is the growth of
/// the resident-bytes gauge (a lower bound: the gauge holds the residency
/// of whichever worker admitted a block last).
pub fn runtime_layers(
    l: &mut Layers,
    before: &Counters,
    after: &Counters,
    exec_s: f64,
    wall_s: f64,
    tasks: f64,
) {
    let capacity = CORES * wall_s;
    let per_task = tasks.max(1.0);
    l.insert("rcompss.exec_s", exec_s);
    l.insert("rcompss.core_idle_frac", 1.0 - exec_s / capacity);
    l.insert("rcompss.overhead_us_per_task", (capacity - exec_s) / per_task * 1e6);
    l.insert("rcompss.tasks", tasks);
    l.insert("rcompss.tasks_failed", after.delta(before, "rcompss_tasks_failed_total"));
    l.insert("rcompss.tasks_retried", after.delta(before, "rcompss_tasks_retried_total"));
    let sent = after.delta(before, "rnet_bytes_sent_total");
    let received = after.delta(before, "rnet_bytes_received_total");
    l.insert("rnet.bytes_sent", sent);
    l.insert("rnet.bytes_received", received);
    l.insert("rnet.bytes_per_task", (sent + received) / per_task);
    let resident =
        |c: &Counters| c.global.gauge("rcompss_block_cache_resident_bytes").unwrap_or(0.0);
    l.insert("blocks.cache_hits", after.global_delta(before, "rcompss_block_cache_hits_total"));
    l.insert("blocks.cache_misses", after.global_delta(before, "rcompss_block_cache_misses_total"));
    l.insert("blocks.transfer_bytes", (resident(after) - resident(before)).max(0.0));
}

/// The trace's self-check: caller-side spans must cover the wall interval
/// (the residual is the benchmark's own bookkeeping between calls), and
/// executors cannot have been busy for longer than they existed. Records
/// the residual share as `trace.residual_frac` (reported on standard
/// error, not as a metric).
pub fn check_accounting(
    layers: &mut Layers,
    spans: &[crate::trace::Span],
    callers: &[&str],
    wall: (f64, f64),
    exec_s: f64,
) -> Result<(), String> {
    /// Largest share of the wall interval left outside caller spans.
    const RESIDUAL_TOL: f64 = 0.05;
    let wall_s = (wall.1 - wall.0) / 1e6;
    let caller_s = crate::trace::coverage(spans, callers, wall.0, wall.1);
    let residual = (wall_s - caller_s) / wall_s;
    layers.insert("trace.residual_frac", residual);
    if residual > RESIDUAL_TOL {
        return Err(format!(
            "trace accounting: caller spans cover {caller_s:.4} s of a {wall_s:.4} s wall \
             (residual {:.1}% > {:.0}%)",
            residual * 100.0,
            RESIDUAL_TOL * 100.0
        ));
    }
    if exec_s > CORES * wall_s * 1.01 {
        return Err(format!(
            "trace accounting: {exec_s:.4} s of task execution exceeds {CORES} cores × {wall_s:.4} s"
        ));
    }
    Ok(())
}
