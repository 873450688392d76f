//! `served_mixed`: one `SweepServer` over two in-process loopback workers,
//! with two tenants submitting at the same time.
//!
//! Tenant `a` runs the paper grid, which the server routes through the
//! stage tree (shared prefixes trained once, children forked from
//! snapshots). Tenant `b` runs TPE, which the runner drives in
//! wave-barriered batches. This is the only workload that crosses the
//! server's admission and fair-share gate and the stage tree, and it uses
//! the wire differently from `dag_loopback`: few tasks, each shipping
//! large payloads (fork snapshots).

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpo::algo::tpe::TpeSearch;
use hpo::client::{SubmitSpec, SweepClient};
use hpo::experiment::{tinyml_objective, ExperimentOptions};
use hpo::prelude::*;
use hpo::runner::materialize;
use hpo::server::{gather_workers, PoolPlan, ServerConfig, SweepServer, SWEEP_DONE};
use hpo::stagetree::{stage_task_def, StageObjective};
use hpo::wire::experiment_task_def;
use rcompss::{DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskRegistry, WorkerHandle};
use rnet::LeaderRow;

use crate::common::{self, Counters, Iter, Workload};
use crate::grid::{self, GRID_TRIALS, HIDDEN, PAPER_SPACE_JSON};
use crate::{dag, trace};

/// Tenant `b`'s space: TPE over optimizer and learning rate at a fixed
/// length and batch size, so the work per pass does not depend on which
/// points the seed makes TPE pick. The learning rate stays below 0.01:
/// some optimizers train 3.5–5.5× slower per epoch at 0.03–0.1, which made
/// a pass's cost depend on the seed.
pub const TPE_SPACE_JSON: &str = r#"{"optimizer": ["Adam", "SGD", "RMSprop"], "learning_rate": {"log_uniform": [0.001, 0.01]}, "num_epochs": [5], "batch_size": [64]}"#;

/// TPE trials of tenant `b` (two waves of the algorithm's batch of 4).
pub const TPE_TRIALS: u32 = 8;

/// Epochs of every TPE trial (the space pins `num_epochs`).
const TPE_EPOCHS: u32 = 5;

/// How long a client waits for any frame before the pass is failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(90);

/// Wrap a task definition's body in a benchmark span.
fn traced_def(def: TaskDef, span: &'static str) -> TaskDef {
    let inner = Arc::clone(&def.body);
    TaskDef {
        body: Arc::new(move |ctx, inputs| {
            let _s = trace::span(span);
            inner(ctx, inputs)
        }),
        ..def
    }
}

/// TPE's seed, derived from the workload seed.
pub fn tpe_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7)
}

fn spec(name: &str, space_json: &str, algo: &str, trials: u32, seed: u64) -> SubmitSpec {
    SubmitSpec {
        name: name.to_string(),
        space_json: space_json.to_string(),
        algo: algo.to_string(),
        trials,
        seed,
        wave: 0,
    }
}

/// What one tenant saw in one pass. Times are trace-clock microseconds.
struct TenantRun {
    submit_us: f64,
    accepted_us: f64,
    rows: Vec<(LeaderRow, f64)>,
    state: u32,
    message: String,
    failed: u32,
}

/// Submit `spec` once `ready` says so, report acceptance on `accepted`,
/// then stream the sweep to its end.
fn tenant(
    client: &mut SweepClient,
    spec: &SubmitSpec,
    ready: Option<mpsc::Receiver<()>>,
    accepted: Option<mpsc::Sender<()>>,
) -> Result<TenantRun, String> {
    if let Some(ready) = ready {
        ready.recv().map_err(|_| format!("served: {} never got its turn to submit", spec.name))?;
    }
    let submit_us = trace::mark_us();
    let info = {
        let _s = trace::span("call.client_submit");
        client.submit(spec)
    }
    .map_err(|e| format!("served: {} submit: {e}", spec.name))?
    .map_err(|r| format!("served: {} rejected: {r}", spec.name))?;
    let accepted_us = trace::mark_us();
    if let Some(accepted) = accepted {
        // The receiver only goes away when its thread already failed.
        let _ = accepted.send(());
    }
    let mut rows = Vec::new();
    let end = {
        let _s = trace::span("call.client_stream");
        let mut waiting = Some(trace::span("wait.first_row"));
        client.wait_done(info.sweep_id, |row| {
            waiting.take();
            rows.push((row.clone(), trace::mark_us()));
        })
    }
    .map_err(|e| format!("served: {} stream: {e}", spec.name))?;
    let status = client
        .status(info.sweep_id, false)
        .map_err(|e| format!("served: {} status: {e}", spec.name))?
        .map_err(|r| format!("served: {} status rejected: {r}", spec.name))?;
    Ok(TenantRun {
        submit_us,
        accepted_us,
        rows,
        state: end.state,
        message: end.message,
        failed: status.failed,
    })
}

fn rows_digest(rows: &[(LeaderRow, f64)]) -> u64 {
    common::digest(rows.iter().map(|(r, _)| (r.label.clone(), r.accuracy, r.epochs)))
}

/// The pool, runtime, server and two tenant connections of one pass.
struct Service {
    workers: Vec<WorkerHandle>,
    server: SweepServer,
    a: SweepClient,
    b: SweepClient,
}

impl Service {
    fn start(samples: usize, seed: u64) -> Result<Service, String> {
        let data = grid::dataset(samples, seed);
        let opts = ExperimentOptions::default();
        let objective = grid::traced_objective(tinyml_objective(Arc::clone(&data), vec![HIDDEN]));
        let stage = StageObjective::new(data, vec![HIDDEN]);
        let registry = TaskRegistry::new()
            .with(experiment_task_def(&opts, &objective))
            .with(traced_def(stage_task_def(&opts, &stage), "exec.stage"));
        let workers = dag::spawn_workers(&registry)?;
        let addrs: Vec<String> = workers.iter().map(WorkerHandle::addr).collect();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("served: server listen: {e}"))?;
        let boots = gather_workers(&listener, &PoolPlan::dial_out(&addrs, Duration::from_secs(10)))
            .map_err(|e| format!("served: gathering the pool: {e}"))?;
        let rt = Runtime::from_bootstraps(
            RuntimeConfig::single_node(1).with_tracing(false).with_metrics(true),
            boots,
            DistributedConfig::default(),
        );
        let server = SweepServer::start_staged(
            listener,
            rt,
            objective,
            Some(stage),
            opts,
            ServerConfig::default(),
        )
        .map_err(|e| format!("served: starting the server: {e}"))?;
        let addr = server.addr().to_string();
        let connect = |tenant: &str| {
            let c = SweepClient::connect(&addr, tenant)
                .map_err(|e| format!("served: tenant {tenant} connect: {e}"))?;
            c.set_timeout(Some(CLIENT_TIMEOUT))
                .map_err(|e| format!("served: client timeout: {e}"))?;
            Ok::<_, String>(c)
        };
        let (a, b) = (connect("a")?, connect("b")?);
        let mut svc = Service { workers, server, a, b };
        svc.warm_up()?;
        Ok(svc)
    }

    /// One single-epoch sweep through the whole path (client, gate, stage
    /// tree, both workers' first task), before anything is timed.
    fn warm_up(&mut self) -> Result<(), String> {
        let warm = spec(
            "warm",
            r#"{"optimizer": ["Adam", "SGD"], "num_epochs": [1], "batch_size": [64]}"#,
            "grid",
            0,
            0,
        );
        let run = tenant(&mut self.a, &warm, None, None)?;
        if run.state != SWEEP_DONE || run.rows.len() != 2 {
            return Err(format!(
                "served: warm-up sweep ended in state {} with {} rows",
                run.state,
                run.rows.len()
            ));
        }
        Ok(())
    }

    fn stop(self) -> Result<(), String> {
        let Service { workers, server, a, b } = self;
        drop((a, b));
        server.shutdown();
        for w in workers {
            w.join().map_err(|e| format!("served: worker shutdown: {e}"))?;
        }
        Ok(())
    }
}

pub struct ServedMixed {
    samples: usize,
    seed: u64,
    /// `label → num_epochs` of every paper-grid config.
    grid_epochs: BTreeMap<String, u32>,
    digest_a: Option<u64>,
    digest_b: Option<u64>,
    /// Checked-in digests of tenants `a` and `b` for this seed and size.
    expected: Option<(u64, u64)>,
}

impl ServedMixed {
    pub fn new(samples: usize, seed: u64, expected: Option<(u64, u64)>) -> ServedMixed {
        let grid_epochs = materialize(&mut GridSearch::new(&grid::paper_space()))
            .iter()
            .map(|c| (c.label(), c.get_int("num_epochs").unwrap_or(0) as u32))
            .collect();
        ServedMixed { samples, seed, grid_epochs, digest_a: None, digest_b: None, expected }
    }

    fn check_tenants(&mut self, a: &TenantRun, b: &TenantRun) -> Result<(), String> {
        for (name, run) in [("a", a), ("b", b)] {
            if run.state != SWEEP_DONE || run.failed != 0 {
                return Err(format!(
                    "served: tenant {name} ended in state {} with {} failed trials ({})",
                    run.state, run.failed, run.message
                ));
            }
        }
        if a.rows.len() != GRID_TRIALS || self.grid_epochs.len() != GRID_TRIALS {
            return Err(format!(
                "served: tenant a streamed {} rows, expected {GRID_TRIALS}",
                a.rows.len()
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (row, _) in &a.rows {
            if self.grid_epochs.get(&row.label) != Some(&row.epochs)
                || !seen.insert(row.label.clone())
            {
                return Err(format!(
                    "served: tenant a row {} ({} epochs) is not a new grid config at full length",
                    row.label, row.epochs
                ));
            }
        }
        if b.rows.len() != TPE_TRIALS as usize || b.rows.iter().any(|(r, _)| r.epochs != TPE_EPOCHS)
        {
            return Err(format!(
                "served: tenant b streamed {} rows, expected {TPE_TRIALS} of {TPE_EPOCHS} epochs",
                b.rows.len()
            ));
        }
        for (slot, digest, name) in [
            (&mut self.digest_a, rows_digest(&a.rows), "a"),
            (&mut self.digest_b, rows_digest(&b.rows), "b"),
        ] {
            match *slot {
                None => *slot = Some(digest),
                Some(d) if d != digest => {
                    return Err(format!("served: tenant {name} digest {digest:016x} differs from the first pass's {d:016x}"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

impl Workload for ServedMixed {
    fn iterate(&mut self, traced: bool) -> Result<Iter, String> {
        let t_setup = Instant::now();
        let mut svc = Service::start(self.samples, self.seed)?;
        let setup_s = t_setup.elapsed().as_secs_f64();

        let c0 = Counters::take(&svc.server.metrics());
        let root = traced.then(|| trace::begin("iter.served_mixed"));
        let spec_a = spec("a-grid", PAPER_SPACE_JSON, "grid", 0, 0);
        let spec_b = spec("b-tpe", TPE_SPACE_JSON, "tpe", TPE_TRIALS, tpe_seed(self.seed));
        // Both sweeps run at once, but `a` submits the moment `b`'s submit
        // is acknowledged. `b` then has its first TPE wave in the runtime
        // before `a`'s stage tree arrives, and since the runtime runs ready
        // tasks first-submitted first, every pass interleaves the tenants
        // the same way. A free race moved `first_row_s` by half.
        let (b_accepted, a_ready) = mpsc::channel();
        let (ra, rb) = std::thread::scope(|s| {
            let (a, b) = (&mut svc.a, &mut svc.b);
            let ha = s.spawn(|| tenant(a, &spec_a, Some(a_ready), None));
            let hb = s.spawn(|| tenant(b, &spec_b, None, Some(b_accepted)));
            (ha.join(), hb.join())
        });
        let spans = root.map(trace::end);
        let c1 = Counters::take(&svc.server.metrics());
        svc.stop()?;
        let a = ra.map_err(|_| "served: tenant a thread panicked".to_string())??;
        let b = rb.map_err(|_| "served: tenant b thread panicked".to_string())??;
        self.check_tenants(&a, &b)?;

        let m0 = a.submit_us.min(b.submit_us);
        let m1 = a.rows.iter().chain(&b.rows).map(|(_, t)| *t).fold(m0, f64::max);
        let wall_s = (m1 - m0) / 1e6;
        let tasks = c1.delta(&c0, "rcompss_tasks_completed_total");
        let rows = (a.rows.len() + b.rows.len()) as f64;
        let grid_epochs: f64 = a.rows.iter().map(|(r, _)| f64::from(r.epochs)).sum();
        let mut it = Iter {
            setup_s,
            wall_s,
            first_row_s: (a.rows[0].1 - a.accepted_us) / 1e6,
            epochs: a.rows.iter().chain(&b.rows).map(|(r, _)| f64::from(r.epochs)).sum(),
            tasks,
            attempted: (GRID_TRIALS as u32 + TPE_TRIALS) as u64,
            failed: u64::from(a.failed + b.failed),
            layers: common::idle_layers(),
        };
        if let Some(spans) = spans {
            let exec_s =
                trace::total(&spans, "exec.objective") + trace::total(&spans, "exec.stage");
            let saved = c1.delta(&c0, "hpo_stage_epochs_saved_total");
            let throttled: f64 = ["a", "b"]
                .iter()
                .map(|t| {
                    c1.delta(
                        &c0,
                        &runmetrics::labeled("hposerver_tenant_throttled_total", "tenant", t),
                    )
                })
                .sum();
            let l = &mut it.layers;
            common::tinyml_layers(l, &c0, &c1, exec_s);
            common::runtime_layers(l, &c0, &c1, exec_s, wall_s, tasks);
            l.insert("stagetree.epochs_trained", grid_epochs - saved);
            l.insert("stagetree.epochs_saved", saved);
            l.insert("stagetree.forks", c1.delta(&c0, "hpo_prefix_forks_total"));
            let submits = trace::count(&spans, "call.client_submit") as f64;
            l.insert(
                "server.submit_ms",
                trace::total(&spans, "call.client_submit") / submits * 1e3,
            );
            l.insert("server.rows", rows);
            l.insert("server.throttled", throttled);
            common::check_accounting(
                l,
                &spans,
                &["call.client_submit", "call.client_stream"],
                (m0, m1),
                exec_s,
            )?;
        }
        Ok(it)
    }

    /// Tenant `a` must match the naive threaded grid bit for bit (the
    /// invariant across backend, sharing mode and server), and tenant `b`
    /// the same TPE sweep run standalone on the threaded backend.
    fn verify(&mut self) -> Result<(), String> {
        let data = grid::dataset(self.samples, self.seed);
        let objective = tinyml_objective(data, vec![HIDDEN]);
        let rt = grid::threaded_runtime();
        let runner = HpoRunner::new(ExperimentOptions::default());
        let grid_ref = runner
            .run(&rt, &mut GridSearch::new(&grid::paper_space()), Arc::clone(&objective))
            .map_err(|e| format!("served: grid reference: {e}"))?;
        let tpe_space = SearchSpace::from_json(TPE_SPACE_JSON).expect("TPE space JSON is valid");
        let tpe_ref = runner
            .run(
                &rt,
                &mut TpeSearch::new(&tpe_space, TPE_TRIALS as usize, tpe_seed(self.seed)),
                objective,
            )
            .map_err(|e| format!("served: TPE reference: {e}"))?;
        let want_a = grid::report_digest(&grid_ref);
        let want_b = grid::report_digest(&tpe_ref);
        eprintln!("  reference digests: grid {want_a:016x}, TPE {want_b:016x}");
        if self.digest_a != Some(want_a) {
            return Err(format!(
                "served: tenant a digest {:016x?} differs from the threaded grid's {want_a:016x}",
                self.digest_a
            ));
        }
        if self.digest_b != Some(want_b) {
            return Err(format!(
                "served: tenant b digest {:016x?} differs from the standalone TPE run's {want_b:016x}",
                self.digest_b
            ));
        }
        match self.expected {
            Some((ea, eb)) if (ea, eb) != (want_a, want_b) => Err(format!(
                "served: digests a {want_a:016x}, b {want_b:016x} differ from the checked-in \
                 a {ea:016x}, b {eb:016x}"
            )),
            _ => Ok(()),
        }
    }
}
