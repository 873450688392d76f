//! `dag_loopback`: one large no-op task graph on two in-process loopback
//! `WorkerServer`s, ended by a single `barrier`.
//!
//! The graph is a chain of width-8 fan-out/fan-in diamond cells (the shape
//! of HPO waves). Task bodies do no work, so the time goes to `rcompss`
//! graph, scheduler and barrier work and to `rnet` framing; `tinyml` is
//! idle. The whole graph is submitted behind a gate task the benchmark
//! owns, which blocks until released: submission cannot race the drain,
//! so every pass measures the same thing (submit, then drain).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use rcompss::{
    ArgSpec, Constraint, DataHandle, DistributedConfig, Runtime, RuntimeConfig, TaskDef, TaskError,
    TaskRegistry, Value, WorkerConfig, WorkerHandle, WorkerServer,
};

use crate::common::{self, Counters, Iter, Workload};
use crate::trace;

/// Fan-out width of one diamond cell.
const WIDTH: usize = 8;

/// Diamond cells of the warm-up graph each pass drains during set-up.
const WARM_CELLS: usize = 20;

/// The gate: holds the graph's root task until the benchmark opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// Opens the gate when dropped, so an error path never leaves a worker
/// executor parked in the gate (which would hang worker shutdown).
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

fn def(
    name: &str,
    body: impl Fn(&[Value]) -> Result<Vec<Value>, TaskError> + Send + Sync + 'static,
) -> TaskDef {
    TaskDef {
        name: name.into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(move |_, inputs| body(inputs)),
        alternatives: Vec::new(),
    }
}

fn input(v: &Value) -> Result<u64, TaskError> {
    v.downcast_ref::<u64>().copied().ok_or_else(|| TaskError::new("expected a u64 input"))
}

/// The three task definitions of one pass, registered on both workers.
struct Defs {
    gate: TaskDef,
    mid: TaskDef,
    join: TaskDef,
}

/// `gate` returns the seed-derived root value once opened; `mid` adds one;
/// `join` checks its inputs agree and passes their common value on, so
/// every cell adds exactly one and the last join holds `root + cells`.
fn defs(gate: Arc<Gate>, root: u64) -> Defs {
    Defs {
        gate: def("bench.gate", move |_| {
            let _s = trace::span("exec.gate");
            gate.wait();
            Ok(vec![Value::new(root)])
        }),
        mid: def("bench.mid", |inputs| {
            let _s = trace::span("exec.noop");
            Ok(vec![Value::new(input(&inputs[0])? + 1)])
        }),
        join: def("bench.join", |inputs| {
            let _s = trace::span("exec.noop");
            let first = input(&inputs[0])?;
            for v in &inputs[1..] {
                if input(v)? != first {
                    return Err(TaskError::new("join inputs disagree"));
                }
            }
            Ok(vec![Value::new(first)])
        }),
    }
}

/// Spawn two loopback workers of one core each serving `registry`.
pub fn spawn_workers(registry: &TaskRegistry) -> Result<Vec<WorkerHandle>, String> {
    (0..2)
        .map(|i| {
            let cfg =
                WorkerConfig { name: format!("bench-w{i}"), cores: 1, ..WorkerConfig::default() };
            WorkerServer::bind("127.0.0.1:0", cfg, registry.clone())
                .and_then(WorkerServer::spawn)
                .map_err(|e| format!("spawning loopback worker {i}: {e}"))
        })
        .collect()
}

/// Submit `cells` diamond cells hanging off `x`; returns the last join.
fn submit_cells(
    rt: &Runtime,
    d: &Defs,
    mut x: DataHandle,
    cells: usize,
) -> Result<DataHandle, String> {
    let submit = |def: &TaskDef, args: Vec<ArgSpec>| {
        let _s = trace::span("call.submit");
        rt.submit(def, args).map(|r| r.returns[0]).map_err(|e| format!("dag: submit failed: {e}"))
    };
    for _ in 0..cells {
        let mids = (0..WIDTH)
            .map(|_| submit(&d.mid, vec![ArgSpec::In(x)]))
            .collect::<Result<Vec<_>, _>>()?;
        x = submit(&d.join, mids.into_iter().map(ArgSpec::In).collect())?;
    }
    Ok(x)
}

pub struct DagLoopback {
    cells: usize,
    root: u64,
}

impl DagLoopback {
    pub fn new(cells: usize, seed: u64) -> DagLoopback {
        DagLoopback { cells, root: 1 + seed % 1000 }
    }

    /// Tasks in one pass: the gate plus nine per cell.
    fn tasks(&self) -> u64 {
        1 + (WIDTH as u64 + 1) * self.cells as u64
    }
}

impl Workload for DagLoopback {
    fn iterate(&mut self, traced: bool) -> Result<Iter, String> {
        let t_setup = Instant::now();
        let gate = Arc::new(Gate::default());
        let d = defs(Arc::clone(&gate), self.root);
        let registry =
            TaskRegistry::new().with(d.gate.clone()).with(d.mid.clone()).with(d.join.clone());
        let workers = spawn_workers(&registry)?;
        let addrs: Vec<String> = workers.iter().map(WorkerHandle::addr).collect();
        let cfg = RuntimeConfig::single_node(1).with_tracing(false).with_metrics(true);
        let rt = Runtime::distributed(cfg, &addrs, DistributedConfig::default())
            .map_err(|e| format!("dag: connecting to loopback workers: {e}"))?;
        // Declared after the runtime and workers so it drops before them.
        let _open = OpenOnDrop(Arc::clone(&gate));
        // Warm-up: ungated cells push connections, codecs, executor threads
        // and the allocator through their first use before the timed pass.
        let warm = submit_cells(&rt, &d, rt.literal(0u64), WARM_CELLS)?;
        rt.barrier();
        if rt.wait_on(&warm).ok().and_then(|v| v.downcast_ref::<u64>().copied())
            != Some(WARM_CELLS as u64)
        {
            return Err("dag: warm-up graph returned a wrong value".to_string());
        }
        let setup_s = t_setup.elapsed().as_secs_f64();

        let (c0, s0) = (Counters::take(&rt.metrics()), rt.stats());
        let root = traced.then(|| trace::begin("iter.dag_loopback"));
        let t0 = Instant::now();
        let m0 = trace::mark_us();
        let gated = {
            let _s = trace::span("call.submit");
            rt.submit(&d.gate, vec![]).map_err(|e| format!("dag: submitting the gate: {e}"))?
        };
        let last = submit_cells(&rt, &d, gated.returns[0], self.cells)?;
        {
            let _s = trace::span("call.release");
            gate.release();
        }
        {
            let _s = trace::span("call.barrier");
            rt.barrier();
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let m1 = trace::mark_us();
        let spans = root.map(trace::end);
        let (c1, s1) = (Counters::take(&rt.metrics()), rt.stats());
        let value = rt.wait_on(&last).ok().and_then(|v| v.downcast_ref::<u64>().copied());
        drop(rt);
        for w in workers {
            w.join().map_err(|e| format!("dag: worker shutdown: {e}"))?;
        }

        let (submitted, completed, failed) =
            (s1.submitted - s0.submitted, s1.completed - s0.completed, s1.failed - s0.failed);
        if submitted != self.tasks() || completed != submitted || failed != 0 {
            return Err(format!(
                "dag: submitted {submitted}, completed {completed}, failed {failed}; expected {} each and no failures",
                self.tasks()
            ));
        }
        let want = self.root + self.cells as u64;
        if value != Some(want) {
            return Err(format!("dag: final join holds {value:?}, closed form gives {want}"));
        }
        let tasks = completed as f64;
        let mut it = Iter {
            setup_s,
            wall_s,
            // The graph's one result, the last join, is there for the
            // caller when the barrier returns.
            first_row_s: wall_s,
            epochs: tasks,
            tasks,
            attempted: submitted,
            failed,
            layers: common::idle_layers(),
        };
        if let Some(spans) = spans {
            let exec_s = trace::total(&spans, "exec.noop");
            let l = &mut it.layers;
            let submits = trace::count(&spans, "call.submit") as f64;
            l.insert("rcompss.submit_us", trace::total(&spans, "call.submit") / submits * 1e6);
            l.insert("rcompss.barrier_s", trace::total(&spans, "call.barrier"));
            common::runtime_layers(l, &c0, &c1, exec_s, wall_s, tasks);
            common::check_accounting(
                l,
                &spans,
                &["call.submit", "call.release", "call.barrier"],
                (m0, m1),
                exec_s,
            )?;
        }
        Ok(it)
    }

    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }
}
