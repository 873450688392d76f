//! The repository benchmark: two workloads over the HPO stack, driven
//! from outside through public APIs only, with output checks, end-to-end
//! metrics from untraced passes and per-layer metrics from traced ones.
//!
//! ```text
//! perfbench --workload <dag_loopback|served_mixed>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` in self-test
//! mode and writes traces under `.perfbench/`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). Progress goes to standard error.
//! See NOTES.md for why each workload exists and what each metric means.

mod common;
mod dag;
mod grid;
mod host;
mod served;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::{median, Iter, Workload, END_TO_END, PER_LAYER};

/// The seed the checked-in digests belong to.
const DEFAULT_SEED: u64 = 1;

/// Workload sizes: the measured size, and a tiny one for `--self-test`.
#[derive(Clone, Copy)]
struct Size {
    /// Training examples of the synthetic MNIST-like dataset.
    samples: usize,
    /// Diamond cells of the no-op graph (nine tasks each, plus the gate).
    cells: usize,
}

const FULL: Size = Size { samples: 1000, cells: 1111 };
const TINY: Size = Size { samples: 120, cells: 30 };

/// Checked-in leaderboard digests `(samples, seed) → (paper grid, TPE)`
/// of served tenants `a` and `b`. The grid digest is also the naive
/// threaded grid's: the trial table is bit-identical across backend,
/// sharing mode and server.
const DIGESTS: &[(usize, u64, u64, u64)] = &[
    (1000, DEFAULT_SEED, 0x3eb1_b3d3_9c00_66d7, 0x928a_559b_4e70_a0d8),
    (120, DEFAULT_SEED, 0x04e0_f50a_0e5b_df9d, 0xb80a_e4e1_f7bc_65e0),
];

fn expected_digests(size: Size, seed: u64) -> Option<(u64, u64)> {
    DIGESTS.iter().find(|d| d.0 == size.samples && d.1 == seed).map(|d| (d.2, d.3))
}

const WORKLOADS: &[&str] = &["dag_loopback", "served_mixed"];

fn workload(name: &str, size: Size, seed: u64) -> Box<dyn Workload> {
    let expected = if seed == DEFAULT_SEED { expected_digests(size, seed) } else { None };
    match name {
        "dag_loopback" => Box::new(dag::DagLoopback::new(size.cells, seed)),
        "served_mixed" => Box::new(served::ServedMixed::new(size.samples, seed, expected)),
        other => unreachable!("workload {other} was validated at argument parsing"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Everything one run measured.
struct Run {
    untraced: Vec<Iter>,
    traced: Vec<Iter>,
    calib_ms: Vec<f64>,
    /// Peak resident set after the first pass: what one set-up plus one
    /// timed pass needs. Later passes only add allocator fragmentation
    /// left by torn-down runtimes, which varies from run to run.
    first_pass_rss_mb: f64,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.untraced.iter().chain(&self.traced).map(|i| i.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.untraced.iter().chain(&self.traced).map(|i| i.failed).sum()
    }
}

/// Passes of each kind a run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// Run passes until `seconds` have elapsed and every kind has its
/// minimum; in trace mode untraced and traced passes alternate, so
/// `trace.overhead_frac` compares neighbours in time. The host probe runs
/// before the first pass and after each one.
fn measure(w: &mut dyn Workload, seconds: u64, trace: bool, min: usize) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        calib_ms: vec![host::calibrate_ms()],
        first_pass_rss_mb: 0.0,
    };
    let done = |run: &Run| {
        start.elapsed() >= Duration::from_secs(seconds)
            && run.untraced.len() >= min
            && (!trace || run.traced.len() >= min)
    };
    while !done(&run) {
        let traced = trace && run.traced.len() < run.untraced.len();
        let it = w.iterate(traced)?;
        let rss = host::peak_rss_mb().unwrap_or(0.0);
        if run.untraced.is_empty() && run.traced.is_empty() {
            run.first_pass_rss_mb = rss;
        }
        let calib = host::calibrate_ms();
        eprintln!(
            "  pass {:>2}{}: setup {:.4} s  wall {:.4} s  first row {:.4} s  {:.1} epochs/s  {:.1} tasks/s  peak rss {:.1} MiB  calib {calib:.2} ms",
            run.untraced.len() + run.traced.len() + 1,
            if traced { " (traced)" } else { "" },
            it.setup_s,
            it.wall_s,
            it.first_row_s,
            it.epochs / it.wall_s,
            it.tasks / it.wall_s,
            rss,
        );
        run.calib_ms.push(calib);
        if traced {
            eprintln!(
                "           exec {:.4} s  idle {:.3}  barrier {:.4} s  trace residual {:.4}",
                it.layers["rcompss.exec_s"],
                it.layers["rcompss.core_idle_frac"],
                it.layers["rcompss.barrier_s"],
                it.layers.get("trace.residual_frac").copied().unwrap_or(0.0),
            );
            run.traced.push(it);
        } else {
            run.untraced.push(it);
        }
    }
    w.verify()?;
    Ok(run)
}

/// End-to-end metrics: medians over the untraced passes.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let of = |f: &dyn Fn(&Iter) -> f64| median(&run.untraced.iter().map(f).collect::<Vec<_>>());
    BTreeMap::from([
        ("wall_s", of(&|i| i.wall_s)),
        ("setup_s", of(&|i| i.setup_s)),
        ("epochs_per_s", of(&|i| i.epochs / i.wall_s)),
        ("tasks_per_s", of(&|i| i.tasks / i.wall_s)),
        ("first_row_s", of(&|i| i.first_row_s)),
        ("peak_rss_mb", run.first_pass_rss_mb),
    ])
}

/// Per-layer metrics: medians over the traced passes, plus the host probe
/// and the tracing overhead against the untraced passes of the same run.
fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            (
                name,
                median(
                    &run.traced
                        .iter()
                        .filter_map(|i| i.layers.get(name).copied())
                        .collect::<Vec<_>>(),
                ),
            )
        })
        .collect();
    let wall = |v: &[Iter]| median(&v.iter().map(|i| i.wall_s).collect::<Vec<_>>());
    out.insert("host.calib_ms", median(&run.calib_ms));
    out.insert("trace.overhead_frac", wall(&run.traced) / wall(&run.untraced) - 1.0);
    out
}

/// One printed metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Metric rows in catalogue order; a non-finite value is an error.
fn rows(
    catalogue: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<Metric>, String> {
    catalogue
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            v => Err(format!("metric {name} has no finite value ({v:?})")),
        })
        .collect()
}

fn run_workload(args: &Args) -> Result<(Run, Vec<Metric>), String> {
    eprintln!(
        "{} seed {} for {} s{}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let mut w = workload(&args.workload, FULL, args.seed);
    let run = measure(w.as_mut(), args.seconds, args.trace, MIN_PASSES)?;
    let metrics = if args.trace {
        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let n =
            trace::write_chrome(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("  {n} spans written to {}", path.display());
        rows(PER_LAYER, &per_layer(&run))?
    } else {
        rows(END_TO_END, &end_to_end(&run))?
    };
    Ok((run, metrics))
}

/// `--self-test`: every workload once untraced and once traced at tiny
/// size, outputs checked, and every metric `BENCHMARK.json` names printed
/// with its unit.
fn self_test() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let json = hpo::config::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = |key: &str| -> Result<Vec<(String, String)>, String> {
        use hpo::config::json::Json;
        let Json::Object(root) = &json else {
            return Err("BENCHMARK.json is not an object".into());
        };
        let Some(Json::Array(items)) = root.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        items
            .iter()
            .map(|item| match item {
                Json::Object(m) => match (m.get("name"), m.get("unit")) {
                    (Some(Json::String(n)), Some(Json::String(u))) => Ok((n.clone(), u.clone())),
                    (Some(Json::String(n)), None) => Ok((n.clone(), String::new())),
                    _ => Err(format!("a {key} entry lacks a name")),
                },
                _ => Err(format!("a {key} entry is not an object")),
            })
            .collect()
    };
    let workloads = declared("workloads")?;
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    if names != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {names:?} differ from {WORKLOADS:?}"));
    }
    for name in WORKLOADS {
        for trace in [false, true] {
            let mut w = workload(name, TINY, DEFAULT_SEED);
            eprintln!("self-test {name}{}", if trace { " traced" } else { "" });
            let run = measure(w.as_mut(), 0, trace, 1)?;
            let (key, printed) = if trace {
                ("per_layer", rows(PER_LAYER, &per_layer(&run))?)
            } else {
                ("end_to_end", rows(END_TO_END, &end_to_end(&run))?)
            };
            if run.failed() != 0 || run.attempted() == 0 {
                return Err(format!(
                    "{name}: {} of {} operations failed",
                    run.failed(),
                    run.attempted()
                ));
            }
            let printed: Vec<(String, String)> =
                printed.iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect();
            let want = declared(key)?;
            if printed != want {
                return Err(format!(
                    "{name}: printed {key} metrics {printed:?}, BENCHMARK.json declares {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Longest a run may take before it gives up without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {} s, giving up", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    // The program's default settings: the metrics registries on (the
    // runtime's, and the process-global one training and the workers'
    // block caches report to), runtime tracing off.
    runmetrics::global().set_enabled(true);
    hpo::wire::register_hpo_codecs();

    if args.self_test {
        match self_test() {
            Ok(()) => println!("self-test ok"),
            Err(e) => {
                eprintln!("perfbench self-test: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run_workload(&args) {
        Ok((run, metrics)) => {
            for (name, value, unit) in &metrics {
                eprintln!("  {name:<30} {value:>16.6} {unit}");
            }
            println!("{}", result_json(true, run.attempted(), run.failed(), &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_json(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}
