//! The repo benchmark.
//!
//! ```text
//! orpheus-benchmark --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! orpheus-benchmark [--workload W] [--seed N] [--seconds S] [--smoke] [--repeat K]
//!                                                   every run, one child process each
//! orpheus-benchmark compare BASE.json NEW.json      verdict per (metric, workload)
//! orpheus-benchmark golden [--seed N] [--workload W]   write the expected outputs: benchmark/golden/
//!                                                   at the default seed, benchmark/out/ at another
//! ```
//!
//! One run prints `workload metric value unit n` lines and, last, the result
//! line: with `--trace 0` the end-to-end metrics, measured with every
//! recorder off; with `--trace 1` the per-layer metrics, measured by timing
//! the public calls into each crate from this package's own files.
//! `benchmark/README.md` says what each number is for.

mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use oracle::Oracle;
use report::{quoted, Metric, RunRecord, Spec};
use stats::{ns_to_ms, per_window, percentile_of, quiet_decile, window_spans, WINDOW_OPS};
use trace::Recorder;
use workloads::{run_ops, set_up, Driver, Until, Workload, WORKLOADS};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

// Counting allocator behind `core.steady_allocs_per_run`. The counter is
// per thread, and the engine runs on the calling thread at `threads(1)`, so
// a probe reads exactly its own traffic.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub fn alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn bump() {
    // `try_with`, so an allocation during thread teardown cannot panic.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; `bump` touches only a
// thread-local counter and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Directory of this package: `run.sh` exports it; from the repo root the
/// default is right.
fn bench_dir() -> PathBuf {
    std::env::var_os("ORPHEUS_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn out_dir() -> Res<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn spec() -> Res<Spec> {
    Spec::read(&bench_dir().join("..").join("BENCHMARK.json"))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?
        .parse()?;
    Ok(kb / 1024.0)
}

/// Where a run leaves its metrics, sample counts and raw samples.
fn run_artifact(w: &Workload, trace: bool) -> Res<PathBuf> {
    Ok(out_dir()?.join(format!("run_{}_trace{}.json", w.name, u8::from(trace))))
}

/// The file holding the expected outputs of `w` at `seed`: committed for the
/// default seed, written under `out/` by `golden --seed` for another.
fn golden_file(w: &Workload, seed: u64) -> Res<PathBuf> {
    Ok(if seed == oracle::DEFAULT_SEED {
        bench_dir().join("golden").join(w.golden)
    } else {
        out_dir()?.join(format!("seed{seed}_{}", w.golden))
    })
}

/// Set-ups in one timed run, each followed by its share of the run's
/// seconds: four in a full run, so `setup_s` has samples from all along the
/// run to pick its quietest from; one in a smoke run.
fn rounds(seconds: u64) -> u32 {
    (seconds / 6).clamp(1, 4) as u32
}

/// `--trace 0`: the end-to-end metrics, every recorder off. After the
/// oracle, the process does what a deployment of the workload does and
/// nothing else that holds memory, so its own peak is the workload's
/// footprint. The peak is read when the first round's ops are done: a later
/// round sets up in the heap the first one left behind, and where glibc puts
/// a re-loaded model there differs from run to run by a tenth of the peak.
fn timed_run(w: &Workload, seed: u64, seconds: u64) -> Res<RunRecord> {
    let inputs = oracle::make_inputs(seed, &w.input_dims(), w.inputs);
    if seed != oracle::DEFAULT_SEED {
        // The reference session answers in a child process, so that this
        // one's peak is the workload's alone at every seed.
        let child = Command::new(std::env::current_exe()?)
            .args(["golden", "--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .stdout(Stdio::null())
            .status()?;
        if !child.success() {
            return Err(format!("golden --seed {seed} exited with {child}").into());
        }
    }
    let oracle = Oracle::of(w, &inputs, Some(&golden_file(w, seed)?), false)?;
    let mut rec = Recorder::new(false);
    let rounds = rounds(seconds);
    let mut setup_ns = Vec::new();
    let mut samples_ns = Vec::new();
    // One value per window, over the windows of every round.
    let (mut p50_ns, mut p95_ns, mut span_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut done, mut loop_ns) = (0, 0, 0, 0);
    let mut peak_mb = 0.0;
    for round in 0..rounds {
        let t0 = Instant::now();
        let mut ready = set_up(w, &inputs, &mut rec)?;
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        let until = Until::Elapsed(Duration::from_secs(seconds) / rounds);
        let m = run_ops(&mut ready, &inputs, &oracle, seed, until, &mut rec)?;
        ready.finish()?;
        if round == 0 {
            peak_mb = peak_rss_mb()?;
        }
        p50_ns.extend(per_window(&m.latency_ns, m.latency_window, |w| {
            percentile_of(w, 50.0)
        }));
        p95_ns.extend(per_window(&m.latency_ns, m.latency_window, |w| {
            percentile_of(w, 95.0)
        }));
        span_ns.extend(window_spans(&m.done_ns, WINDOW_OPS));
        attempted += m.attempted;
        failed += m.failed;
        done += m.done_ns.len();
        loop_ns += m.done_ns.last().copied().unwrap_or(0);
        samples_ns.extend(m.latency_ns);
    }
    if p50_ns.is_empty() || span_ns.is_empty() {
        return Err("too few ops succeeded to fill one window".into());
    }
    let metrics = vec![
        Metric::new(
            "setup_s",
            quiet_decile(&setup_ns) as f64 / 1e9,
            "s",
            setup_ns.len(),
        ),
        Metric::new(
            "latency_p50_ms",
            ns_to_ms(quiet_decile(&p50_ns)),
            "ms",
            p50_ns.len(),
        ),
        Metric::new(
            "latency_p95_ms",
            ns_to_ms(quiet_decile(&p95_ns)),
            "ms",
            p95_ns.len(),
        ),
        Metric::new(
            "throughput_ops_s",
            WINDOW_OPS as f64 * 1e9 / quiet_decile(&span_ns) as f64,
            "ops/s",
            span_ns.len(),
        ),
        Metric::new(
            "correct_share",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
            attempted as usize,
        ),
        Metric::new("peak_rss_mb", peak_mb, "MiB", 1),
    ];
    // The plain statistics over the whole run, for a reader who wants to see
    // what the quiet-window metrics leave out.
    let mut sorted = samples_ns.clone();
    let whole_run = format!(
        "{{\"latency_p50_ms\": {}, \"latency_p95_ms\": {}, \"throughput_ops_s\": {}}}",
        ns_to_ms(percentile_of(&mut sorted, 50.0)),
        ns_to_ms(percentile_of(&mut sorted, 95.0)),
        done as f64 * 1e9 / loop_ns as f64
    );
    let setups = format!(
        "[{}]",
        setup_ns
            .iter()
            .map(|ns| (*ns as f64 / 1e9).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(RunRecord {
        workload: w.name.to_string(),
        seed,
        seconds,
        trace: false,
        attempted,
        failed,
        metrics,
        samples_ns,
        header: vec![("whole_run".into(), whole_run), ("setups_s".into(), setups)],
        ..RunRecord::default()
    })
}

/// `--trace 1`: the per-layer metrics. Replays the workload's loop with the
/// benchmark's recorder off and then on (their difference is the tracing
/// overhead), then runs the probes, all under spans, and writes the trace.
fn traced_run(w: &Workload, seed: u64, seconds: u64) -> Res<RunRecord> {
    let reps = if seconds >= 10 { 30 } else { 5 };
    let replay = Until::Ops(match w.driver {
        Driver::Stream => reps * 2,
        Driver::ServeBurst => reps / 2,
        Driver::ColdStart => reps,
    });
    let inputs = oracle::make_inputs(seed, &w.input_dims(), w.inputs);
    let golden = (seed == oracle::DEFAULT_SEED)
        .then(|| golden_file(w, seed))
        .transpose()?;
    let oracle = Oracle::of(w, &inputs, golden.as_deref(), true)?;
    let mut rec = Recorder::new(true);
    let span = rec.begin("bench.set_up");
    let mut ready = set_up(w, &inputs, &mut rec)?;
    rec.end(span);
    rec.set_on(false);
    let mut plain = run_ops(&mut ready, &inputs, &oracle, seed, replay, &mut rec)?;
    rec.set_on(true);
    let mut traced = run_ops(&mut ready, &inputs, &oracle, seed, replay, &mut rec)?;
    ready.finish()?;
    if plain.latency_ns.is_empty() || traced.latency_ns.is_empty() {
        return Err("no replayed op succeeded".into());
    }
    let samples_ns = traced.latency_ns.clone();
    let plain_ns = stats::percentile_of(&mut plain.latency_ns, 50.0) as f64;
    let traced_ns = stats::percentile_of(&mut traced.latency_ns, 50.0) as f64;

    let mut probed = probes::run(w, &inputs, &oracle, seed, reps, &mut rec)?;
    probed.metrics.push(Metric::new(
        "trace_overhead_pct",
        100.0 * (traced_ns - plain_ns) / plain_ns,
        "%",
        samples_ns.len(),
    ));

    let out = out_dir()?;
    std::fs::write(out.join(format!("trace_{}.json", w.name)), rec.to_chrome())?;
    let spans: Vec<String> = rec
        .summary()
        .iter()
        .map(|s| {
            format!(
                "{{\"span\": {}, \"count\": {}, \"p50_us\": {}, \"total_us\": {}, \"self_us\": {}}}",
                quoted(&s.name),
                s.count,
                s.p50_ns as f64 / 1e3,
                s.total_ns as f64 / 1e3,
                s.self_ns as f64 / 1e3
            )
        })
        .collect();
    let table = format!(
        "{{\"rows\": {},\n\"spans\": [\n  {}\n]}}",
        probed.layer_table,
        spans.join(",\n  ")
    );
    std::fs::write(out.join(format!("layers_{}.json", w.name)), &table)?;

    Ok(RunRecord {
        workload: w.name.to_string(),
        seed,
        seconds,
        trace: true,
        attempted: plain.attempted + traced.attempted + probed.attempted,
        failed: plain.failed + traced.failed + probed.failed,
        metrics: probed.metrics,
        samples_ns,
        header: probed.header,
        layer_table: Some(table),
    })
}

/// Checks a run's metric names against `BENCHMARK.json` and puts them in
/// its order, so the result line is exactly what the file declares.
fn in_declared_order(record: &mut RunRecord, spec: &Spec) -> Res<()> {
    let declared = if record.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut ordered = Vec::with_capacity(declared.len());
    for d in declared {
        let found = record
            .metrics
            .iter()
            .find(|m| m.name == d.name)
            .ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares {}, the run did not measure it",
                    d.name
                )
            })?;
        if found.unit != d.unit {
            return Err(format!(
                "{}: measured in {}, declared in {}",
                d.name, found.unit, d.unit
            )
            .into());
        }
        ordered.push(found.clone());
    }
    if let Some(extra) = record
        .metrics
        .iter()
        .find(|m| declared.iter().all(|d| d.name != m.name))
    {
        return Err(format!(
            "the run measured {}, BENCHMARK.json does not declare it",
            extra.name
        )
        .into());
    }
    record.metrics = ordered;
    Ok(())
}

/// One run in this process; prints the metric lines and the result line.
fn single_run(opts: &Options) -> Res<ExitCode> {
    let name = opts.workloads.first().ok_or("--trace needs --workload")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let spec = spec()?;
    let seconds = opts.seconds.unwrap_or(spec.run_seconds);
    let mut record = if opts.trace == Some(true) {
        traced_run(w, opts.seed, seconds)?
    } else {
        timed_run(w, opts.seed, seconds)?
    };
    in_declared_order(&mut record, &spec)?;
    std::fs::write(run_artifact(w, record.trace)?, record.to_json()?)?;
    for m in &record.metrics {
        println!("{} {} {} {} {}", w.name, m.name, m.value, m.unit, m.n);
    }
    println!(
        "{}",
        report::result_line(record.attempted, record.failed, &record.metrics)?
    );
    Ok(ExitCode::SUCCESS)
}

#[derive(Debug, Default)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Res<Options> {
    let mut opts = Options {
        seed: oracle::DEFAULT_SEED,
        repeat: 1,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Res<&String> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value").into())
        };
        match arg.as_str() {
            "--workload" => opts.workloads.push(value("--workload")?.clone()),
            "--seed" => opts.seed = value("--seed")?.parse()?,
            "--seconds" => opts.seconds = Some(value("--seconds")?.parse()?),
            "--trace" => {
                opts.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                })
            }
            "--smoke" => opts.smoke = true,
            "--repeat" => opts.repeat = value("--repeat")?.parse()?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

/// Spawns one run as a child process of this same binary, passes its metric
/// lines through, and returns the artifact it wrote and its failed count.
fn child_run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Res<(String, u64)> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name,
            u8::from(trace),
            output.status
        )
        .into());
    }
    // Everything but the result line, which the artifact repeats.
    let stdout = String::from_utf8(output.stdout)?;
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    let artifact = std::fs::read_to_string(run_artifact(w, trace)?)?;
    let failed = orpheus_observe::json::JsonValue::parse(&artifact)?
        .get("failed")
        .and_then(|f| f.as_u64())
        .ok_or("run artifact without a failed count")?;
    Ok((artifact, failed))
}

fn metric_value(run_json: &str, metric: &str) -> Res<f64> {
    orpheus_observe::json::JsonValue::parse(run_json)?
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("no metric {metric} in the run artifact").into())
}

/// The workloads `--workload` named, or all of them.
fn selected(opts: &Options) -> Res<Vec<&'static Workload>> {
    if opts.workloads.is_empty() {
        return Ok(WORKLOADS.iter().collect());
    }
    opts.workloads
        .iter()
        .map(|n| workloads::find(n).ok_or_else(|| format!("unknown workload {n:?}").into()))
        .collect()
}

/// Every workload, each run a child process: `--repeat` sets of a timed
/// run and a traced run per workload, folded into `BENCH_<sha>.json`.
fn run_all(opts: &Options) -> Res<ExitCode> {
    let spec = spec()?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if spec.workloads != names {
        return Err(format!(
            "BENCHMARK.json lists {:?}, the harness runs {names:?}",
            spec.workloads
        )
        .into());
    }
    let seconds = opts
        .seconds
        .unwrap_or(if opts.smoke { 2 } else { spec.run_seconds });
    let selected = selected(opts)?;
    // Every run's artifact, with its workload and whether it was traced.
    let mut runs: Vec<(&Workload, bool, String)> = Vec::new();
    let mut problems = Vec::new();
    for _set in 0..opts.repeat.max(1) {
        for w in &selected {
            for trace in [false, true] {
                let (artifact, failed) = child_run(w, opts.seed, seconds, trace)?;
                if failed > 0 {
                    problems.push(format!("{}: {failed} wrong or failed op(s)", w.name));
                }
                runs.push((w, trace, artifact));
            }
        }
    }
    for (w, _, artifact) in runs.iter().filter(|(_, trace, _)| *trace) {
        for must_be_zero in ["ops.replay_mismatch", "core.steady_allocs_per_run"] {
            let value = metric_value(artifact, must_be_zero)?;
            if value != 0.0 {
                problems.push(format!("{}: {must_be_zero} is {value}, not 0", w.name));
            }
        }
        let lag = metric_value(artifact, "serve.sched_lag_p95_us")?;
        // At --smoke's six bursts the p95 is the one latest burst: no verdict.
        if w.driver == Driver::ServeBurst && !opts.smoke && lag >= 1000.0 {
            problems.push(format!(
                "{}: the generator ran {lag} us late at p95",
                w.name
            ));
        }
    }
    if opts.repeat > 1 {
        println!(
            "# spread between the {} sets, against each metric's bound",
            opts.repeat
        );
        for w in &selected {
            for metric in &spec.end_to_end {
                let values: Vec<f64> = runs
                    .iter()
                    .filter(|(run, trace, _)| run.name == w.name && !trace)
                    .map(|(_, _, artifact)| metric_value(artifact, &metric.name))
                    .collect::<Res<_>>()?;
                let (spread, bound) = (report::spread(&values), metric.bound.unwrap_or(0.0));
                println!(
                    "{} {} spread {:.2}% bound {:.1}% values {values:?}",
                    w.name,
                    metric.name,
                    spread * 100.0,
                    bound * 100.0
                );
                if spread > bound {
                    problems.push(format!(
                        "{} {}: sets differ by {:.2}%, over the {:.1}% bound",
                        w.name,
                        metric.name,
                        spread * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    let sha = std::env::var("ORPHEUS_BENCH_SHA").unwrap_or_else(|_| "nogit".into());
    let rustc = std::env::var("ORPHEUS_BENCH_RUSTC").unwrap_or_default();
    let bounds: Vec<String> = spec
        .end_to_end
        .iter()
        .map(|m| format!("{}: {}", quoted(&m.name), m.bound.unwrap_or(0.0)))
        .collect();
    let artifact = out_dir()?.join(format!("BENCH_{sha}.json"));
    std::fs::write(
        &artifact,
        format!(
            "{{\"schema\": 1, \"sha\": {}, \"rustc\": {}, \"seed\": {}, \"seconds\": {seconds}, \
             \"bounds\": {{{}}},\n\"runs\": [\n{}\n]}}\n",
            quoted(&sha),
            quoted(&rustc),
            opts.seed,
            bounds.join(", "),
            runs.iter()
                .map(|(_, _, artifact)| artifact.as_str())
                .collect::<Vec<_>>()
                .join(",\n")
        ),
    )?;
    println!("# wrote {}", artifact.display());
    if problems.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    for problem in &problems {
        eprintln!("FAIL {problem}");
    }
    Ok(ExitCode::FAILURE)
}

/// `golden`: writes what the reference session answers to the inputs of
/// `seed`, for every workload or the ones named.
fn write_golden(opts: &Options) -> Res<ExitCode> {
    let mut written: Vec<&str> = Vec::new();
    for w in selected(opts)? {
        if written.contains(&w.golden) {
            continue;
        }
        // The most inputs any workload sharing this file needs.
        let count = WORKLOADS
            .iter()
            .filter(|other| other.golden == w.golden)
            .map(|other| other.inputs)
            .max()
            .unwrap_or(w.inputs);
        let inputs = oracle::make_inputs(opts.seed, &w.input_dims(), count);
        let network = workloads::engine(1)?.load(workloads::model_graph(w))?;
        let path = golden_file(w, opts.seed)?;
        oracle::write_golden(&path, &oracle::reference_outputs(&network, &inputs)?)?;
        println!("wrote {}", path.display());
        written.push(w.golden);
    }
    Ok(ExitCode::SUCCESS)
}

fn run() -> Res<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    match opts.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, base, new] = opts.positional.as_slice() else {
                return Err("usage: compare BASE.json NEW.json".into());
            };
            let regressed = report::compare(&spec()?, Path::new(base), Path::new(new))?;
            Ok(if regressed {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("golden") => write_golden(&opts),
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None if opts.trace.is_some() => single_run(&opts),
        None => run_all(&opts),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("orpheus-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
