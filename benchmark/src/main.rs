//! The repository benchmark: one workload per process, end-to-end metrics
//! untraced, per-layer metrics from a separate traced run.
//!
//! ```text
//! vaem-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! a readable summary. See `README.md` for the workloads and metrics.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Counters, Job, Outcome, DEFAULT_SEED, RESIDUAL_TOLERANCE};

/// Most worker threads of any run (the host's CPU count). A workload runs
/// at its own count (`Job::threads`, at most this); the traced run also
/// measures it at this count and at one thread, for the `parallel.*` metrics.
const THREADS: usize = 2;
/// Least and most set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (3, 9);
/// Set-ups beyond the least repeat while they take less than this share
/// of `--seconds`.
const SETUP_SHARE: f64 = 0.15;
/// A timing's tail percentile keeps this many samples beyond it.
const TAIL_BEYOND: usize = 10;
/// Measured iterations per untraced run at the least, whatever `--seconds`
/// says: enough that some percentile has `TAIL_BEYOND` samples beyond it.
/// Otherwise a slow job (`tsv_variation`) would flip between runs of ten
/// iterations, whose tail is their maximum, and runs of eleven, whose tail
/// is their minimum.
const MIN_ITERATIONS: usize = TAIL_BEYOND + 1;
/// Probe repetitions of the traced run; per-layer probe times are medians.
const PROBE_REPS: usize = 3;
/// Measurement stops early once the process has run this long, so a run
/// always ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(150);

/// End-to-end metrics, printed by the untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_ms_p50", "ms"),
    ("wall_ms_tail", "ms"),
    ("solves_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run.
const PER_LAYER: [(&str, &str); 40] = [
    ("mesh.build_ms", "ms"),
    ("fvm.topology_ms", "ms"),
    ("fvm.dc_ms", "ms"),
    ("fvm.newton_iters", "count"),
    ("fvm.ac_prepare_ms", "ms"),
    ("fvm.solve_terminal_ms", "ms"),
    ("fvm.ms_per_rhs", "ms"),
    ("fvm.sweep_ms", "ms"),
    ("fvm.ms_per_point", "ms"),
    ("fvm.postprocess_ms", "ms"),
    ("sparse.krylov_solves", "count"),
    ("sparse.direct_solves", "count"),
    ("sparse.max_residual", "ratio"),
    ("core.sscm_ms", "ms"),
    ("core.mc_ms", "ms"),
    ("core.samples", "count"),
    ("core.ms_per_sample", "ms"),
    ("core.evaluate_sample_ms", "ms"),
    ("core.grid_points", "count"),
    ("core.refined_points", "count"),
    ("core.waves", "count"),
    ("core.ac_solves", "count"),
    ("core.quarantined", "count"),
    ("core.recovered", "count"),
    ("fvm.seed.dc_seeded", "count"),
    ("fvm.seed.ac_seeded", "count"),
    ("fvm.seed.dc_ilu_seeded", "count"),
    ("fvm.seed.ac_ilu_seeded", "count"),
    ("fvm.seed.stale_refactorizations", "count"),
    ("fvm.seed.donor_refreshes", "count"),
    ("variation.reduced_dims", "count"),
    ("stochastic.collocation_points", "count"),
    ("stochastic.fit_ms", "ms"),
    ("parallel.threads", "count"),
    ("parallel.cpu_busy_ratio", "ratio"),
    ("parallel.speedup_vs_1t", "x"),
    ("trace.overhead_pct", "%"),
    ("trace.traced_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("fail_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected a number >= 0"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Clears every `VAEM_*` knob (fault injection, chunking, overrides) so a
/// run sees only the inputs the benchmark generates.
fn clear_environment() {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("VAEM_"))
        .collect();
    for knob in knobs {
        std::env::remove_var(knob);
    }
}

fn set_threads(threads: usize) {
    std::env::set_var("VAEM_THREADS", threads.to_string());
}

/// Peak resident set size (MB) from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of the whole process (every thread, joined
/// ones included) from `/proc/self/stat`, in clock ticks of 1/100 s.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat
        .get(stat.rfind(')')? + 1..)?
        .split_whitespace()
        .collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Attempted and failed operations, and the reasons for each failure.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one job: the iteration itself plus each sample it attempted.
    /// The iteration fails when it errored, broke an output invariant or
    /// produced another digest than `reference`.
    fn record(&mut self, result: &Result<Outcome, String>, reference: &str) {
        self.attempted += 1;
        match result {
            Ok(outcome) => {
                self.attempted += outcome.samples_total;
                self.failed += outcome.quarantined;
                let mut problems = outcome.problems.clone();
                if outcome.digest != reference {
                    problems.push(format!(
                        "digest {} differs from the reference {reference}",
                        outcome.digest
                    ));
                }
                if !problems.is_empty() {
                    self.failed += 1;
                    self.errors.push(problems.join("; "));
                }
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.clone());
            }
        }
    }

    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A workload built from the seed, with the digest every iteration must
/// reproduce and the AC solve count of one job.
struct SetUp {
    job: Box<dyn Job>,
    reference: String,
    solves: usize,
}

/// Runs the cold set-up: inputs from the seed, then one untimed iteration.
/// The reference digest is the baseline commit's at the default seed, otherwise
/// `reference` or, on the first set-up, the cold iteration's own.
fn set_up(args: &Args, reference: Option<&str>, tally: &mut Tally) -> Result<SetUp, String> {
    let job = workloads::build(&args.workload, args.seed)?;
    set_threads(job.threads());
    let cold = job.run();
    let reference = match (job.expected_digest(), reference, &cold) {
        (Some(expected), _, _) => expected.to_string(),
        (None, Some(reference), _) => reference.to_string(),
        (None, None, Ok(outcome)) => outcome.digest.clone(),
        (None, None, Err(e)) => return Err(format!("cold iteration failed: {e}")),
    };
    tally.record(&cold, &reference);
    let solves = cold.map_or(0, |outcome| outcome.solves);
    Ok(SetUp {
        job,
        reference,
        solves,
    })
}

/// Times untraced iterations until `seconds` have been measured (and at
/// least `min` iterations ran). Returns wall times in ms.
fn measure(
    job: &dyn Job,
    reference: &str,
    seconds: f64,
    min: usize,
    start: Instant,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut walls = Vec::new();
    let mut measured = 0.0;
    while (measured < seconds || walls.len() < min)
        && (walls.is_empty() || start.elapsed() < HARD_STOP)
    {
        let t = Instant::now();
        let result = job.run();
        let wall = t.elapsed().as_secs_f64();
        measured += wall;
        walls.push(wall * 1.0e3);
        tally.record(&result, reference);
    }
    walls
}

/// Traced iterations at one thread count.
struct TracedWindow {
    /// Wall time of each iteration (ms).
    walls: Vec<f64>,
    /// Per-span self times of each iteration.
    layers: Vec<Counters>,
    /// Each successful iteration's outcome.
    outcomes: Vec<Outcome>,
    /// Process CPU time over wall time × threads of the whole window.
    busy: f64,
}

/// Times traced iterations at `threads` worker threads.
#[allow(clippy::too_many_arguments)]
fn measure_traced(
    job: &dyn Job,
    reference: &str,
    seconds: f64,
    min: usize,
    threads: usize,
    start: Instant,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> TracedWindow {
    set_threads(threads);
    let cpu_before = process_cpu_seconds();
    let window = Instant::now();
    let mut walls = Vec::new();
    let mut layers = Vec::new();
    let mut outcomes = Vec::new();
    let mut measured = 0.0;
    while (measured < seconds || walls.len() < min)
        && (walls.is_empty() || start.elapsed() < HARD_STOP)
    {
        let mark = tracer.mark();
        let result = job.run_traced(tracer);
        // The iteration's root span is the first one it opened.
        let wall = if tracer.mark() > mark {
            tracer.duration_ms(mark)
        } else {
            0.0
        };
        measured += wall / 1.0e3;
        walls.push(wall);
        layers.push(tracer.self_ms_since(mark));
        tally.record(&result, reference);
        if let Ok(outcome) = result {
            outcomes.push(outcome);
        }
    }
    let busy = match (cpu_before, process_cpu_seconds()) {
        (Some(a), Some(b)) => (b - a) / (window.elapsed().as_secs_f64() * threads as f64),
        _ => f64::NAN,
    };
    TracedWindow {
        walls,
        layers,
        outcomes,
        busy,
    }
}

/// Median per key over several maps (a key absent from a map counts as 0).
fn median_by_key(maps: &[Counters]) -> Counters {
    let keys: std::collections::BTreeSet<&'static str> =
        maps.iter().flat_map(|m| m.keys().copied()).collect();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = maps
                .iter()
                .map(|m| m.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, stats::median(&values))
        })
        .collect()
}

struct Report {
    threads: usize,
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
    summary: String,
}

fn run_untraced(args: &Args, start: Instant) -> Result<Report, String> {
    let mut tally = Tally::default();
    // The first set-up counts from process start; cheap set-ups repeat
    // until they fill their share of the run, for a steadier median.
    let first = set_up(args, None, &mut tally)?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setups.iter().sum::<f64>() < SETUP_SHARE * args.seconds)
    {
        let t = Instant::now();
        set_up(args, Some(&first.reference), &mut tally)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let SetUp {
        job,
        reference,
        solves,
    } = first;
    let threads = job.threads();

    let walls = measure(
        job.as_ref(),
        &reference,
        args.seconds,
        MIN_ITERATIONS,
        start,
        &mut tally,
    );
    let p50 = stats::median(&walls);
    let (percentile, tail, beyond) = stats::tail(&walls, TAIL_BEYOND);
    let setup_s = stats::median(&setups);
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    // Throughput over the whole measured loop: every iteration is the same
    // job, so this is the solves of all iterations over their total time.
    let solves_per_s = (solves * walls.len()) as f64 / (walls.iter().sum::<f64>() / 1.0e3);

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "iterations        {} measured, {} set-ups",
        walls.len(),
        setups.len()
    );
    let _ = writeln!(summary, "wall_ms_p50       {p50:.3} ms");
    let _ = writeln!(
        summary,
        "wall_ms_tail      {tail:.3} ms (p{percentile} of {} samples, {beyond} beyond)",
        walls.len()
    );
    let _ = writeln!(
        summary,
        "solves_per_s      {solves_per_s:.3} 1/s ({solves} AC solves per job)"
    );
    let _ = writeln!(
        summary,
        "fail_ratio        {} ({} failed of {} attempted)",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    );
    let _ = writeln!(
        summary,
        "setup_s           {setup_s:.4} s (median of {})",
        setups.len()
    );
    let _ = writeln!(summary, "peak_rss_mb       {rss:.2} MB");
    let _ = writeln!(summary, "digest            {reference}");
    let values = [p50, tail, solves_per_s, setup_s, rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();
    Ok(Report {
        threads,
        correct: tally.failed == 0 && solves > 0,
        tally,
        metrics,
        summary,
    })
}

fn run_traced(args: &Args, start: Instant) -> Result<Report, String> {
    let mut tally = Tally::default();
    let SetUp { job, reference, .. } = set_up(args, None, &mut tally)?;
    let job = job.as_ref();
    let threads = job.threads();
    let mut tracer = Tracer::new(start);

    // Untraced, then traced at the workload's thread count; the gap
    // between the two medians is the tracing overhead.
    let untraced = measure(job, &reference, 0.3 * args.seconds, 2, start, &mut tally);
    let own = measure_traced(
        job,
        &reference,
        0.3 * args.seconds,
        2,
        threads,
        start,
        &mut tracer,
        &mut tally,
    );
    let last = own.outcomes.last().cloned().unwrap_or_default();

    // Layer probes of the nominal sample, repeated for a median.
    let mut probe_layers = Vec::new();
    let mut probe_counters = Vec::new();
    for _ in 0..PROBE_REPS {
        let mark = tracer.mark();
        let probe = tracer.span("probe", |t| job.probe(t, &last));
        probe_layers.push(tracer.self_ms_since(mark));
        match probe {
            Ok(counters) => probe_counters.push(counters),
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                tally.errors.push(format!("probe: {e}"));
            }
        }
    }

    // The same traced iteration at the other end of [1, THREADS], so the
    // fan-out is compared with the plain single-thread run on every workload.
    let other = if threads == 1 { THREADS } else { 1 };
    let repeat = measure_traced(
        job,
        &reference,
        0.2 * args.seconds,
        1,
        other,
        start,
        &mut tracer,
        &mut tally,
    );
    let (single, parallel) = if threads == 1 {
        (&own, &repeat)
    } else {
        (&repeat, &own)
    };
    let speedup = stats::median(&single.walls) / stats::median(&parallel.walls);

    // Span self times are named after their layer call ("fvm.dc"); the
    // metric adds the unit ("fvm.dc_ms"). Counters carry the metric name.
    let iteration_layers = median_by_key(&own.layers);
    let fvm_ms: f64 = iteration_layers
        .iter()
        .filter(|(k, _)| k.starts_with("fvm."))
        .map(|(_, v)| v)
        .sum();
    let mut values = iteration_layers;
    for (k, v) in median_by_key(&probe_layers) {
        *values.entry(k).or_insert(0.0) += v;
    }
    let counters: Vec<Counters> = own.outcomes.iter().map(|o| o.counters.clone()).collect();
    values.append(&mut median_by_key(&counters));
    values.append(&mut median_by_key(&probe_counters));

    let traced_ms = stats::median(&own.walls);
    let untraced_ms = stats::median(&untraced);
    let ratio = |a: &str, b: &str| match (values.get(a), values.get(b)) {
        (Some(x), Some(&n)) if n > 0.0 => x / n,
        _ => 0.0,
    };
    let derived = [
        (
            "fvm.ms_per_rhs",
            ratio("fvm.solve_terminal", "fvm.solve_terminal_calls"),
        ),
        ("fvm.ms_per_point", ratio("fvm.sweep", "fvm.sweep_points")),
        ("core.ac_solves", last.solves as f64),
        ("core.quarantined", last.quarantined as f64),
        ("parallel.threads", threads as f64),
        ("parallel.cpu_busy_ratio", parallel.busy),
        ("parallel.speedup_vs_1t", speedup),
        (
            "trace.overhead_pct",
            100.0 * (traced_ms - untraced_ms) / untraced_ms,
        ),
        ("trace.traced_ms", traced_ms),
        ("trace.untraced_ms", untraced_ms),
        ("fail_ratio", tally.fail_ratio()),
    ];
    values.extend(derived);
    let residual = values.get("sparse.max_residual").copied().unwrap_or(0.0);
    let metrics: Vec<(&'static str, &'static str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let span = name.strip_suffix("_ms").unwrap_or(name);
            let value = values.get(name).or_else(|| values.get(span));
            (name, unit, value.copied().unwrap_or(0.0))
        })
        .collect();

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "traced            {} iterations at {threads} thread(s), {} at {other}, {} untraced, {PROBE_REPS} probes",
        own.walls.len(),
        repeat.walls.len(),
        untraced.len()
    );
    if fvm_ms > 0.0 {
        let _ = writeln!(
            summary,
            "fvm share         {:.1} % of the traced iteration",
            100.0 * fvm_ms / traced_ms
        );
    }
    let _ = writeln!(
        summary,
        "residual bound    {RESIDUAL_TOLERANCE:.0e} (max seen {residual:.3e})"
    );
    if args.workload == "array_extract_4x4" {
        summary.push_str(&layer_probe_table(&values, traced_ms));
    }
    for (name, unit, value) in &metrics {
        let _ = writeln!(summary, "{name:<34} {value:>14.6} {unit}");
    }
    let spans = write_spans(&args.workload, args.seed, &tracer);
    let _ = writeln!(summary, "spans             {spans}");
    Ok(Report {
        threads,
        correct: tally.failed == 0,
        tally,
        metrics,
        summary,
    })
}

/// The array row set of the layer-probe table in ROADMAP.md, from the
/// traced iteration's self times.
fn layer_probe_table(values: &Counters, total_ms: f64) -> String {
    let get = |k: &str| values.get(k).copied().unwrap_or(0.0);
    let rows = [
        (
            "mesh + CoupledSolver::new",
            get("mesh.build") + get("fvm.topology"),
        ),
        ("DC Newton", get("fvm.dc")),
        ("AC prepare", get("fvm.ac_prepare")),
        (
            "K capacitance columns",
            get("fvm.solve_terminal") + get("fvm.postprocess"),
        ),
        ("aggressor sweep", get("fvm.sweep")),
        ("full nominal_report", total_ms),
    ];
    let mut out = String::from("layer-probe table (4x4, traced medians):\n");
    for (stage, ms) in rows {
        let _ = writeln!(out, "  {stage:<28} {ms:>10.2} ms");
    }
    out
}

/// Writes every span as JSON lines under the build directory and returns
/// the path (or the reason it could not be written).
fn write_spans(workload: &str, seed: u64, tracer: &Tracer) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".to_string());
    let dir = std::path::Path::new(&dir).join("vaem-benchmark");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written ({e})"),
    }
}

fn render_json(report: &Report) -> String {
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.tally.attempted.max(1),
        report.tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vaem-benchmark: {e}");
            eprintln!(
                "usage: vaem-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    clear_environment();
    let result = if args.trace {
        run_traced(&args, start)
    } else {
        run_untraced(&args, start)
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("vaem-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // A metric that is not a finite number is a broken measurement.
    if report.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        report.correct = false;
        report
            .tally
            .errors
            .push("a metric is not finite".to_string());
        for metric in &mut report.metrics {
            if !metric.2.is_finite() {
                metric.2 = 0.0;
            }
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload          {} (seed {}, {} s, trace {}, VAEM_THREADS={}, {cpus} CPUs)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.threads
    );
    print!("{}", report.summary);
    for error in report.tally.errors.iter().take(5) {
        println!("failure           {error}");
    }
    println!("{}", render_json(&report));
    ExitCode::SUCCESS
}
