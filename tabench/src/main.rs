//! `tabench`: the file-to-answer benchmark for `ta-cli` and `ta-serve`.
//!
//! ```text
//! tabench [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!         [--trace-out PATH] [--repeat N]
//! tabench --quick
//! tabench probe --op OP --input PATH --out PATH [--par auto|serial]
//!         [--from T0 --to T1] [--appends N] [--seed S]
//! ```
//!
//! A run generates the workload's seeded input, drives the `ta-cli` and
//! `ta-serve` binaries next to this executable for `--seconds`, checks
//! every answer, and prints one JSON line per metric followed by the
//! result line `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` it then re-executes each request through `tabench
//! probe`, which times every public `ta` call as a span, and reports
//! the per-layer metrics instead; the spans go to `--trace-out`.
//! Without `--workload` it runs all four workloads. `--repeat N` runs
//! them N times and fails when a metric of the last run is worse than
//! the first by more than its bound. `--quick` runs the generator,
//! the probe and the checks in-process at small sizes.
//!
//! Every file it writes goes under `.tabench/` in the current
//! directory.

mod child;
mod gen;
mod probe;
mod stats;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use probe::{Agg, Job, Op, Trace, STAGES};
use stats::{best, median, quartiles, tail};
use workload::{Env, Input, Measured, Workload, CAL_REF_S};

/// End-to-end metrics `(name, unit, bound)`, all lower-is-better; the
/// same list, with the same bounds, as `BENCHMARK.json`.
const E2E: [(&str, &str, f64); 4] = [
    ("round_ms", "ms", 0.25),
    ("cpu_ms", "ms", 0.25),
    ("peak_rss_mib", "MiB", 0.05),
    ("setup_s", "s", 0.25),
];

/// Per-layer metrics of a traced run, as in `BENCHMARK.json`: the
/// four stages every request passes through, plus the store's size and
/// the scheduler's gain.
const PER_LAYER: [(&str, &str); 6] = [
    ("reader.read_ms", "ms"),
    ("ingest.decode_ms", "ms"),
    ("analysis.products_ms", "ms"),
    ("report.render_ms", "ms"),
    ("columns.bytes_per_event", "B/event"),
    ("exec.speedup", "ratio"),
];

/// Probe repetitions per request kind and parallelism in a traced run.
const PROBE_REPS: usize = 5;

/// A traced run fails when the layers' self times miss the traced
/// requests' own time by more than this share: a layer went unmeasured.
const COVERAGE_SLACK: f64 = 0.15;

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat: usize,
}

/// One metric as printed: the result line uses `value`, the detail
/// line the rest.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    p25: f64,
    p75: f64,
    samples: usize,
    bound: Option<f64>,
}

impl Metric {
    /// A metric summarizing `xs` (scaled by `scale`) by its median.
    fn of(name: &str, unit: &'static str, xs: &[f64], scale: f64, bound: Option<f64>) -> Metric {
        let (value, (p25, p75)) = if xs.is_empty() {
            (0.0, (0.0, 0.0))
        } else {
            (median(xs), quartiles(xs))
        };
        Metric {
            name: name.to_string(),
            unit,
            value: value * scale,
            p25: p25 * scale,
            p75: p75 * scale,
            samples: xs.len(),
            bound,
        }
    }

    /// A metric with a single value.
    fn one(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            p25: value,
            p75: value,
            samples,
            bound: None,
        }
    }
}

/// A JSON number; non-finite values (no samples) print as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        // `+ 0.0` turns a negative zero (an empty sum) into 0.
        format!("{}", x + 0.0)
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one workload run produced.
#[derive(Debug)]
struct Outcome {
    workload: Workload,
    /// Per-metric detail lines, printed before the result line.
    detail: Vec<Metric>,
    /// The metrics of the result line.
    result: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn print(&self) {
        let w = self.workload.name();
        for m in &self.detail {
            println!(
                "{{\"workload\":{},\"metric\":{},\"unit\":{},\"median\":{},\"p25\":{},\"p75\":{},\"samples\":{},\"bound\":{}}}",
                jstr(w),
                jstr(&m.name),
                jstr(m.unit),
                num(m.value),
                num(m.p25),
                num(m.p75),
                m.samples,
                m.bound.map_or("null".into(), num),
            );
        }
        let metrics: Vec<String> = self
            .result
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    jstr(&m.name),
                    num(m.value),
                    jstr(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }

    fn value(&self, name: &str) -> f64 {
        self.detail
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// The end-to-end metrics of `m`, plus the per-request detail lines.
fn e2e(w: Workload, input: &Input, m: &Measured) -> Vec<Metric> {
    let bound = |name: &str| E2E.iter().find(|e| e.0 == name).map(|e| e.2);
    let round_s: f64 = m.best_s.iter().sum();
    let cal_s = best(&m.cal_s);
    let scale = if cal_s > 0.0 { CAL_REF_S / cal_s } else { 1.0 };
    let samples = m.latency.iter().map(Vec::len).sum();
    let mut out = vec![
        Metric {
            bound: bound("round_ms"),
            ..Metric::one("round_ms", "ms", round_s * 1e3 * scale, samples)
        },
        Metric {
            bound: bound("cpu_ms"),
            ..Metric::one("cpu_ms", "ms", m.cpu_s * 1e3 * scale, m.rounds)
        },
        Metric {
            bound: bound("peak_rss_mib"),
            ..Metric::one("peak_rss_mib", "MiB", m.peak_rss_kib as f64 / 1024.0, 1)
        },
        Metric::of("setup_s", "s", &input.setup_s, scale, bound("setup_s")),
        Metric::one("round_raw_ms", "ms", round_s * 1e3, samples),
        Metric::of("calibration_ms", "ms", &m.cal_s, 1e3, None),
    ];
    match w {
        Workload::ServeTail => {
            let lat = &m.latency[0];
            out.push(Metric::of("tail_p50_ms", "ms", lat, 1e3, None));
            let p90 = tail(lat).map_or(0.0, |(_, v)| v * 1e3);
            out.push(Metric::one("tail_p90_ms", "ms", p90, lat.len()));
            out.push(Metric::of("tail_s", "s", &m.tail_s, 1.0, None));
            out.push(Metric::of("open_s", "s", &m.open_s, 1.0, None));
        }
        _ => {
            for (k, op) in w.kinds().iter().enumerate() {
                let name = format!("{}_s", op.name());
                out.push(Metric::of(&name, "s", &m.latency[k], 1.0, None));
            }
        }
    }
    out.push(Metric {
        bound: Some(0.0),
        ..Metric::one(
            "fail_frac",
            "ratio",
            m.failed as f64 / m.attempted.max(1) as f64,
            m.attempted as usize,
        )
    });
    out
}

/// One probe child's record.
#[derive(Debug)]
struct ProbeRun {
    op: Op,
    parallel: bool,
    rep: usize,
    /// The probe child's spawn-to-exit time.
    wall_s: f64,
    trace: Trace,
}

/// Runs every request kind through `tabench probe`, `PROBE_REPS`
/// times at each parallelism, checking each probe's answer against the
/// timed requests' answer.
fn probe_all(
    w: Workload,
    opts: &Opts,
    env: &Env,
    input: &Input,
    m: &mut Measured,
) -> Vec<ProbeRun> {
    let out = env.dir.join("probe.out");
    let mut runs = Vec::new();
    for rep in 0..PROBE_REPS {
        for parallel in [true, false] {
            let mut ops: Vec<Op> = w.kinds().to_vec();
            if parallel && matches!(w, Workload::CliV1 | Workload::CliV2) {
                ops.push(Op::Windows);
            }
            for op in ops {
                let (t0, t1) = input.window;
                let args: Vec<String> = vec![
                    "probe".into(),
                    "--op".into(),
                    op.name().into(),
                    "--input".into(),
                    input.file.display().to_string(),
                    "--out".into(),
                    out.display().to_string(),
                    "--par".into(),
                    if parallel { "auto" } else { "serial" }.into(),
                    "--from".into(),
                    t0.to_string(),
                    "--to".into(),
                    t1.to_string(),
                    "--appends".into(),
                    input.appends.to_string(),
                    "--seed".into(),
                    (opts.seed + rep as u64).to_string(),
                ];
                m.attempted += 1;
                let run = match child::run(Command::new(&env.exe).args(&args), &env.dir) {
                    Ok(r) if r.usage.code == Some(0) => r,
                    Ok(r) => {
                        m.fail(format!("probe {}: {}", op.name(), r.stderr.trim()));
                        continue;
                    }
                    Err(e) => {
                        m.fail(format!("probe {}: {e}", op.name()));
                        continue;
                    }
                };
                let trace = match Trace::parse(&String::from_utf8_lossy(&run.stdout)) {
                    Ok(t) => t,
                    Err(e) => {
                        m.fail(e);
                        continue;
                    }
                };
                if let Some(k) = w.kinds().iter().position(|&o| o == op) {
                    let answer = std::fs::read(&out).unwrap_or_default();
                    let want = &m.reference[k];
                    let same = if op == Op::Summary {
                        workload::without_loss(&answer) == workload::without_loss(want)
                    } else {
                        &answer == want
                    };
                    if !same {
                        m.fail(format!(
                            "probe {}: answer differs from ta-cli/ta-serve",
                            op.name()
                        ));
                    }
                }
                runs.push(ProbeRun {
                    op,
                    parallel,
                    rep,
                    wall_s: run.wall_s,
                    trace,
                });
            }
        }
    }
    runs
}

/// One repetition of a round, reduced: self time per layer (s), the
/// probes' total time (s), and counters.
#[derive(Debug, Default)]
struct RoundLayers {
    layers: BTreeMap<String, f64>,
    tail_p90: BTreeMap<String, f64>,
    /// Time the layers cover: the median operation's layer sum.
    covered_s: f64,
    /// Spawn-to-exit time of the one-shot probes.
    wall_s: f64,
    total_s: f64,
    counters: BTreeMap<String, f64>,
}

/// Adds up one repetition's probes into round-level values. A
/// `serve_tail` probe contributes the median append (and its p90
/// tail, kept separately); the others their single operation.
fn round_of(runs: &[ProbeRun], rep: usize, parallel: bool) -> RoundLayers {
    let mut r = RoundLayers::default();
    for run in runs
        .iter()
        .filter(|p| p.rep == rep && p.parallel == parallel)
    {
        for (name, v, agg) in &run.trace.counters {
            let e = r.counters.entry(name.clone()).or_insert(0.0);
            *e = if *agg == Agg::Sum { *e + v } else { e.max(*v) };
        }
        if run.op == Op::Windows {
            continue;
        }
        let root = if run.op == Op::Tail {
            "op.append".to_string()
        } else {
            format!("op.{}", run.op.name())
        };
        let roots: Vec<_> = run
            .trace
            .roots()
            .into_iter()
            .filter(|x| x.name == root)
            .collect();
        if roots.is_empty() {
            continue;
        }
        let totals: Vec<f64> = roots.iter().map(|x| x.total_s).collect();
        r.total_s += median(&totals);
        let covered: Vec<f64> = roots.iter().map(|x| x.layers.values().sum()).collect();
        r.covered_s += median(&covered);
        r.wall_s += run.wall_s;
        let names: BTreeSet<&String> = roots.iter().flat_map(|x| x.layers.keys()).collect();
        for name in names {
            let xs: Vec<f64> = roots
                .iter()
                .map(|x| x.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            *r.layers.entry(name.clone()).or_default() += median(&xs);
            if let Some((_, v)) = tail(&xs) {
                *r.tail_p90.entry(name.clone()).or_default() += v;
            }
        }
    }
    r
}

fn counter_unit(name: &str) -> &'static str {
    match name {
        "columns.bytes_per_event" => "B/event",
        "svg.bytes" => "B",
        "exec.busy_ms" => "ms",
        "query.summarize_us" => "us",
        n if n.ends_with("_frac") => "ratio",
        _ => "count",
    }
}

/// The traced run: per-layer detail lines, the per-layer result
/// metrics, the self-time table on stderr, and the span file.
fn traced(
    w: Workload,
    opts: &Opts,
    env: &Env,
    input: &Input,
    m: &mut Measured,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let runs = probe_all(w, opts, env, input, m);
    let auto: Vec<RoundLayers> = (0..PROBE_REPS).map(|r| round_of(&runs, r, true)).collect();
    let serial: Vec<RoundLayers> = (0..PROBE_REPS).map(|r| round_of(&runs, r, false)).collect();
    let e2e_s: f64 = m.best_s.iter().sum();

    // The result line and the stderr table take each time from the
    // fastest repetition, like the e2e figures; detail lines show the
    // spread over repetitions; counters are medians.
    let per_rep = |f: &dyn Fn(&RoundLayers) -> f64| auto.iter().map(f).collect::<Vec<f64>>();
    let layer = |name: &str| best(&per_rep(&|r| r.layers.get(name).copied().unwrap_or(0.0)));
    let mut detail = Vec::new();
    let names: BTreeSet<&String> = auto.iter().flat_map(|r| r.layers.keys()).collect();
    for name in &names {
        let xs = per_rep(&|r| r.layers.get(*name).copied().unwrap_or(0.0));
        detail.push(Metric::of(&format!("{name}_ms"), "ms", &xs, 1e3, None));
        if w == Workload::ServeTail {
            let xs = per_rep(&|r| r.tail_p90.get(*name).copied().unwrap_or(0.0));
            detail.push(Metric::of(&format!("{name}_p90_ms"), "ms", &xs, 1e3, None));
        }
    }
    let counters: BTreeSet<&String> = auto.iter().flat_map(|r| r.counters.keys()).collect();
    // `auto` holds PROBE_REPS rounds, so per-rep vectors are never empty.
    let counter = |name: &str| median(&per_rep(&|r| r.counters.get(name).copied().unwrap_or(0.0)));
    for name in &counters {
        let xs = per_rep(&|r| r.counters.get(*name).copied().unwrap_or(0.0));
        detail.push(Metric::of(name, counter_unit(name), &xs, 1.0, None));
    }
    let auto_total = best(&per_rep(&|r| r.total_s));
    let serial_total = best(&serial.iter().map(|r| r.total_s).collect::<Vec<_>>());
    let speedup = serial_total / auto_total.max(1e-9);
    // What the layers must account for, measured in the same run so
    // that host noise cancels: a one-shot probe's spawn-to-exit time
    // (start-up, teardown and all, like a timed request); for
    // `serve_tail`, whose probe also writes the growing file, the
    // median append's own span.
    let cov = median(&per_rep(&|r| {
        let whole = if w == Workload::ServeTail {
            r.total_s
        } else {
            r.wall_s
        };
        r.covered_s / whole.max(1e-9)
    }));
    let overhead_s = auto_total - e2e_s;
    detail.push(Metric::one("exec.speedup", "ratio", speedup, auto.len()));
    detail.push(Metric::one("probe.coverage", "ratio", cov, auto.len()));
    detail.push(Metric::one(
        "probe.overhead_ms",
        "ms",
        overhead_s * 1e3,
        auto.len(),
    ));
    if (cov - 1.0).abs() > COVERAGE_SLACK {
        m.fail(format!(
            "layer self times cover {:.1}% of the traced requests' time",
            cov * 100.0
        ));
    }

    let result = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match STAGES.iter().find(|s| s.0 == name) {
                Some((_, spans)) => {
                    best(&per_rep(&|r| {
                        spans.iter().filter_map(|s| r.layers.get(*s)).sum()
                    })) * 1e3
                }
                None if name == "exec.speedup" => speedup,
                None => counter(name),
            };
            Metric::one(name, unit, value, auto.len())
        })
        .collect();

    eprintln!(
        "{}: self time per layer, best of {PROBE_REPS} traced rounds (e2e round {:.1} ms)",
        w.name(),
        e2e_s * 1e3
    );
    let mut table: Vec<(&String, f64)> = names.iter().map(|n| (*n, layer(n))).collect();
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, s) in table {
        eprintln!(
            "  {name:<22} {:>10.2} ms {:>6.1}%",
            s * 1e3,
            s / e2e_s.max(1e-9) * 100.0
        );
    }
    eprintln!(
        "  coverage {:.1}%, tracing overhead {:.1} ms (probe total minus e2e round)",
        cov * 100.0,
        overhead_s * 1e3
    );

    let path = opts.trace_out.clone().unwrap_or_else(|| {
        env.dir
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-{}-seed{}.json", w.name(), opts.seed))
    });
    write_spans(&path, w, opts, e2e_s, &runs).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("  spans: {}", path.display());
    Ok((detail, result))
}

/// Writes every probe's spans and counters as one JSON document.
fn write_spans(
    path: &Path,
    w: Workload,
    opts: &Opts,
    e2e_s: f64,
    runs: &[ProbeRun],
) -> std::io::Result<()> {
    let mut s = format!(
        "{{\"workload\":{},\"seed\":{},\"host_cpus\":{},\"e2e_round_ms\":{},\"runs\":[",
        jstr(w.name()),
        opts.seed,
        host_cpus(),
        num(e2e_s * 1e3)
    );
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{{\"op\":{},\"parallelism\":{},\"rep\":{},\"spans\":[",
            jstr(run.op.name()),
            jstr(if run.parallel { "auto" } else { "serial" }),
            run.rep
        );
        for (j, sp) in run.trace.spans.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                jstr(&sp.name),
                sp.parent.map_or("null".into(), |p| p.to_string()),
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("],\"counters\":{");
        let counters: Vec<String> = run
            .trace
            .counters
            .iter()
            .map(|(n, v, _)| format!("{}:{}", jstr(n), num(*v)))
            .collect();
        s.push_str(&counters.join(","));
        s.push_str("}}");
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A working directory under `.tabench/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> Result<WorkDir, String> {
        let base = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".tabench");
        let dir = base.join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The children's environment: `ta-cli` and `ta-serve` must sit next
/// to this executable.
fn env_in(dir: &Path) -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.parent().ok_or("executable has no directory")?;
    let (cli, serve) = (bin.join("ta-cli"), bin.join("ta-serve"));
    for p in [&cli, &serve] {
        if !p.is_file() {
            return Err(format!(
                "{} not found: build the workspace's ta binaries into the same target directory",
                p.display()
            ));
        }
    }
    Ok(Env {
        cli,
        serve,
        exe,
        dir: dir.to_path_buf(),
    })
}

/// Runs one workload end to end, traced or not.
fn run_workload(w: Workload, opts: &Opts) -> Result<Outcome, String> {
    let work = WorkDir::new(w.name())?;
    let env = env_in(&work.0)?;
    let input = workload::prepare(w, &workload::FULL, opts.seed, &env.dir)?;
    let mut m = match w {
        Workload::ServeTail => workload::run_serve(&env, &input, opts.seconds),
        _ => workload::run_cli(w, &env, &input, opts.seconds),
    };
    let mut detail = e2e(w, &input, &m);
    let mut result: Vec<Metric> = E2E
        .iter()
        .map(|e| {
            detail
                .iter()
                .find(|m| m.name == e.0)
                .expect("every e2e metric is computed")
                .clone()
        })
        .collect();
    if opts.trace {
        let (layers, per_layer) = traced(w, opts, &env, &input, &mut m)?;
        detail.extend(layers);
        result = per_layer;
    }
    for note in &m.notes {
        eprintln!("{}: FAILED: {note}", w.name());
    }
    Ok(Outcome {
        workload: w,
        detail,
        result,
        attempted: m.attempted,
        failed: m.failed,
    })
}

/// Runs the workloads `opts.repeat` times; with more than one run,
/// compares the last run's e2e metrics with the first's.
fn bench(opts: &Opts) -> Result<bool, String> {
    let mut ok = true;
    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..opts.repeat {
        let mut outcomes = Vec::new();
        for &w in &opts.workloads {
            let o = run_workload(w, opts)?;
            o.print();
            ok &= o.failed == 0;
            outcomes.push(o);
        }
        runs.push(outcomes);
    }
    if let (Some(first), Some(last)) = (runs.first(), runs.last()) {
        if runs.len() > 1 {
            for (a, b) in first.iter().zip(last) {
                for &(name, _, bound) in &E2E {
                    let ratio = b.value(name) / a.value(name);
                    let within = ratio <= 1.0 + bound;
                    ok &= within;
                    println!(
                        "{{\"workload\":{},\"metric\":{},\"ratio\":{},\"bound\":{},\"within\":{within}}}",
                        jstr(a.workload.name()),
                        jstr(name),
                        num(ratio),
                        num(bound)
                    );
                }
                let same = a.value("fail_frac") == b.value("fail_frac");
                ok &= same;
                if !same {
                    eprintln!("{}: fail_frac differs between runs", a.workload.name());
                }
            }
        }
    }
    Ok(ok)
}

/// Generator, probe and checks in-process at `QUICK` sizes, for every
/// workload. Prints each probe's layer self times.
fn quick() -> Result<(), String> {
    let work = WorkDir::new("quick")?;
    for w in workload::ALL {
        let input = workload::prepare(w, &workload::QUICK, 1, &work.0)?;
        for &op in w.kinds() {
            let out = work.0.join(format!("{}.out", op.name()));
            let mut job = Job {
                op,
                input: &input.file,
                out: &out,
                parallel: true,
                window: input.window,
                appends: input.appends,
                seed: 1,
            };
            let trace = probe::run(&job)?;
            let answer = std::fs::read(&out).map_err(|e| e.to_string())?;
            workload::check_answer(op, &input, &answer)?;
            if let Some(other) = &input.other {
                job.input = other;
                probe::run(&job)?;
                let theirs = std::fs::read(&out).map_err(|e| e.to_string())?;
                if workload::without_loss(&theirs) != workload::without_loss(&answer) {
                    return Err(format!(
                        "{}: {} differs between containers",
                        w.name(),
                        op.name()
                    ));
                }
            }
            if op == Op::Tail {
                let trace = pdt::TraceFile::read_from(&input.file).map_err(|e| e.to_string())?;
                let a = ta::Analysis::of(&trace).run().map_err(|e| e.to_string())?;
                if a.summary().as_bytes() != answer {
                    return Err("tail: streamed summary differs from one-shot".into());
                }
            }
            for root in trace.roots() {
                let layers: Vec<String> = root
                    .layers
                    .iter()
                    .map(|(n, s)| format!("{n} {:.2}", s * 1e3))
                    .collect();
                println!(
                    "{} {} {:.2} ms: {}",
                    w.name(),
                    root.name,
                    root.total_s * 1e3,
                    layers.join(", ")
                );
                if op == Op::Tail {
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Takes the value of `--flag VALUE`, if present.
fn take(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    take(args, flag)?.map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {flag} {v:?}"))
    })
}

fn probe_main(mut args: Vec<String>) -> Result<(), String> {
    let op = take(&mut args, "--op")?.ok_or("--op is required")?;
    let op = Op::parse(&op).ok_or(format!("unknown --op {op:?}"))?;
    let input = PathBuf::from(take(&mut args, "--input")?.ok_or("--input is required")?);
    let out = PathBuf::from(take(&mut args, "--out")?.ok_or("--out is required")?);
    let parallel = match take(&mut args, "--par")?.as_deref() {
        None | Some("auto") => true,
        Some("serial") => false,
        Some(other) => return Err(format!("bad --par {other:?} (auto|serial)")),
    };
    let window = (
        parsed(&mut args, "--from", 0u64)?,
        parsed(&mut args, "--to", u64::MAX)?,
    );
    let appends = parsed(&mut args, "--appends", 120usize)?;
    let seed = parsed(&mut args, "--seed", 1u64)?;
    if let Some(a) = args.first() {
        return Err(format!("unexpected argument {a:?}"));
    }
    probe::main(&Job {
        op,
        input: &input,
        out: &out,
        parallel,
        window,
        appends: appends.max(1),
        seed,
    })
}

fn parse_opts(mut args: Vec<String>) -> Result<Opts, String> {
    let workloads = match take(&mut args, "--workload")? {
        None => workload::ALL.to_vec(),
        Some(w) => vec![Workload::parse(&w).ok_or(format!(
            "unknown --workload {w:?} (cli_v1|cli_v2|lint_ci|serve_tail)"
        ))?],
    };
    let seed = parsed(&mut args, "--seed", 1u64)?;
    let seconds = parsed(&mut args, "--seconds", 10.0f64)?;
    let trace = match take(&mut args, "--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace {other:?} (0|1)")),
    };
    let trace_out = take(&mut args, "--trace-out")?.map(PathBuf::from);
    let repeat = parsed(&mut args, "--repeat", 1usize)?.max(1);
    if let Some(a) = args.first() {
        return Err(format!("unexpected argument {a:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Opts {
        workloads,
        seed,
        seconds,
        trace,
        trace_out,
        repeat,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("probe") => probe_main(args[1..].to_vec()).map(|()| true),
        Some("--quick") => quick().map(|()| true),
        Some("calibrate") => {
            std::hint::black_box(workload::calibration_job());
            Ok(true)
        }
        _ => parse_opts(args).and_then(|opts| child::with_watchdog(|| bench(&opts))),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tabench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_passes() {
        super::quick().unwrap();
    }

    #[test]
    fn sarif_firm_findings_are_counted() {
        let sarif = r#"{"results":[{"ruleId":"dma-race","level":"error","message":{"text":"x"},"properties":{"suspect":false}},{"ruleId":"dma-race","level":"error","message":{"text":"y"},"properties":{"suspect":true}},{"ruleId":"unwaited-tag-group","level":"error","message":{"text":"z"},"properties":{"suspect":false}},{"ruleId":"wait-without-dma","level":"warning","message":{"text":"w"},"properties":{"suspect":false}}]}"#;
        assert_eq!(super::workload::firm_findings(sarif), (1, 2));
    }
}
