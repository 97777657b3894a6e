//! The four workloads: seeded inputs, the timed requests against the
//! real `ta-cli` and `ta-serve` binaries, and the checks every answer
//! must pass.
//!
//! One client drives everything, closed loop: the next request starts
//! only after the previous child has exited or replied, so at most one
//! child runs at any time.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::child::{self, Serve};
use crate::gen::{self, Spec, Truth};
use crate::probe::{tail_pieces, Op};
use crate::stats::{best, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliV1,
    CliV2,
    LintCi,
    ServeTail,
}

pub const ALL: [Workload; 4] = [
    Workload::CliV1,
    Workload::CliV2,
    Workload::LintCi,
    Workload::ServeTail,
];

/// Input sizes: `FULL` is the benchmark, `QUICK` the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub cli_events: usize,
    /// Lint is quadratic in events on double-buffered traces: this
    /// size keeps one sample under a second.
    pub lint_events: usize,
    /// Live tail costs grow with file size times appends: this size
    /// keeps one pass under a second.
    pub tail_events: usize,
    pub appends: usize,
}

pub const FULL: Sizes = Sizes {
    cli_events: 250_000,
    lint_events: 70_000,
    tail_events: 40_000,
    appends: 120,
};

pub const QUICK: Sizes = Sizes {
    cli_events: 20_000,
    lint_events: 8_000,
    tail_events: 8_000,
    appends: 12,
};

/// Races planted in the `lint_ci` trace.
const RACES: usize = 16;

/// Input preparations per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The calibration job's best time on the host this benchmark was
/// defined on (2 vCPUs of a 2.1 GHz Xeon). End-to-end times are scaled
/// by `CAL_REF_S / (best calibration time of the run)`: a shared host
/// slows the calibration job and the requests alike for minutes at a
/// time, and the scaling cancels that.
pub const CAL_REF_S: f64 = 0.050;

/// The calibration job, run as `tabench calibrate` between requests:
/// 400K small heap vectors built, sorted and freed — allocation-heavy
/// like the analyzer's row decode, but only this crate's code, so no
/// change to the analyzer moves it.
pub fn calibration_job() -> u64 {
    let mut x = 1u64;
    let mut rows: Vec<(u64, Vec<u64>)> = (0..400_000usize)
        .map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 20, vec![x; 1 + i % 4])
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.0);
    rows.iter().map(|r| r.1[0] ^ r.0).fold(0, u64::wrapping_add)
}

/// How often the timed loops interleave a calibration pair.
const CAL_EVERY: Duration = Duration::from_millis(500);

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliV1 => "cli_v1",
            Workload::CliV2 => "cli_v2",
            Workload::LintCi => "lint_ci",
            Workload::ServeTail => "serve_tail",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// The request kinds of one round, in order.
    pub fn kinds(self) -> &'static [Op] {
        match self {
            Workload::CliV1 | Workload::CliV2 => &[Op::Summary, Op::Window, Op::Svg],
            Workload::LintCi => &[Op::Lint],
            Workload::ServeTail => &[Op::Tail],
        }
    }

    fn spec(self, sizes: &Sizes, seed: u64) -> Spec {
        let (events, races) = match self {
            Workload::CliV1 | Workload::CliV2 => (sizes.cli_events, 0),
            Workload::LintCi => (sizes.lint_events, RACES),
            Workload::ServeTail => (sizes.tail_events, 0),
        };
        Spec {
            events,
            races,
            seed,
        }
    }
}

/// A workload's prepared input.
#[derive(Debug)]
pub struct Input {
    pub truth: Truth,
    /// The file the timed requests read.
    pub file: PathBuf,
    /// The same trace in the other container (`cli_*` only): every
    /// answer must be byte-identical across containers.
    pub other: Option<PathBuf>,
    /// `cli_*`: the middle 1% of the span. `serve_tail`: the newest 1%.
    pub window: (u64, u64),
    /// `serve_tail`: appends per pass.
    pub appends: usize,
    /// Seconds each preparation took.
    pub setup_s: Vec<f64>,
}

/// Generates the seeded trace and writes the workload's files into
/// `dir`, `SETUPS` times over, timing each preparation.
pub fn prepare(w: Workload, sizes: &Sizes, seed: u64, dir: &Path) -> Result<Input, String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    let (v1, v2) = (dir.join("trace.pdt"), dir.join("trace.pdt2"));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let g = gen::generate(w.spec(sizes, seed));
        g.trace.write_to(&v1).map_err(|e| io(&v1, e))?;
        if matches!(w, Workload::CliV1 | Workload::CliV2) {
            let packed = pdt::pack(&g.trace, pdt::DEFAULT_BLOCK_RECORDS);
            std::fs::write(&v2, packed).map_err(|e| io(&v2, e))?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        // Only the ground truth is kept: this process's resident size
        // is the floor of every child's peak-RSS reading.
        last = Some(g.truth);
    }
    // Flush before timing anything, so that writeback of the inputs
    // does not compete with the requests.
    for p in [&v1, &v2] {
        if p.exists() {
            std::fs::File::open(p)
                .and_then(|f| f.sync_all())
                .map_err(|e| io(p, e))?;
        }
    }
    let truth = last.expect("SETUPS > 0");
    let (file, other, window) = match w {
        Workload::CliV1 => (v1, Some(v2), truth.window(0.495, 0.505)),
        Workload::CliV2 => (v2, Some(v1), truth.window(0.495, 0.505)),
        Workload::LintCi => (v1, None, (0, 0)),
        Workload::ServeTail => (v1, None, truth.window(0.99, 1.0)),
    };
    Ok(Input {
        truth,
        file,
        other,
        window,
        appends: sizes.appends,
        setup_s,
    })
}

/// Where the benchmark's children live and work.
#[derive(Debug)]
pub struct Env {
    pub cli: PathBuf,
    pub serve: PathBuf,
    /// This executable, for `calibrate` and `probe` children.
    pub exe: PathBuf,
    pub dir: PathBuf,
}

/// Everything one run measured.
///
/// The headline figures are best-of-N: on a shared host, interference
/// only ever slows a request down, so the fastest sample is the
/// steadiest estimate of what the code costs. Medians and quartiles
/// are kept for the detail lines.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall-time samples (s) per request kind, in `kinds()` order. For
    /// `serve_tail`: each append position's fastest pass.
    pub latency: Vec<Vec<f64>>,
    /// Per request kind: the fastest sample; for `serve_tail`, the
    /// median append position.
    pub best_s: Vec<f64>,
    /// Child CPU seconds of one round, best of N per request kind.
    pub cpu_s: f64,
    /// Timed rounds; for `serve_tail`, timed appends.
    pub rounds: usize,
    /// VmHWM of the largest request kind (median over its samples;
    /// for `serve_tail`, over passes), KiB.
    pub peak_rss_kib: u64,
    /// Calibration job times (s), interleaved with the timed rounds.
    pub cal_s: Vec<f64>,
    /// `serve_tail`: spawn until `open` replies, per pass.
    pub open_s: Vec<f64>,
    /// `serve_tail`: first append until `poll` reports complete.
    pub tail_s: Vec<f64>,
    /// The warm-up answer of each kind; later answers must equal it.
    pub reference: Vec<Vec<u8>>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Measured {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Runs the calibration job twice, each in a child of its own, if
    /// `CAL_EVERY` has passed since `last` (the first of a pair often
    /// still pays for the request before it).
    fn calibrate(&mut self, env: &Env, last: &mut Option<Instant>) {
        if last.is_some_and(|t| t.elapsed() < CAL_EVERY) {
            return;
        }
        *last = Some(Instant::now());
        for _ in 0..2 {
            self.attempted += 1;
            match child::run(Command::new(&env.exe).arg("calibrate"), &env.dir) {
                Ok(r) if r.usage.code == Some(0) => self.cal_s.push(r.wall_s),
                Ok(r) => self.fail(format!("calibrate: {}", r.stderr.trim())),
                Err(e) => self.fail(format!("calibrate: {e}")),
            }
        }
    }
}

/// `ta-cli` arguments for one request.
fn cli_args(op: Op, file: &Path, (t0, t1): (u64, u64)) -> Vec<String> {
    let file = file.display().to_string();
    let mut args: Vec<String> = match op {
        Op::Summary => vec!["summary".into(), file],
        Op::Window => vec![
            "query".into(),
            file,
            "--from".into(),
            t0.to_string(),
            "--to".into(),
            t1.to_string(),
            "--summary".into(),
        ],
        // Streamed into our pipe, not a file: tens of MB of page-cache
        // writeback per request would slow the requests after it.
        Op::Svg => vec!["timeline".into(), file, "--svg".into(), SVG_OUT.into()],
        Op::Lint => vec!["lint".into(), file, "--format".into(), "sarif".into()],
        Op::Tail | Op::Windows => unreachable!("not a ta-cli request"),
    };
    args.extend(["-j".into(), "auto".into()]);
    args
}

const SVG_OUT: &str = "/dev/stdout";

/// Runs one `ta-cli` request. Returns the child's run, its answer
/// (stdout; for `timeline --svg`, the SVG without the confirmation
/// line) and the reason it failed, if it did.
fn cli_request(
    env: &Env,
    op: Op,
    file: &Path,
    window: (u64, u64),
) -> Result<(child::Run, Vec<u8>, Option<String>), String> {
    let mut run = child::run(
        Command::new(&env.cli).args(cli_args(op, file, window)),
        &env.dir,
    )
    .map_err(|e| format!("{}: {e}", env.cli.display()))?;
    // `lint` exits 1 when firm errors survive, as they must here.
    let want = if op == Op::Lint { 1 } else { 0 };
    let mut problem = (run.usage.code != Some(want)).then(|| {
        format!(
            "{} exited {:?}, expected {want}: {}",
            op.name(),
            run.usage.code,
            run.stderr.trim()
        )
    });
    let mut answer = std::mem::take(&mut run.stdout);
    if op == Op::Svg {
        let wrote = format!("wrote {SVG_OUT}\n");
        if answer.ends_with(wrote.as_bytes()) {
            answer.truncate(answer.len() - wrote.len());
        } else {
            problem.get_or_insert("svg: no confirmation line".into());
        }
    }
    Ok((run, answer, problem))
}

/// Counts `(firm dma-race, firm of any rule)` results in SARIF text.
pub fn firm_findings(sarif: &str) -> (usize, usize) {
    let mut race = 0;
    let mut all = 0;
    for result in sarif.split("{\"ruleId\":\"").skip(1) {
        if result.contains("\"level\":\"error\"") && result.contains("\"suspect\":false}") {
            all += 1;
            race += usize::from(result.starts_with("dma-race\""));
        }
    }
    (race, all)
}

/// The summary without its trailing `-- loss --` section.
pub fn without_loss(summary: &[u8]) -> &[u8] {
    let marker = b"\n-- loss --\n";
    summary
        .windows(marker.len())
        .position(|w| w == marker)
        .map_or(summary, |i| &summary[..i])
}

/// What a correct answer to `op` on `input` must contain.
pub fn check_answer(op: Op, input: &Input, answer: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(answer);
    let ok = match op {
        Op::Summary | Op::Tail => {
            text.contains(&format!(", {} events, 0 dropped\n", input.truth.events()))
        }
        Op::Window => {
            let (t0, t1) = input.window;
            text.contains(&format!("\n{} event(s)\n", input.truth.events_in(t0, t1)))
        }
        Op::Svg => text.starts_with("<svg") && text.ends_with("</svg>\n"),
        Op::Lint => firm_findings(&text) == (input.truth.races, input.truth.races),
        Op::Windows => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: answer fails its check ({} bytes)",
            op.name(),
            answer.len()
        ))
    }
}

/// Runs a `ta-cli` workload for `seconds`: one warm-up round whose
/// answers are checked and become the reference, the same round on
/// the other container (answers must be byte-identical), then timed
/// rounds until the time is up.
pub fn run_cli(w: Workload, env: &Env, input: &Input, seconds: f64) -> Measured {
    let kinds = w.kinds();
    let mut m = Measured {
        latency: vec![Vec::new(); kinds.len()],
        ..Measured::default()
    };
    let mut cpu = vec![Vec::new(); kinds.len()];
    let mut rss = vec![Vec::new(); kinds.len()];
    for &op in kinds {
        m.attempted += 1;
        match cli_request(env, op, &input.file, input.window) {
            Ok((_, answer, problem)) => {
                if let Some(p) = problem {
                    m.fail(p);
                } else if let Err(e) = check_answer(op, input, &answer) {
                    m.fail(e);
                }
                m.reference.push(answer);
            }
            Err(e) => {
                m.fail(e);
                m.reference.push(Vec::new());
            }
        }
    }
    if let Some(other) = &input.other {
        for (k, &op) in kinds.iter().enumerate() {
            m.attempted += 1;
            match cli_request(env, op, other, input.window) {
                Ok((_, answer, None)) if answer == m.reference[k] => {}
                Ok((_, _, Some(p))) => m.fail(p),
                Ok(_) => m.fail(format!("{}: answers differ between containers", op.name())),
                Err(e) => m.fail(e),
            }
        }
    }

    let start = Instant::now();
    let mut last_cal = None;
    while m.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        m.calibrate(env, &mut last_cal);
        for (k, &op) in kinds.iter().enumerate() {
            m.attempted += 1;
            match cli_request(env, op, &input.file, input.window) {
                Ok((run, answer, problem)) => {
                    m.latency[k].push(run.wall_s);
                    cpu[k].push(run.usage.cpu_s);
                    rss[k].push(run.usage.maxrss_kib as f64);
                    if let Some(p) = problem {
                        m.fail(p);
                    } else if answer != m.reference[k] {
                        m.fail(format!("{}: answer differs from the warm-up", op.name()));
                    }
                }
                Err(e) => m.fail(e),
            }
        }
        m.rounds += 1;
    }
    m.best_s = m.latency.iter().map(|xs| best(xs)).collect();
    m.cpu_s = cpu.iter().map(|xs| best(xs)).sum();
    m.peak_rss_kib = rss
        .iter()
        .filter(|xs| !xs.is_empty())
        .map(|xs| median(xs) as u64)
        .max()
        .unwrap_or(0);
    m
}

/// Sends one protocol line; anything but an `ok` reply is a failure.
fn request(serve: &mut Serve, m: &mut Measured, line: &str) -> Result<child::Reply, String> {
    m.attempted += 1;
    match serve.request(line) {
        Ok(r) if r.is_ok() => Ok(r),
        Ok(r) => Err(format!("{line}: {}", r.status)),
        Err(e) => Err(format!("{line}: {e}")),
    }
}

/// One `serve_tail` pass's measurements.
struct Pass {
    latency: Vec<f64>,
    open_s: f64,
    tail_s: f64,
    cpu_s: f64,
    maxrss_kib: u64,
}

/// Grows `grow.pdt` from a 10% prefix of the input in equal appends
/// while one `ta-serve` follows it.
fn serve_pass(
    env: &Env,
    input: &Input,
    data: &[u8],
    expect: &[u8],
    m: &mut Measured,
) -> Option<Pass> {
    let grow = env.dir.join("grow.pdt");
    let (prefix, pieces) = tail_pieces(data.len(), input.appends);
    if let Err(e) = std::fs::write(&grow, &data[..prefix]) {
        m.fail(format!("{}: {e}", grow.display()));
        return None;
    }
    let (t0, t1) = input.window;
    let started = Instant::now();
    m.attempted += 1;
    let mut serve = match Serve::start(&mut Command::new(&env.serve), &env.dir) {
        Ok(s) => s,
        Err(e) => {
            m.fail(format!("{}: {e}", env.serve.display()));
            return None;
        }
    };
    let mut pass = Pass {
        latency: Vec::with_capacity(pieces.len()),
        open_s: 0.0,
        tail_s: 0.0,
        cpu_s: 0.0,
        maxrss_kib: 0,
    };
    let body = (|| -> Result<(), String> {
        request(&mut serve, m, "open grow.pdt")?;
        pass.open_s = started.elapsed().as_secs_f64();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&grow)
            .map_err(|e| e.to_string())?;
        let tail_start = Instant::now();
        for (k, &(a, b)) in pieces.iter().enumerate() {
            file.write_all(&data[a..b]).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let poll = request(&mut serve, m, "poll")?;
            if k + 1 == pieces.len() {
                pass.tail_s = tail_start.elapsed().as_secs_f64();
                let want = format!("events={} complete=true", input.truth.events());
                if !poll.status.ends_with(&want) {
                    return Err(format!("final poll {:?}, expected {want:?}", poll.status));
                }
            }
            request(&mut serve, m, &format!("summarize {t0} {t1}"))?;
            pass.latency.push(t.elapsed().as_secs_f64());
        }
        let summary = request(&mut serve, m, "summary")?;
        if summary.body.as_bytes() != expect {
            return Err("ta-serve summary differs from ta-cli summary".into());
        }
        Ok(())
    })();
    if let Err(e) = body {
        m.fail(format!("serve_tail: {e}"));
    }
    m.attempted += 1;
    match serve.quit() {
        Ok((bye, usage)) => {
            if !bye.is_ok() || usage.code != Some(0) {
                m.fail(format!("quit: {} (exit {:?})", bye.status, usage.code));
            }
            pass.cpu_s = usage.cpu_s;
            pass.maxrss_kib = usage.maxrss_kib;
        }
        Err(e) => m.fail(format!("quit: {e}")),
    }
    (pass.latency.len() == pieces.len()).then_some(pass)
}

/// Runs `serve_tail` for `seconds`: the one-shot `ta-cli summary` of
/// the full file as the reference answer, one warm-up pass, then timed
/// passes until the time is up. Each append position's latency is its
/// fastest timed pass; CPU is the cheapest pass's, per append.
pub fn run_serve(env: &Env, input: &Input, seconds: f64) -> Measured {
    let mut m = Measured {
        latency: vec![Vec::new()],
        ..Measured::default()
    };
    let data = match std::fs::read(&input.file) {
        Ok(d) => d,
        Err(e) => {
            m.fail(format!("{}: {e}", input.file.display()));
            return m;
        }
    };
    m.attempted += 1;
    let expect = match cli_request(env, Op::Summary, &input.file, input.window) {
        Ok((_, answer, None)) => {
            if let Err(e) = check_answer(Op::Tail, input, &answer) {
                m.fail(e);
            }
            answer
        }
        Ok((_, answer, Some(p))) => {
            m.fail(p);
            answer
        }
        Err(e) => {
            m.fail(e);
            Vec::new()
        }
    };
    serve_pass(env, input, &data, &expect, &mut m);

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut tries = 0;
    let mut last_cal = None;
    while tries == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        tries += 1;
        m.calibrate(env, &mut last_cal);
        if let Some(p) = serve_pass(env, input, &data, &expect, &mut m) {
            passes.push(p);
        }
    }
    m.reference.push(expect);
    for p in &passes {
        m.open_s.push(p.open_s);
        m.tail_s.push(p.tail_s);
    }
    if !passes.is_empty() {
        m.latency[0] = (0..input.appends)
            .map(|k| best(&passes.iter().map(|p| p.latency[k]).collect::<Vec<_>>()))
            .collect();
        m.best_s = vec![median(&m.latency[0])];
        let per_append: Vec<f64> = passes
            .iter()
            .map(|p| p.cpu_s / input.appends as f64)
            .collect();
        m.cpu_s = best(&per_append);
        let rss: Vec<f64> = passes.iter().map(|p| p.maxrss_kib as f64).collect();
        m.peak_rss_kib = median(&rss) as u64;
        m.rounds = passes.len() * input.appends;
    }
    m
}
