//! The traced re-execution of one operation.
//!
//! `tabench probe --op OP …` makes the public `ta` calls that `ta-cli`
//! or `ta-serve` make for OP, in the same order, and wraps a span
//! around each: the spans are the layers. It runs as a child process
//! of its own, so it pays the same cold start as the timed operation,
//! and prints its spans and counters as tab-separated lines that the
//! parent parses with [`Trace::parse`].
//!
//! Two known differences from `ta-cli`, both on the v1 path, where the
//! probe splits `AnalysisBuilder::run` into its two public halves
//! (`analyze_parallel_lossy` and `ColumnarTrace::from_rows`): the
//! session carries no loss report, so the summary lacks its clean
//! `-- loss --` section, and the query index builds serially.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pdt::TraceFile;
use ta::{
    analyze_parallel_lossy, analyze_v2, is_v2_image, ActivityKind, Analysis, ColumnarTrace,
    ImageIngest, LintConfig, MappedImage, Parallelism, RenderOptions, ReportKind, WindowSummary,
};

/// Per-layer spans, grouped into the four stages every workload passes
/// through. These stage sums are the per-layer metrics of a traced run.
pub const STAGES: [(&str, &[&str]); 4] = [
    ("reader.read_ms", &["reader.open", "serve.read"]),
    (
        "ingest.decode_ms",
        &[
            "format.parse",
            "parallel.decode",
            "columns.from_rows",
            "v2read.decode",
            "stream.push",
            "stream.snapshot",
        ],
    ),
    (
        "analysis.products_ms",
        &[
            "columns.materialize",
            "intervals.build",
            "stats.build",
            "index.build",
            "timeline.build",
            "causality.sync_edges",
            "lint.run",
            "query.summarize",
            "session.drop",
        ],
    ),
    (
        "report.render_ms",
        &[
            "summary.render",
            "svg.render",
            "report.sarif",
            "output.write",
        ],
    ),
];

/// How a counter combines across the operations of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Work done per operation: add up.
    Sum,
    /// A property of the input: take the largest.
    Max,
}

/// One recorded span; times are nanoseconds since the probe started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one probe run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: Vec<(String, f64, Agg)>,
}

/// A root span (one operation) reduced to its layers' self times.
#[derive(Debug)]
pub struct Root {
    pub name: String,
    pub total_s: f64,
    /// Self seconds per layer name, summed over repeated calls.
    pub layers: BTreeMap<String, f64>,
}

impl Trace {
    /// The inverse of [`Trace::write`].
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut t = Trace::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad probe line {line:?}"))
            };
            match f.as_slice() {
                ["span", parent, name, start, end] => t.spans.push(Span {
                    name: (*name).to_string(),
                    parent: match *parent {
                        "-" => None,
                        p => Some(num(p)? as usize),
                    },
                    start_ns: num(start)?,
                    end_ns: num(end)?,
                }),
                ["count", name, value, agg] => t.counters.push((
                    (*name).to_string(),
                    value
                        .parse()
                        .map_err(|_| format!("bad probe line {line:?}"))?,
                    if *agg == "sum" { Agg::Sum } else { Agg::Max },
                )),
                _ => return Err(format!("bad probe line {line:?}")),
            }
        }
        Ok(t)
    }

    fn write(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, v, agg) in &self.counters {
            let agg = if *agg == Agg::Sum { "sum" } else { "max" };
            writeln!(out, "count\t{name}\t{v}\t{agg}")?;
        }
        Ok(())
    }

    /// Every root span with its children's self times. A layer's self
    /// time is its duration minus the time its own children cover.
    pub fn roots(&self) -> Vec<Root> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e9;
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += dur(s);
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut roots: BTreeMap<usize, Root> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                roots.insert(
                    i,
                    Root {
                        name: s.name.clone(),
                        total_s: dur(s),
                        layers: BTreeMap::new(),
                    },
                );
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() {
                let r = roots.get_mut(&root_of(i)).expect("every span has a root");
                *r.layers.entry(s.name.clone()).or_default() += dur(s) - child_time[i];
            }
        }
        roots.into_values().collect()
    }
}

struct Recorder {
    t0: Instant,
    trace: Trace,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            trace: Trace::default(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str) {
        let start_ns = self.now();
        self.trace.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.trace.spans.len() - 1);
    }

    fn end(&mut self) {
        let i = self.open.pop().expect("end without begin");
        self.trace.spans[i].end_ns = self.now();
    }

    /// Runs `f` inside a span with no children.
    fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = std::hint::black_box(f());
        self.end();
        out
    }

    fn count(&mut self, name: &str, value: f64, agg: Agg) {
        self.trace.counters.push((name.to_string(), value, agg));
    }

    fn exec_delta(&mut self, before: &ta::ExecStats, per: f64) {
        let d = ta::exec::pool().stats().since(before);
        self.count("exec.tasks", d.tasks as f64 / per, Agg::Sum);
        self.count("exec.steals", d.steals as f64 / per, Agg::Sum);
        self.count("exec.busy_ms", d.busy_ns() as f64 / 1e6 / per, Agg::Sum);
    }
}

/// An operation the probe can re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ta-cli summary`
    Summary,
    /// `ta-cli query --from --to --summary`
    Window,
    /// `ta-cli timeline --svg`
    Svg,
    /// `ta-cli lint --format sarif`
    Lint,
    /// `ta-serve` following a growing file: `open`, then `poll` and
    /// `summarize` after every append.
    Tail,
    /// Not an operation of its own: 1000 seeded `Analysis::summarize`
    /// windows over one loaded trace, for `query.summarize_us`.
    Windows,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Summary => "summary",
            Op::Window => "window",
            Op::Svg => "svg",
            Op::Lint => "lint",
            Op::Tail => "tail",
            Op::Windows => "windows",
        }
    }

    pub fn parse(s: &str) -> Option<Op> {
        [
            Op::Summary,
            Op::Window,
            Op::Svg,
            Op::Lint,
            Op::Tail,
            Op::Windows,
        ]
        .into_iter()
        .find(|o| o.name() == s)
    }
}

/// What the probe runs.
#[derive(Debug, Clone)]
pub struct Job<'a> {
    pub op: Op,
    pub input: &'a Path,
    /// Where the operation's answer goes, for the parent's check.
    pub out: &'a Path,
    /// `false` runs at `Parallelism::Serial`, `true` at what the
    /// front end uses (`Auto` for `ta-cli`, `Workers(4)` for
    /// `ta-serve`).
    pub parallel: bool,
    pub window: (u64, u64),
    pub appends: usize,
    pub seed: u64,
}

/// Runs `job` in this process and returns its spans and counters.
pub fn run(job: &Job<'_>) -> Result<Trace, String> {
    let mut rec = Recorder::new();
    let par = if job.parallel {
        Parallelism::Auto
    } else {
        Parallelism::Serial
    };
    let exec0 = ta::exec::pool().stats();
    match job.op {
        Op::Summary => {
            rec.begin("op.summary");
            let a = load(&mut rec, job.input, par)?;
            rec.leaf("columns.materialize", || a.analyzed().events.len());
            rec.leaf("intervals.build", || a.intervals().len());
            rec.leaf("stats.build", || a.stats().spes.len());
            let text = rec.leaf("summary.render", || a.summary());
            write_out(&mut rec, job.out, text.as_bytes())?;
            rec.leaf("session.drop", || drop(a));
            rec.end();
        }
        Op::Window => {
            let (t0, t1) = job.window;
            rec.begin("op.window");
            let a = load(&mut rec, job.input, par)?;
            rec.leaf("intervals.build", || a.intervals().len());
            rec.leaf("index.build", || a.index().end_tb());
            rec.leaf("columns.materialize", || a.analyzed().events.len());
            let s = rec.leaf("query.summarize", || a.summarize(t0, t1));
            let text = window_text(&a, &s);
            write_out(&mut rec, job.out, text.as_bytes())?;
            rec.leaf("session.drop", || drop(a));
            rec.end();
        }
        Op::Svg => {
            rec.begin("op.svg");
            let a = load(&mut rec, job.input, par)?;
            rec.leaf("intervals.build", || a.intervals().len());
            rec.leaf("timeline.build", || a.timeline().lanes.len());
            let svg = rec.leaf("svg.render", || {
                a.render(ReportKind::Svg, &RenderOptions::default())
            });
            rec.count("svg.bytes", svg.len() as f64, Agg::Max);
            write_out(&mut rec, job.out, svg.as_bytes())?;
            rec.leaf("session.drop", || drop(a));
            rec.end();
        }
        Op::Lint => {
            rec.begin("op.lint");
            let a = load(&mut rec, job.input, par)?;
            rec.leaf("intervals.build", || a.intervals().len());
            rec.leaf("causality.sync_edges", || a.sync_edges().len());
            let report = rec.leaf("lint.run", || a.lint_with(&LintConfig::default()));
            rec.count(
                "lint.diagnostics",
                report.diagnostics.len() as f64,
                Agg::Sum,
            );
            let firm = report.firm_errors().count();
            rec.count("lint.firm_errors", firm as f64, Agg::Sum);
            let sarif = rec.leaf("report.sarif", || report.to_sarif());
            write_out(&mut rec, job.out, sarif.as_bytes())?;
            rec.leaf("session.drop", || drop((report, a)));
            rec.end();
        }
        Op::Tail => return tail(rec, job, exec0),
        Op::Windows => {
            let a = load(&mut Recorder::new(), job.input, par)?;
            let (lo, hi) = (a.index().start_tb(), a.index().end_tb());
            let width = ((hi - lo) / 100).max(1);
            let mut x = job.seed | 1;
            let mut us: Vec<f64> = (0..1000)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let t0 = lo + x % ((hi - lo).saturating_sub(width) + 1);
                    let t = Instant::now();
                    std::hint::black_box(a.summarize(t0, t0 + width));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            rec.count("query.summarize_us", us[us.len() / 2], Agg::Max);
            return Ok(rec.trace);
        }
    }
    rec.exec_delta(&exec0, 1.0);
    Ok(rec.trace)
}

/// `ta-cli`'s `load`: map the file, then decode by container.
fn load(rec: &mut Recorder, path: &Path, par: Parallelism) -> Result<Arc<Analysis>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let bytes = rec
        .leaf("reader.open", || MappedImage::open(path))
        .map_err(|e| err(&e))?;
    let a = if is_v2_image(&bytes) {
        let (a, stats) = rec
            .leaf("v2read.decode", || analyze_v2(&bytes, par))
            .map_err(|e| err(&e))?;
        rec.count(
            "v2read.blocks_decoded",
            stats.blocks_decoded as f64,
            Agg::Max,
        );
        rec.count(
            "v2read.blocks_skipped",
            stats.blocks_skipped as f64,
            Agg::Max,
        );
        a
    } else {
        let trace = rec
            .leaf("format.parse", || TraceFile::from_bytes(&bytes))
            .map_err(|e| err(&e))?;
        let (rows, _loss) = rec.leaf("parallel.decode", || {
            analyze_parallel_lossy(&trace, par.workers())
        });
        let columns = rec.leaf("columns.from_rows", || ColumnarTrace::from_rows(rows));
        Arc::new(Analysis::from_columns(columns))
    };
    let cols = a.columns();
    rec.count(
        "columns.bytes_per_event",
        cols.bytes_in_memory() as f64 / cols.events.len().max(1) as f64,
        Agg::Max,
    );
    Ok(a)
}

fn write_out(rec: &mut Recorder, out: &Path, bytes: &[u8]) -> Result<(), String> {
    rec.leaf("output.write", || std::fs::write(out, bytes))
        .map_err(|e| format!("{}: {e}", out.display()))
}

/// The text `ta-cli query --summary` prints for `s`.
fn window_text(a: &Analysis, s: &WindowSummary) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "window [{}, {}) over trace [{}, {}]{}",
        s.start_tb,
        s.end_tb,
        a.index().start_tb(),
        a.index().end_tb(),
        if s.suspect {
            "  ** SUSPECT: window overlaps decode loss **"
        } else {
            ""
        }
    );
    let _ = writeln!(text, "{} event(s)", s.total_events());
    for (core, n) in &s.events {
        let _ = writeln!(text, "  {core}: {n}");
    }
    for w in &s.activity {
        let line = ActivityKind::ALL
            .iter()
            .map(|&k| format!("{} {}", k.label(), w.ticks_of(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(text, "  SPE{} activity (ticks): {line}", w.spe);
    }
    text
}

/// The byte ranges a growing-file tail appends: a 10% prefix, then
/// `appends` near-equal pieces.
pub fn tail_pieces(len: usize, appends: usize) -> (usize, Vec<(usize, usize)>) {
    let prefix = len / 10;
    let rest = len - prefix;
    let pieces = (0..appends)
        .map(|k| {
            (
                prefix + rest * k / appends,
                prefix + rest * (k + 1) / appends,
            )
        })
        .collect();
    (prefix, pieces)
}

/// `ta-serve` following a file that grows while it polls: `open` on
/// the prefix, then per append `poll` and `summarize`. The file
/// writes themselves sit outside every span.
fn tail(mut rec: Recorder, job: &Job<'_>, exec0: ta::ExecStats) -> Result<Trace, String> {
    let io = |e: std::io::Error| format!("{}: {e}", job.input.display());
    let data = std::fs::read(job.input).map_err(io)?;
    let grow = job.out.with_extension("grow");
    let (prefix, pieces) = tail_pieces(data.len(), job.appends);
    std::fs::write(&grow, &data[..prefix]).map_err(io)?;
    let par = if job.parallel {
        Parallelism::Workers(4)
    } else {
        Parallelism::Serial
    };
    let (t0, t1) = job.window;
    let mut ingest = ImageIngest::new().with_parallelism(par);

    // Replies go to a file, as `ta-serve` writes them to its stdout.
    let mut replies = std::fs::File::create(job.out.with_extension("replies")).map_err(io)?;
    let mut reply = |rec: &mut Recorder, text: String| {
        rec.leaf("output.write", || replies.write_all(text.as_bytes()))
            .map_err(io)
    };
    // One poll as `ta-serve` answers it; `open` is the first poll.
    let poll = |rec: &mut Recorder, ingest: &mut ImageIngest| -> Result<String, String> {
        let bytes = rec
            .leaf("serve.read", || std::fs::read(&grow))
            .map_err(io)?;
        let consumed = ingest.bytes_consumed() as usize;
        rec.leaf("stream.push", || ingest.push(&bytes[consumed..]))
            .map_err(|e| e.to_string())?;
        let snap = rec.leaf("stream.snapshot", || ingest.snapshot());
        let events = rec.leaf("columns.materialize", || {
            snap.map_or(0, |a| a.events().len())
        });
        Ok(format!(
            "ok bytes={} events={events} complete={}\n",
            ingest.bytes_consumed(),
            ingest.is_complete()
        ))
    };

    rec.begin("op.open");
    let text = poll(&mut rec, &mut ingest)?;
    reply(&mut rec, text)?;
    rec.end();

    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&grow)
        .map_err(io)?;
    let (mut rebuilt, mut full) = (0.0, 0);
    for &(a, b) in &pieces {
        file.write_all(&data[a..b]).map_err(io)?;
        rec.begin("op.append");
        let text = poll(&mut rec, &mut ingest)?;
        reply(&mut rec, text)?;
        let snap = rec
            .leaf("stream.snapshot", || ingest.snapshot())
            .ok_or("no events ingested yet")?;
        let s = rec.leaf("query.summarize", || snap.summarize(t0, t1));
        let mut text = format!(
            "window [{}, {}): {} event(s){}\n",
            s.start_tb,
            s.end_tb,
            s.total_events(),
            if s.suspect { " SUSPECT" } else { "" }
        );
        for (core, n) in &s.events {
            let _ = writeln!(text, "  {core}: {n}");
        }
        text.push_str("ok\n");
        reply(&mut rec, text)?;
        rec.end();
        if let Some(d) = ingest.session().and_then(|s| s.last_delta()) {
            rebuilt += d.rebuilt_fraction();
            full += usize::from(d.full_rebuild);
        }
    }
    let n = pieces.len().max(1) as f64;
    rec.exec_delta(&exec0, n);
    rec.count("index.blocks_rebuilt_frac", rebuilt / n, Agg::Max);
    rec.count("stream.full_rebuilds", full as f64, Agg::Max);
    let snap = ingest.snapshot().ok_or("no events ingested")?;
    if !ingest.is_complete() {
        return Err("tail: image incomplete after the last append".into());
    }
    let cols = snap.columns();
    rec.count(
        "columns.bytes_per_event",
        cols.bytes_in_memory() as f64 / cols.events.len().max(1) as f64,
        Agg::Max,
    );
    std::fs::write(job.out, snap.summary()).map_err(io)?;
    drop(replies);
    std::fs::remove_file(&grow).map_err(io)?;
    std::fs::remove_file(job.out.with_extension("replies")).map_err(io)?;
    Ok(rec.trace)
}

/// The `probe` subcommand: runs one job and prints its trace.
pub fn main(job: &Job<'_>) -> Result<(), String> {
    let trace = run(job)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    trace.write(&mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}
