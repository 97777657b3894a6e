//! Cold-process stage probe: where one `ta-cli` request spends its time
//! and its first-touch page faults, stage by stage.
//!
//! ```text
//! cargo run --release -p bench --bin stage_probe -- TRACE.pdt[2] [--reps N] [-j PAR]
//! ```
//!
//! For every request kind and repetition the probe spawns a fresh child
//! of itself, so each measurement starts from a cold heap the way a
//! `ta-cli` invocation does. The child runs the request's stages in
//! `ta-cli` order and reports, per stage, the wall time and the minor
//! faults read from `/proc/self/stat`, then its peak RSS (`VmHWM`) and
//! the trace-file bytes its load read (`bytes_read`, from
//! `ta::reader::bytes_read`).
//!
//! Loading is `ta-cli`'s, through [`ta::Analysis::open`]: `open` opens
//! the file, sniffs the container and reads only its structure (for a
//! `.pdt`, the header, the stream directory and the name table; for a
//! `.pdt2`, also each stream's footer directory); `ingest` runs the
//! builder, and each ingest shard reads its own stream (in chunks, or
//! block by block), so those reads are timed inside `ingest`. Builds
//! before the one front door timed the structure read as a `read`
//! stage of its own. After the request it builds the global event
//! order, a stage no per-core request and no lint needs. Like
//! `ta-cli`, it leaves the session to the process exit instead of
//! freeing it. The parent prints one JSON document with the median of
//! every figure over the repetitions.
//!
//! Request kinds, each mirroring one `ta-cli` command, and the stages
//! each runs after `open` and `ingest`:
//!
//! - `summary`: intervals, stats, render;
//! - `query`: intervals, index, summarize (the middle 1%
//!   of the span, as `ta-cli query --from --to --summary`);
//! - `svg`: intervals, timeline, render (`timeline --svg`,
//!   written to a sink that counts its bytes, reported as `svg_bytes`).
//!   The timeline is a view that borrows the session's intervals:
//!   `timeline` times building one alone (its labels and markers), and
//!   `render` builds it again and draws it, as `ta-cli` does. Builds
//!   before the borrowing view copied every interval in `timeline` and
//!   memoized the copy for `render`;
//! - `lint`: intervals, lint (`lint --format sarif`): the sync-edge
//!   extraction, the rules with the happens-before pass among them,
//!   and the rendering. Lint builds no global order, so the trailing
//!   `order` stage builds it in full.
//!
//! Every kind ends with `order` (a no-op when the request built it).
//! Builds before this one also timed a trailing `drop`, the session's
//! teardown, which `ta-cli` does not run.

use std::process::Command;
use std::time::Instant;

use bench::peak_rss_kb;
use ta::reader::bytes_read;
use ta::{Analysis, Parallelism, ReportKind};

const KINDS: [&str; 4] = ["summary", "query", "svg", "lint"];

/// This process's minor page faults so far (field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after
        .split_whitespace()
        .nth(7)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// An `io::Write` that keeps nothing and counts what it is handed.
struct Counting(u64);

impl std::io::Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Times stages and prints one `stage ms faults` line per stage.
struct Stages;

impl Stages {
    fn run<T>(&self, stage: &str, f: impl FnOnce() -> T) -> T {
        let (f0, t0) = (minor_faults(), Instant::now());
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{stage} {ms:.4} {}", minor_faults() - f0);
        out
    }
}

/// One request in this (fresh) process.
fn child(kind: &str, path: &str, par: Parallelism) -> Result<(), String> {
    let s = Stages;
    let bytes0 = bytes_read();
    let builder = s
        .run("open", || Analysis::open(path))
        .map_err(|e| e.to_string())?;
    let a = s
        .run("ingest", || builder.parallelism(par).run())
        .map_err(|e| e.to_string())?;
    println!("bytes_read {}", bytes_read() - bytes0);
    match kind {
        "summary" => {
            s.run("intervals", || a.intervals().len());
            s.run("stats", || a.stats().spes.len());
            s.run("render", || a.summary().len());
        }
        "query" => {
            s.run("intervals", || a.intervals().len());
            let (t0, t1) = s.run("index", || {
                let (lo, hi) = (a.index().start_tb(), a.index().end_tb());
                let w = (hi - lo) / 100;
                let t0 = lo + (hi - lo) / 2 - w / 2;
                (t0, t0 + w)
            });
            s.run("summarize", || a.summarize(t0, t1).total_events());
        }
        "svg" => {
            s.run("intervals", || a.intervals().len());
            s.run("timeline", || a.timeline().lanes.len());
            let mut out = Counting(0);
            s.run("render", || {
                a.write_report(ReportKind::Svg, &Default::default(), &mut out)
            })
            .map_err(|e| e.to_string())?;
            println!("svg_bytes {}", out.0);
        }
        "lint" => {
            s.run("intervals", || a.intervals().len());
            s.run("lint", || a.lint().to_sarif().len());
        }
        other => return Err(format!("unknown request kind {other:?}")),
    }
    println!("peak_rss_kib {}", peak_rss_kb());
    s.run("order", || a.columns().order().by_rank().len());
    // `ta-cli` leaks its session at exit; so does the probe.
    std::mem::forget(a);
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `reps` fresh children per request kind and prints the medians.
fn parent(path: &str, reps: usize, par: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut requests = Vec::new();
    for kind in KINDS {
        // (stage, ms samples, fault samples), in first-seen order.
        let mut stages: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
        let mut rss = Vec::new();
        let mut svg_bytes = Vec::new();
        let mut read_bytes = Vec::new();
        for _ in 0..reps {
            let out = Command::new(&exe)
                .args(["--child", kind, path, "-j", par])
                .output()
                .map_err(|e| e.to_string())?;
            if !out.status.success() {
                return Err(format!(
                    "{kind} child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            // A stage that runs twice (a no-op second `order`) is
            // recorded once per occurrence, distinguished by position.
            let mut seen: Vec<String> = Vec::new();
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let f: Vec<&str> = line.split_whitespace().collect();
                match f.as_slice() {
                    ["peak_rss_kib", kib] => rss.push(kib.parse::<f64>().unwrap_or(0.0)),
                    ["svg_bytes", n] => svg_bytes.push(n.parse::<f64>().unwrap_or(0.0)),
                    ["bytes_read", n] => read_bytes.push(n.parse::<f64>().unwrap_or(0.0)),
                    [stage, ms, faults] => {
                        let n = seen.iter().filter(|s| s.as_str() == *stage).count();
                        seen.push(stage.to_string());
                        let name = if n == 0 {
                            stage.to_string()
                        } else {
                            format!("{stage}#{}", n + 1)
                        };
                        let at = match stages.iter().position(|(s, _, _)| *s == name) {
                            Some(at) => at,
                            None => {
                                stages.push((name, Vec::new(), Vec::new()));
                                stages.len() - 1
                            }
                        };
                        stages[at].1.push(ms.parse().unwrap_or(0.0));
                        stages[at].2.push(faults.parse().unwrap_or(0.0));
                    }
                    _ => {}
                }
            }
        }
        let stage_json: Vec<String> = stages
            .into_iter()
            .map(|(name, ms, faults)| {
                format!(
                    "{{\"stage\": \"{name}\", \"ms\": {:.3}, \"minflt\": {:.0}}}",
                    median(ms),
                    median(faults)
                )
            })
            .collect();
        let mut bytes_json = format!(", \"bytes_read\": {:.0}", median(read_bytes));
        if !svg_bytes.is_empty() {
            bytes_json += &format!(", \"svg_bytes\": {:.0}", median(svg_bytes));
        }
        requests.push(format!(
            "    {{\"request\": \"{kind}\", \"peak_rss_kib\": {:.0}{bytes_json}, \"stages\": [\n      {}\n    ]}}",
            median(rss),
            stage_json.join(",\n      ")
        ));
    }
    println!(
        "{{\n  \"trace\": \"{}\",\n  \"reps\": {reps},\n  \"parallelism\": \"{par}\",\n  \"requests\": [\n{}\n  ]\n}}",
        path.replace('\\', "\\\\").replace('"', "\\\""),
        requests.join(",\n")
    );
    Ok(())
}

fn parse_par(s: &str) -> Result<Parallelism, String> {
    match s {
        "serial" => Ok(Parallelism::Serial),
        "auto" => Ok(Parallelism::Auto),
        n => n
            .parse::<usize>()
            .map(Parallelism::from_threads)
            .map_err(|_| format!("bad parallelism {s:?}")),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        let v = args.get(i + 1).cloned();
        args.drain(i..(i + 2).min(args.len()));
        v
    };
    let par = take("-j").unwrap_or_else(|| "auto".into());
    let reps = take("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7usize);
    let kind = take("--child");
    let result = match (kind, args.first()) {
        (Some(kind), Some(path)) => parse_par(&par).and_then(|p| child(&kind, path, p)),
        (None, Some(path)) => parent(path, reps.max(1), &par),
        _ => Err("usage: stage_probe TRACE [--reps N] [-j N|serial|auto]".into()),
    };
    if let Err(e) = result {
        eprintln!("stage_probe: {e}");
        std::process::exit(1);
    }
}
