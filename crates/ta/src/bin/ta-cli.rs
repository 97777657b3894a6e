//! The Trace Analyzer as a command-line tool, operating on `.pdt`
//! trace files exactly like the original worked on traces shipped off
//! a Cell blade.
//!
//! ```text
//! ta-cli summary  TRACE              per-core activity, DMA stats, event counts
//! ta-cli timeline TRACE [--svg OUT]  ASCII timeline (or SVG to a file)
//! ta-cli events   TRACE [--core C]   event listing (CSV)
//! ta-cli phases   TRACE              user-defined phase intervals
//! ta-cli compare  BEFORE AFTER       before/after comparison
//! ta-cli report   TRACE OUT.html     self-contained HTML report
//! ta-cli loss     TRACE              decode-gap / drop accounting (CSV)
//! ta-cli occupancy TRACE             MFC queue depth per SPE
//! ta-cli causality TRACE             cross-core order check + skew estimate
//! ta-cli query    TRACE [--from T] [--to T] [--core C]... [--code E]...
//!                 [--group G]... [--summary]
//!                                    indexed window/filter query
//! ta-cli lint     TRACE [--format text|json|sarif] [--deny RULE]...
//!                 [--allow RULE]... [--config PATH]
//!                                    rule-based static analysis
//! ta-cli follow   TRACE [--poll MS] [--max-polls N]
//!                                    live-tail a growing trace file
//! ta-cli pack     IN OUT.pdt2 [--block-records N]
//!                                    convert to the blocked, compressed v2 container
//! ta-cli unpack   IN.pdt2 OUT.pdt   convert a v2 container back to raw v1
//! ```
//!
//! Every analysis command opens its trace through
//! [`ta::Analysis::open`], which sniffs the container by magic: `.pdt`
//! (v1, raw granules) and `.pdt2` (v2, blocked + compressed with
//! per-block footers) images are both accepted. On a v2 image, a
//! windowed `query` listing decodes only the blocks whose footer time
//! range overlaps the window and reports the decode/skip counters on
//! stderr; a truncated v2 image degrades to loss accounting, whose
//! report names the structure the image ends inside, instead of
//! failing. Both containers are read with positioned reads, never
//! whole (but for `pack` and `unpack`), with or without `--strict`.
//!
//! The loaded session is never freed: the process exits after one
//! request, and the kernel reclaims its memory at once, where dropping
//! it would walk and free every column, lane and memo first.
//!
//! Answers go to stdout through one buffered writer, and reports
//! (`timeline`, `events`, `loss`, `report`) are streamed into it, or
//! into the output file, as they are produced. A failed write, such as
//! a closed pipe, ends the command with the error and exit status 1.
//!
//! `follow` streams a trace that is still being written: each poll
//! seeks past the bytes already consumed, reads only the file's grown
//! suffix and ingests it through [`ta::ImageIngest`],
//! prints a progress line from an immutable snapshot, and renders the
//! full summary once the image completes. A file that shrinks mid-tail
//! is an error (the writer restarted; re-run `follow`).
//!
//! `lint` runs the [`ta::lint`] rule registry (DMA races, tag-group
//! misuse, mailbox deadlock shapes, ...) and exits nonzero when any
//! firm (non-suspect) error-severity diagnostic survives. A
//! `.talint.toml` in the current directory is loaded as the baseline
//! unless `--config` names one explicitly; `--allow` skips rules and
//! `--deny` promotes their diagnostics to errors.
//!
//! `query` runs through the session's trace index, so window and core
//! restrictions resolve by binary search rather than a full rescan.
//! Without `--summary` it lists the matching events; with it, it
//! prints the window's per-core event counts and
//! per-SPE activity occupancy, flagging windows that overlap decode
//! gaps as suspect.
//!
//! Ingestion is lossy by default: corrupt records become accounted
//! decode gaps instead of hard errors, and `summary` flags SPEs whose
//! statistics span gaps. Pass `--strict` to fail on the first
//! malformed record instead.
//!
//! Concurrency is one knob: `-j N` (or `--parallelism N|serial|auto`,
//! default `auto`) sets the [`ta::Parallelism`] ingest decodes the SPE
//! streams with (one shard per stream, `.pdt` and `.pdt2` alike) and
//! every derived product is built with; the answer is byte-identical
//! at every setting. `--exec-stats` prints the parallel fan-out counters
//! (shards run, threads spawned, busy time) to stderr after the
//! command completes.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::process::ExitCode;

use pdt::{TraceCore, TraceFile, DEFAULT_BLOCK_RECORDS};
use ta::{
    compare_traces, is_v2_image, user_phases, Analysis, CsvTable, EventFilter, LintConfig,
    MappedImage, Parallelism, RenderOptions, ReportKind, SvgOptions, V2Trace,
};

/// Loads the trace at `path`, of either container. Only its structure
/// is read here; each decode shard reads its own stream.
fn load(path: &str, strict: bool, par: Parallelism) -> Result<&'static Analysis, String> {
    let err = |e: &dyn std::fmt::Display| format!("{path}: {e}");
    let builder = Analysis::open(path).map_err(|e| err(&e))?.parallelism(par);
    let builder = if strict { builder.strict() } else { builder };
    let a = builder.run().map_err(|e| err(&e))?;
    // Never freed: the process exits after one request, and the kernel
    // reclaims the session faster than dropping each column and memo.
    Ok(Box::leak(Box::new(a)))
}

fn parse_parallelism(s: &str) -> Result<Parallelism, String> {
    match s {
        "serial" => Ok(Parallelism::Serial),
        "auto" => Ok(Parallelism::Auto),
        n => n
            .parse::<usize>()
            .map(Parallelism::from_threads)
            .map_err(|_| format!("bad parallelism {s:?} (expected N, serial, or auto)")),
    }
}

fn parse_core(s: &str) -> Result<TraceCore, String> {
    if let Some(i) = s.strip_prefix("spe") {
        return i
            .parse::<u8>()
            .map(TraceCore::Spe)
            .map_err(|_| format!("bad core {s:?}"));
    }
    if let Some(i) = s.strip_prefix("ppe") {
        return i
            .parse::<u8>()
            .map(TraceCore::Ppe)
            .map_err(|_| format!("bad core {s:?}"));
    }
    Err(format!("bad core {s:?} (expected speN or ppeN)"))
}

fn parse_code(s: &str) -> Result<pdt::EventCode, String> {
    (0..=u16::MAX)
        .filter_map(pdt::EventCode::from_raw)
        .find(|c| c.name() == s)
        .ok_or_else(|| format!("unknown event code {s:?}"))
}

fn parse_group(s: &str) -> Result<pdt::EventGroup, String> {
    pdt::EventGroup::ALL
        .into_iter()
        .find(|g| g.name() == s)
        .ok_or_else(|| format!("unknown event group {s:?}"))
}

/// Collects every value of a repeatable `--flag VALUE` option,
/// removing the consumed arguments.
fn take_values(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    while let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        out.push(args.remove(i + 1));
        args.remove(i);
    }
    Ok(out)
}

/// One line of an event listing: `time_tb,core,event,[params]`.
fn write_event(out: &mut dyn Write, e: &ta::GlobalEvent) -> io::Result<()> {
    writeln!(
        out,
        "{},{},{},{:?}",
        e.time_tb,
        e.core,
        e.code.name(),
        e.params
    )
}

/// Streams one report to the file at `dest` through a `BufWriter`.
fn write_report_to(
    a: &Analysis,
    kind: ReportKind,
    opts: &RenderOptions,
    dest: &str,
) -> Result<(), String> {
    let io_err = |e: io::Error| format!("{dest}: {e}");
    let mut w = BufWriter::new(File::create(dest).map_err(io_err)?);
    a.write_report(kind, opts, &mut w).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Why a command failed: the message printed to stderr before the
/// exit with status 1.
struct Failure(String);

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure(msg.into())
    }
}

/// An unlabelled I/O error is a failed write to stdout (a closed
/// pipe, a full disk); file errors are labelled with their path.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure(format!("stdout: {e}"))
    }
}

/// Runs the command in `args`, writing its answer to `out`.
fn run(out: &mut dyn Write) -> Result<(), Failure> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.iter().any(|a| a == "--strict");
    args.retain(|a| a != "--strict");
    let exec_stats = args.iter().any(|a| a == "--exec-stats");
    args.retain(|a| a != "--exec-stats");
    let par = {
        let mut vals = take_values(&mut args, "--parallelism")?;
        vals.extend(take_values(&mut args, "-j")?);
        match vals.last() {
            Some(v) => parse_parallelism(v)?,
            None => Parallelism::Auto,
        }
    };
    let usage = "usage: ta-cli <summary|timeline|events|phases|compare|report|loss|occupancy|causality|query|lint|follow|pack|unpack> TRACE [...] [--strict] [-j N|serial|auto] [--exec-stats]";
    let cmd = args.first().ok_or(usage)?;
    match cmd.as_str() {
        "summary" => {
            let path = args.get(1).ok_or(usage)?;
            out.write_all(load(path, strict, par)?.summary().as_bytes())?;
        }
        "timeline" => {
            let path = args.get(1).ok_or(usage)?;
            let a = load(path, strict, par)?;
            match args.iter().position(|a| a == "--svg") {
                Some(i) => {
                    let dest = args.get(i + 1).ok_or("--svg requires a path")?;
                    write_report_to(a, ReportKind::Svg, &RenderOptions::default(), dest)?;
                    writeln!(out, "wrote {dest}")?;
                }
                None => a.write_report(
                    ReportKind::Ascii,
                    &RenderOptions::default().with_ascii_width(120),
                    out,
                )?,
            }
        }
        "events" => {
            let path = args.get(1).ok_or(usage)?;
            let a = load(path, strict, par)?;
            match args.iter().position(|a| a == "--core") {
                Some(i) => {
                    let core = parse_core(args.get(i + 1).ok_or("--core requires a core")?)?;
                    let filter = EventFilter::new().on_core(core);
                    for e in filter.apply(a) {
                        write_event(out, e)?;
                    }
                }
                None => a.write_report(ReportKind::Csv, &RenderOptions::default(), out)?,
            }
        }
        "loss" => {
            let path = args.get(1).ok_or(usage)?;
            let a = load(path, strict, par)?;
            a.write_report(
                ReportKind::Csv,
                &RenderOptions::default().with_csv(CsvTable::Loss),
                out,
            )?;
        }
        "phases" => {
            let path = args.get(1).ok_or(usage)?;
            let a = load(path, strict, par)?;
            let analyzed = a.analyzed();
            let report = user_phases(analyzed);
            if report.phases.is_empty() {
                writeln!(out, "no user phases recorded")?;
            }
            for p in &report.phases {
                writeln!(
                    out,
                    "phase {} on {}: {} .. {} ({:.2} µs)",
                    p.id,
                    p.core,
                    p.start_tb,
                    p.end_tb,
                    analyzed.tb_to_ns(p.ticks()) / 1000.0
                )?;
            }
            if report.unmatched_begins + report.unmatched_ends > 0 {
                writeln!(
                    out,
                    "warning: {} unmatched begins, {} unmatched ends",
                    report.unmatched_begins, report.unmatched_ends
                )?;
            }
        }
        "causality" => {
            let path = args.get(1).ok_or(usage)?;
            let a = load(path, strict, par)?;
            let v = ta::violations(a.analyzed());
            writeln!(out, "{} provable edges violated", v.len())?;
            for est in ta::estimate_skew(a.analyzed()) {
                writeln!(
                    out,
                    "SPE{}: shift +{} ticks (forced by {} edges, {} allowed)",
                    est.spe, est.shift_tb, est.forced_by, est.allowed_tb
                )?;
            }
        }
        "occupancy" => {
            let path = args.get(1).ok_or(usage)?;
            let a = load(path, strict, par)?;
            for o in a.occupancy() {
                writeln!(
                    out,
                    "SPE{}: peak {} outstanding, mean {:.2}, >=2 outstanding {:.1}% of the time",
                    o.spe,
                    o.peak,
                    o.mean,
                    o.fraction_at_least(2) * 100.0
                )?;
            }
        }
        "report" => {
            let path = args.get(1).ok_or(usage)?;
            let dest = args.get(2).ok_or("report needs an output path")?;
            let a = load(path, strict, par)?;
            let opts = RenderOptions::default()
                .with_title(path)
                .with_svg(SvgOptions {
                    width: 1100,
                    ..SvgOptions::default()
                });
            write_report_to(a, ReportKind::Html, &opts, dest)?;
            writeln!(out, "wrote {dest}")?;
        }
        "compare" => {
            let before = args.get(1).ok_or(usage)?;
            let after = args.get(2).ok_or(usage)?;
            let c = compare_traces(load(before, strict, par)?, load(after, strict, par)?);
            out.write_all(c.render().as_bytes())?;
        }
        "pack" => {
            let block_records = take_values(&mut args, "--block-records")?
                .last()
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|n| (1..=1 << 20).contains(n))
                        .ok_or(format!("bad --block-records {v:?} (expected 1..=1048576)"))
                })
                .transpose()?
                .unwrap_or(DEFAULT_BLOCK_RECORDS);
            let input = args.get(1).ok_or("pack needs IN.pdt and OUT.pdt2")?;
            let dest = args.get(2).ok_or("pack needs IN.pdt and OUT.pdt2")?;
            let bytes = MappedImage::open(input).map_err(|e| format!("{input}: {e}"))?;
            // A v2 input is accepted too: unpack + repack re-blocks it.
            let trace = if is_v2_image(&bytes) {
                pdt::unpack(&bytes).map_err(|e| format!("{input}: {e}"))?
            } else {
                TraceFile::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?
            };
            let image = pdt::pack(&trace, block_records);
            std::fs::write(dest, &image).map_err(|e| format!("{dest}: {e}"))?;
            writeln!(
                out,
                "wrote {dest}: {} -> {} bytes ({:.2}x, {block_records} records/block)",
                bytes.len(),
                image.len(),
                bytes.len() as f64 / image.len().max(1) as f64,
            )?;
        }
        "unpack" => {
            let input = args.get(1).ok_or("unpack needs IN.pdt2 and OUT.pdt")?;
            let dest = args.get(2).ok_or("unpack needs IN.pdt2 and OUT.pdt")?;
            let bytes = MappedImage::open(input).map_err(|e| format!("{input}: {e}"))?;
            if !is_v2_image(&bytes) {
                return Err(format!("{input}: not a PDT2 image").into());
            }
            let trace = pdt::unpack(&bytes).map_err(|e| format!("{input}: {e}"))?;
            let v1 = trace.to_bytes();
            std::fs::write(dest, &v1).map_err(|e| format!("{dest}: {e}"))?;
            writeln!(out, "wrote {dest}: {} -> {} bytes", bytes.len(), v1.len())?;
        }
        "query" => {
            let summary = args.iter().any(|a| a == "--summary");
            args.retain(|a| a != "--summary");
            let from = take_values(&mut args, "--from")?
                .last()
                .map(|v| v.parse::<u64>().map_err(|_| format!("bad --from {v:?}")))
                .transpose()?;
            let to = take_values(&mut args, "--to")?
                .last()
                .map(|v| v.parse::<u64>().map_err(|_| format!("bad --to {v:?}")))
                .transpose()?;
            let cores = take_values(&mut args, "--core")?;
            let codes = take_values(&mut args, "--code")?;
            let groups = take_values(&mut args, "--group")?;
            let path = args.get(1).ok_or(usage)?;
            // The listing's filter over `[t0, t1)`.
            let filter = |t0, t1| -> Result<EventFilter, String> {
                let mut filter = EventFilter::new().in_window(t0, t1);
                for c in &cores {
                    filter = filter.on_core(parse_core(c)?);
                }
                for c in &codes {
                    filter = filter.with_code(parse_code(c)?);
                }
                for g in &groups {
                    filter = filter.in_group(parse_group(g)?);
                }
                Ok(filter)
            };

            // On an intact v2 container, a listing query takes the
            // block-skip path: only packed blocks whose footer time
            // range overlaps the window are read and decoded at all.
            // Anything else is loaded as every command loads it.
            let listing = !summary && !strict;
            let v2 = listing.then(|| File::open(path).and_then(|f| V2Trace::read(&f)).ok());
            if let Some(v2) = v2.flatten().filter(|v2| v2.file().truncation.is_none()) {
                let (t0, t1) = (from.unwrap_or(0), to.unwrap_or(u64::MAX));
                let filter = filter(t0, t1)?;
                let wq = v2
                    .window_events(t0, t1)
                    .map_err(|e| format!("{path}: {e}"))?;
                for e in wq.events.iter().filter(|e| filter.matches(e)) {
                    write_event(out, e)?;
                }
                if wq.suspect {
                    eprintln!(
                        "warning: window overlaps damaged or unplaced blocks; \
                         the listing may be incomplete"
                    );
                }
                eprintln!(
                    "codec: {} of {} block(s) decoded, {} skipped, {} corrupt, {} payload bytes read",
                    wq.stats.blocks_decoded,
                    v2.file().total_blocks(),
                    wq.stats.blocks_skipped,
                    wq.stats.blocks_corrupt,
                    wq.stats.payload_bytes_read,
                );
                return Ok(());
            }
            let a = load(path, strict, par)?;

            let (t0, t1) = (
                from.unwrap_or(0),
                to.unwrap_or_else(|| a.index().end_tb().saturating_add(1)),
            );
            if summary {
                let s = a.summarize(t0, t1);
                writeln!(
                    out,
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
                )?;
                writeln!(out, "{} event(s)", s.total_events())?;
                for (core, n) in &s.events {
                    writeln!(out, "  {core}: {n}")?;
                }
                for w in &s.activity {
                    let line = ta::ActivityKind::ALL
                        .iter()
                        .map(|&k| format!("{} {}", k.label(), w.ticks_of(k)))
                        .collect::<Vec<_>>()
                        .join(", ");
                    writeln!(out, "  SPE{} activity (ticks): {line}", w.spe)?;
                }
                return Ok(());
            }

            for e in filter(t0, t1)?.apply(a) {
                write_event(out, e)?;
            }
        }
        "lint" => {
            let format = take_values(&mut args, "--format")?
                .last()
                .cloned()
                .unwrap_or_else(|| "text".into());
            let deny = take_values(&mut args, "--deny")?;
            let allow = take_values(&mut args, "--allow")?;
            let config_path = take_values(&mut args, "--config")?.last().cloned();
            let path = args.get(1).ok_or(usage)?;

            let mut config = match &config_path {
                Some(p) => {
                    let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                    LintConfig::from_toml_str(&text).map_err(|e| e.to_string())?
                }
                None => match std::fs::read_to_string(".talint.toml") {
                    Ok(text) => LintConfig::from_toml_str(&text).map_err(|e| e.to_string())?,
                    Err(_) => LintConfig::default(),
                },
            };
            config.deny.extend(deny);
            config.allow.extend(allow);

            let a = load(path, strict, par)?;
            let report = a.lint_with(&config);
            match format.as_str() {
                "text" => out.write_all(report.render_text().as_bytes())?,
                "json" => out.write_all(report.to_json().as_bytes())?,
                "sarif" => out.write_all(report.to_sarif().as_bytes())?,
                other => return Err(format!("unknown --format {other:?} (text|json|sarif)").into()),
            }
            let firm = report.firm_errors().count();
            if firm > 0 {
                return Err(format!("lint: {firm} firm error(s)").into());
            }
        }
        "follow" => {
            let poll_ms = take_values(&mut args, "--poll")?
                .last()
                .map(|v| v.parse::<u64>().map_err(|_| format!("bad --poll {v:?}")))
                .transpose()?
                .unwrap_or(200);
            let max_polls = take_values(&mut args, "--max-polls")?
                .last()
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("bad --max-polls {v:?}"))
                })
                .transpose()?
                .unwrap_or(0);
            let path = args.get(1).ok_or(usage)?;
            let mut ingest = ta::ImageIngest::new().with_parallelism(par);
            let io_err = |e: io::Error| format!("{path}: {e}");
            let mut suffix = Vec::new();
            let mut polls = 0u64;
            loop {
                // Only the grown suffix is read, as `ta-serve poll` does.
                let mut file = File::open(path).map_err(io_err)?;
                let len = file.metadata().map_err(io_err)?.len();
                let consumed = ingest.bytes_consumed();
                if len < consumed {
                    return Err(format!(
                        "{path} shrank below the {consumed} bytes already ingested"
                    )
                    .into());
                }
                if len > consumed {
                    file.seek(SeekFrom::Start(consumed)).map_err(io_err)?;
                    suffix.clear();
                    file.take(len - consumed)
                        .read_to_end(&mut suffix)
                        .map_err(io_err)?;
                    ingest.push(&suffix).map_err(|e| format!("{path}: {e}"))?;
                    let events = ingest.snapshot().map_or(0, |a| a.event_count());
                    eprintln!(
                        "{} bytes, {events} event(s){}",
                        ingest.bytes_consumed(),
                        if ingest.is_complete() {
                            ", complete"
                        } else {
                            ""
                        }
                    );
                }
                if ingest.is_complete() {
                    break;
                }
                polls += 1;
                if max_polls != 0 && polls >= max_polls {
                    return Err(format!("{path}: still incomplete after {polls} poll(s)").into());
                }
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            }
            let snap = ingest.snapshot().ok_or("trace completed with no events")?;
            out.write_all(snap.summary().as_bytes())?;
        }
        "--help" | "-h" => writeln!(out, "{usage}")?,
        other => return Err(format!("unknown command {other:?}\n{usage}").into()),
    }
    if exec_stats {
        let st = ta::exec::pool().stats();
        eprintln!(
            "exec: tasks={} workers={} busy_ms={}",
            st.tasks,
            st.workers,
            st.busy_ns() / 1_000_000,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut out = BufWriter::new(io::stdout().lock());
    let result = run(&mut out);
    // Flushed on failure too: `lint` fails after printing its report.
    let flushed = out.flush().map_err(Failure::from);
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
