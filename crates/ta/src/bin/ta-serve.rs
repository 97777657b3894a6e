//! Live trace server: follows a growing `.pdt` file through the
//! streaming ingestion API ([`ta::ImageIngest`]) and answers queries
//! from immutable [`ta::Analysis`] snapshot epochs.
//!
//! Speaks a line-delimited protocol on stdin/stdout, or over a single
//! TCP connection with `--listen ADDR`:
//!
//! ```text
//! open PATH          start following PATH (resets any prior session)
//! poll               ingest the bytes appended since the last poll
//! summary            whole-trace summary of the current snapshot
//! summarize T0 T1    indexed window summary [T0, T1)
//! loss               decode-gap / drop accounting (CSV)
//! events N           the last N events of the current snapshot
//! stats              fan-out and incremental-ingest counters
//! quit               close the session
//! ```
//!
//! Every command's reply ends with a line starting `ok` (possibly with
//! `key=value` details) or `err <message>`, so the protocol is safe to
//! script. `poll` only ever reads the file's grown suffix — the server
//! seeks past the bytes it has already consumed, never re-reads or
//! re-decodes them — and a file that shrinks is reported as an error
//! rather than silently reloaded. `poll` reports the event count
//! without merging the live tail into the snapshot, so a poll followed
//! by `summarize` costs time proportional to the appended bytes.
//!
//! `stats` reports, as one `ok key=value` line, the fan-out counters
//! behind every parallel product build (shards run, threads spawned,
//! cumulative busy time) and the followed session's ingest counters:
//! `full_rebuilds` of the index, and the last epoch's
//! `blocks_rebuilt`/`blocks_total`, counted in lane checkpoints (one
//! per 64 intervals of an SPE lane).
//!
//! A request line longer than 64 KiB is discarded up to its newline
//! and answered `err line too long`; the session stays usable.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::process::ExitCode;

use ta::{CsvReport, CsvTable, ImageIngest, Parallelism, RenderOptions, Report};

/// Longest request line accepted, newline excluded.
const MAX_LINE: usize = 64 * 1024;

/// One followed trace: its path and the incremental parser state.
struct Follow {
    path: String,
    ingest: ImageIngest,
    /// Reused buffer for each poll's appended bytes.
    buf: Vec<u8>,
}

struct Server {
    follow: Option<Follow>,
}

impl Server {
    fn new() -> Self {
        Server { follow: None }
    }

    /// Handles one protocol line; the reply (including the trailing
    /// `ok`/`err` line) goes to `out`. Returns `false` on `quit`.
    fn handle(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let result = match cmd {
            "" => Ok(String::new()),
            "open" => self.open(parts.next()),
            "poll" => self.poll(),
            "summary" => self.with_snapshot(|a| a.summary()),
            "summarize" => {
                let t0 = parts.next().and_then(|v| v.parse::<u64>().ok());
                let t1 = parts.next().and_then(|v| v.parse::<u64>().ok());
                match (t0, t1) {
                    (Some(t0), Some(t1)) => self.with_snapshot(|a| {
                        let s = a.summarize(t0, t1);
                        let mut text = format!(
                            "window [{}, {}): {} event(s){}\n",
                            s.start_tb,
                            s.end_tb,
                            s.total_events(),
                            if s.suspect { " SUSPECT" } else { "" }
                        );
                        for (core, n) in &s.events {
                            text.push_str(&format!("  {core}: {n}\n"));
                        }
                        text
                    }),
                    _ => Err("summarize needs T0 T1".into()),
                }
            }
            "loss" => self.with_snapshot(|a| {
                // Named directly rather than through `ReportKind`, so the
                // timeline emitters (SVG, HTML, ASCII) stay out of this
                // binary. Writing into a `Vec` cannot fail.
                let mut out = Vec::new();
                let opts = RenderOptions::default().with_csv(CsvTable::Loss);
                let _ = CsvReport.write(a, &opts, &mut out);
                String::from_utf8_lossy(&out).into_owned()
            }),
            "stats" => Ok(self.stats()),
            "events" => {
                let n = parts.next().and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) => self.with_snapshot(|a| {
                        // Only the last `n` events are viewed; no rows
                        // are materialized.
                        let cols = a.columns();
                        let last = cols.order().by_rank();
                        let mut text = String::new();
                        for e in (last[last.len().saturating_sub(n)..].iter())
                            .map(|&i| cols.events.view(i as usize))
                        {
                            text.push_str(&format!(
                                "{},{},{},{:?}\n",
                                e.time_tb,
                                e.core,
                                e.code.name(),
                                e.params
                            ));
                        }
                        text
                    }),
                    None => Err("events needs a count".into()),
                }
            }
            "quit" => {
                writeln!(out, "ok bye")?;
                return Ok(false);
            }
            other => Err(format!("unknown command {other:?}")),
        };
        match result {
            Ok(text) => {
                out.write_all(text.as_bytes())?;
                if !text.ends_with("ok\n") && !starts_ok(&text) {
                    writeln!(out, "ok")?;
                }
            }
            Err(e) => writeln!(out, "err {e}")?,
        }
        out.flush()?;
        Ok(true)
    }

    fn open(&mut self, path: Option<&str>) -> Result<String, String> {
        let path = path.ok_or("open needs a path")?;
        std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        self.follow = Some(Follow {
            path: path.to_string(),
            ingest: ImageIngest::new().with_parallelism(Parallelism::Workers(4)),
            buf: Vec::new(),
        });
        self.poll()
    }

    /// Reads what the followed file grew by past the bytes already
    /// consumed, and ingests it.
    fn poll(&mut self) -> Result<String, String> {
        let f = self.follow.as_mut().ok_or("no trace open")?;
        let io_err = |e: std::io::Error| format!("{}: {e}", f.path);
        let mut file = std::fs::File::open(&f.path).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let consumed = f.ingest.bytes_consumed();
        if len < consumed {
            return Err(format!(
                "{} shrank below the {consumed} bytes already ingested",
                f.path
            ));
        }
        file.seek(SeekFrom::Start(consumed)).map_err(io_err)?;
        f.buf.clear();
        file.take(len - consumed)
            .read_to_end(&mut f.buf)
            .map_err(io_err)?;
        f.ingest
            .push(&f.buf)
            .map_err(|e| format!("{}: {e}", f.path))?;
        let events = f.ingest.snapshot().map_or(0, |a| a.event_count());
        Ok(format!(
            "ok bytes={} events={events} complete={}\n",
            f.ingest.bytes_consumed(),
            f.ingest.is_complete()
        ))
    }

    /// Runs `render` against the current snapshot epoch.
    fn with_snapshot<F: FnOnce(&ta::Analysis) -> String>(
        &mut self,
        render: F,
    ) -> Result<String, String> {
        let f = self.follow.as_mut().ok_or("no trace open")?;
        let snap = f.ingest.snapshot().ok_or("no events ingested yet")?;
        Ok(render(&snap))
    }

    /// The `stats` reply: fan-out counters, then the followed session's
    /// ingest counters (zero when no trace is open).
    fn stats(&self) -> String {
        let st = ta::exec::pool().stats();
        let session = self.follow.as_ref().and_then(|f| f.ingest.session());
        let delta = session.and_then(|s| s.last_delta());
        format!(
            "ok tasks={} workers={} busy_ms={} full_rebuilds={} \
             blocks_rebuilt={} blocks_total={}\n",
            st.tasks,
            st.workers,
            st.busy_ns() / 1_000_000,
            session.map_or(0, |s| s.full_rebuilds()),
            delta.map_or(0, |d| d.blocks_rebuilt),
            delta.map_or(0, |d| d.blocks_total),
        )
    }
}

/// Whether a reply already carries its own `ok ...` status line.
fn starts_ok(text: &str) -> bool {
    text.lines()
        .next_back()
        .is_some_and(|l| l.starts_with("ok"))
}

/// One request line as read from the client.
enum Line {
    /// A complete line, newline stripped.
    Text(Vec<u8>),
    /// A line over [`MAX_LINE`] bytes, discarded through its newline.
    TooLong,
}

/// Reads the next line into `buf`, keeping at most [`MAX_LINE`] bytes
/// of it; `None` at end of input.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<Line>> {
    buf.clear();
    let mut too_long = false;
    let mut any = false;
    loop {
        let avail = reader.fill_buf()?;
        if avail.is_empty() {
            break;
        }
        any = true;
        let (chunk, done) = match avail.iter().position(|&b| b == b'\n') {
            Some(at) => (&avail[..at], at + 1),
            None => (avail, avail.len()),
        };
        if buf.len() + chunk.len() > MAX_LINE {
            too_long = true;
            buf.clear();
        } else if !too_long {
            buf.extend_from_slice(chunk);
        }
        let newline = done > chunk.len();
        reader.consume(done);
        if newline {
            break;
        }
    }
    Ok(match (any, too_long) {
        (false, _) => None,
        (true, true) => Some(Line::TooLong),
        (true, false) => {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            Some(Line::Text(std::mem::take(buf)))
        }
    })
}

fn serve(mut reader: impl BufRead, mut writer: impl Write) -> std::io::Result<()> {
    let mut server = Server::new();
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut reader, &mut buf)? {
        let reply = match line {
            Line::TooLong => "err line too long",
            Line::Text(bytes) => match String::from_utf8(bytes) {
                Ok(text) => {
                    if !server.handle(&text, &mut writer)? {
                        break;
                    }
                    continue;
                }
                Err(_) => "err line is not utf-8",
            },
        };
        writeln!(writer, "{reply}")?;
        writer.flush()?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => serve(BufReader::new(std::io::stdin()), std::io::stdout().lock())
            .map_err(|e| e.to_string()),
        Some("--listen") => {
            let addr = args.get(1).ok_or("--listen needs an address")?;
            let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
            eprintln!("ta-serve listening on {}", listener.local_addr().unwrap());
            for conn in listener.incoming() {
                let conn = conn.map_err(|e| e.to_string())?;
                let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
                serve(reader, conn).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Some("--help" | "-h") => {
            println!("usage: ta-serve [--listen ADDR]");
            Ok(())
        }
        Some(other) => Err(format!("unknown argument {other:?} (try --help)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
