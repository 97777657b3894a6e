//! Live trace server: follows a growing `.pdt` file through the
//! streaming ingestion API ([`ta::ImageIngest`]) and answers queries
//! from immutable [`ta::Analysis`] snapshot epochs.
//!
//! Speaks a line-delimited protocol on stdin/stdout, or over a single
//! TCP connection with `--listen ADDR`:
//!
//! ```text
//! open PATH          start following PATH (resets any prior session)
//! poll               re-read the file, ingest newly appended bytes
//! summary            whole-trace summary of the current snapshot
//! summarize T0 T1    indexed window summary [T0, T1)
//! loss               decode-gap / drop accounting (CSV)
//! events N           the last N events of the current snapshot
//! stats              parallel fan-out counters (ta::exec)
//! quit               close the session
//! ```
//!
//! Every command's reply ends with a line starting `ok` (possibly with
//! `key=value` details) or `err <message>`, so the protocol is safe to
//! script. `poll` only ever ingests the file's grown suffix — the
//! server never re-decodes bytes it has already consumed, and a file
//! that shrinks is reported as an error rather than silently
//! reloaded. `stats` reports the fan-out counters behind every
//! parallel product build — shards run, threads spawned and cumulative
//! busy time — as one `ok key=value` line.

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

use ta::{ImageIngest, Parallelism};

/// One followed trace: its path and the incremental parser state.
struct Follow {
    path: String,
    ingest: ImageIngest,
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
            "loss" => self.with_snapshot(|a| ta::loss_csv(a.loss())),
            "stats" => {
                let st = ta::exec::pool().stats();
                Ok(format!(
                    "ok tasks={} workers={} busy_ms={}\n",
                    st.tasks,
                    st.workers,
                    st.busy_ns() / 1_000_000,
                ))
            }
            "events" => {
                let n = parts.next().and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) => self.with_snapshot(|a| {
                        // Only the last `n` events are viewed; no rows
                        // are materialized.
                        let events = &a.columns().events;
                        let mut text = String::new();
                        for e in
                            (events.len().saturating_sub(n)..events.len()).map(|i| events.view(i))
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
        });
        self.poll()
    }

    /// Re-reads the followed file and ingests whatever grew past the
    /// bytes already consumed.
    fn poll(&mut self) -> Result<String, String> {
        let f = self.follow.as_mut().ok_or("no trace open")?;
        let data = std::fs::read(&f.path).map_err(|e| format!("{}: {e}", f.path))?;
        let consumed = f.ingest.bytes_consumed() as usize;
        if data.len() < consumed {
            return Err(format!(
                "{} shrank below the {consumed} bytes already ingested",
                f.path
            ));
        }
        f.ingest
            .push(&data[consumed..])
            .map_err(|e| format!("{}: {e}", f.path))?;
        let events = f.ingest.snapshot().map_or(0, |a| a.columns().events.len());
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
}

/// Whether a reply already carries its own `ok ...` status line.
fn starts_ok(text: &str) -> bool {
    text.lines()
        .next_back()
        .is_some_and(|l| l.starts_with("ok"))
}

fn serve(reader: impl BufRead, mut writer: impl Write) -> std::io::Result<()> {
    let mut server = Server::new();
    for line in reader.lines() {
        if !server.handle(&line?, &mut writer)? {
            break;
        }
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
