//! Smoke tests of the standalone `ta-cli` binary against a real trace
//! file on disk.

use std::path::PathBuf;
use std::process::Command;

use cellsim::{
    LsAddr, Machine, MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript, TagId,
    TagWaitMode,
};
use pdt::{TraceSession, TracingConfig};

fn make_trace(path: &PathBuf, compute: u64) {
    let mut m = Machine::new(MachineConfig::default().with_num_spes(2)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    let jobs = (0..2)
        .map(|i| {
            SpeJob::new(
                format!("cli{i}"),
                Box::new(SpuScript::new(vec![
                    SpuAction::DmaGet {
                        lsa: LsAddr::new(0x8000),
                        ea: 0x100000,
                        size: 4096,
                        tag: TagId::new(0).unwrap(),
                    },
                    SpuAction::WaitTags {
                        mask: 1,
                        mode: TagWaitMode::All,
                    },
                    SpuAction::UserEvent {
                        id: 9,
                        a0: pdt::markers::PHASE_BEGIN,
                        a1: 0,
                    },
                    SpuAction::Compute(compute),
                    SpuAction::UserEvent {
                        id: 9,
                        a0: pdt::markers::PHASE_END,
                        a1: 0,
                    },
                ])),
            )
        })
        .collect();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
    m.run().unwrap();
    session.collect(&m).write_to(path).unwrap();
}

fn cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ta-cli"))
        .args(args)
        .output()
        .expect("run ta-cli");
    let text =
        String::from_utf8_lossy(&out.stdout).to_string() + &String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text)
}

#[test]
fn summary_timeline_events_phases_and_compare() {
    let dir = std::env::temp_dir().join(format!("ta-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let before = dir.join("before.pdt");
    let after = dir.join("after.pdt");
    make_trace(&before, 80_000);
    make_trace(&after, 20_000);

    let (ok, text) = cli(&["summary", before.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("PDT trace summary"), "{text}");
    assert!(text.contains("SPE0"), "{text}");

    let (ok, text) = cli(&["timeline", before.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("legend"), "{text}");

    let svg_out = dir.join("t.svg");
    let (ok, _) = cli(&[
        "timeline",
        before.to_str().unwrap(),
        "--svg",
        svg_out.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(std::fs::read_to_string(&svg_out)
        .unwrap()
        .contains("</svg>"));

    let (ok, text) = cli(&["events", before.to_str().unwrap(), "--core", "spe1"]);
    assert!(ok, "{text}");
    assert!(text.contains("SPE1"), "{text}");
    assert!(!text.contains("SPE0,"), "{text}");

    let (ok, text) = cli(&["phases", before.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("phase 9"), "{text}");

    let (ok, text) = cli(&["compare", before.to_str().unwrap(), after.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("runtime:"), "{text}");
    assert!(text.contains("x)"), "{text}");

    let html_out = dir.join("report.html");
    let (ok, text) = cli(&[
        "report",
        before.to_str().unwrap(),
        html_out.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    let html = std::fs::read_to_string(&html_out).unwrap();
    assert!(html.contains("</html>"));
    assert!(html.contains("PDT trace report"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_lists_summarizes_and_filters() {
    let dir = std::env::temp_dir().join(format!("ta-cli-query-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("q.pdt");
    make_trace(&trace, 40_000);
    let path = trace.to_str().unwrap();

    // Unbounded query lists every event, one CSV-ish line each.
    let (ok, all) = cli(&["query", path]);
    assert!(ok, "{all}");
    let total = all.lines().count();
    assert!(total > 10, "suspiciously few events:\n{all}");
    assert!(all.contains("SPE0"), "{all}");
    assert!(all.contains("SPE1"), "{all}");

    // --core restricts to that core's events only.
    let (ok, spe1) = cli(&["query", path, "--core", "spe1"]);
    assert!(ok, "{spe1}");
    assert!(spe1.lines().count() < total, "{spe1}");
    assert!(!spe1.contains("SPE0"), "{spe1}");

    // --from/--to give a half-open window: splitting the span at an
    // event's timestamp puts that event in the right half only.
    let probe: u64 = all
        .lines()
        .nth(total / 2)
        .and_then(|l| l.split(',').next())
        .and_then(|t| t.parse().ok())
        .expect("event line starts with a timestamp");
    let (ok, lo) = cli(&["query", path, "--to", &probe.to_string()]);
    assert!(ok, "{lo}");
    let (ok, hi) = cli(&["query", path, "--from", &probe.to_string()]);
    assert!(ok, "{hi}");
    assert!(
        !lo.lines().any(|l| l.starts_with(&format!("{probe},"))),
        "{lo}"
    );
    assert!(
        hi.lines().any(|l| l.starts_with(&format!("{probe},"))),
        "{hi}"
    );
    assert_eq!(lo.lines().count() + hi.lines().count(), total);

    // --code keeps only the named event code.
    let (ok, user) = cli(&["query", path, "--code", "spe-user"]);
    assert!(ok, "{user}");
    assert!(user.lines().count() > 0, "{user}");
    assert!(user.lines().all(|l| l.contains("spe-user")), "{user}");

    // --summary prints aggregated counts and per-SPE activity; this
    // trace decodes clean, so no suspect marker.
    let (ok, sum) = cli(&["query", path, "--summary"]);
    assert!(ok, "{sum}");
    assert!(sum.contains("event(s)"), "{sum}");
    assert!(sum.contains("activity (ticks)"), "{sum}");
    assert!(!sum.contains("SUSPECT"), "{sum}");
    let counted: u64 = sum
        .lines()
        .find_map(|l| {
            l.trim()
                .strip_suffix(" event(s)")
                .and_then(|n| n.parse().ok())
        })
        .expect("summary total line");
    assert_eq!(counted as usize, total, "{sum}");

    // Bad flags fail with a useful message.
    let (ok, text) = cli(&["query", path, "--core", "gpu0"]);
    assert!(!ok);
    assert!(text.contains("bad core"), "{text}");
    let (ok, text) = cli(&["query", path, "--code", "NOT_A_CODE"]);
    assert!(!ok);
    assert!(text.contains("unknown event code"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_errors_cleanly() {
    let (ok, text) = cli(&["summary", "/nonexistent/trace.pdt"]);
    assert!(!ok);
    assert!(text.contains("trace.pdt"), "{text}");

    let (ok, text) = cli(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("unknown command"), "{text}");

    let (ok, _) = cli(&["--help"]);
    assert!(ok);
}

#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("ta-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("p.pdt");
    make_trace(&trace, 40_000);
    let path = trace.to_str().unwrap();

    for args in [
        &["summary", path][..],
        &["events", path],
        &["timeline", path, "--svg", "/dev/stdout"],
    ] {
        // A pipe whose reader is gone: every write fails with EPIPE.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ta-cli"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("run ta-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A 2-stream `.pdt` whose SPE0 stream carries records with fewer
/// params than their consumers read: an `SpeDmaGet` with one, an
/// `SpeTagWaitEnd` and an `SpeUser` with none. The decoder accepts
/// them; every product must skip them.
fn short_param_trace(path: &std::path::Path) {
    use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream};
    let rec = |core, code, timestamp, params: Vec<u64>| TraceRecord {
        core,
        code,
        timestamp,
        params,
    };
    let dec0 = 1_000_000u64;
    let mut ppe = Vec::new();
    rec(
        TraceCore::Ppe(0),
        EventCode::PpeCtxRun,
        500,
        vec![0, 0, dec0],
    )
    .encode_into(&mut ppe);
    let spe = TraceCore::Spe(0);
    let mut bytes = Vec::new();
    for (dec, code, params) in [
        (0, EventCode::SpeCtxStart, vec![0]),
        (10, EventCode::SpeDmaGet, vec![0x100]),
        (20, EventCode::SpeDmaGet, vec![0x100, 0x4000, 4096, 1]),
        (30, EventCode::SpeTagWaitBegin, vec![2]),
        (40, EventCode::SpeTagWaitEnd, vec![]),
        (50, EventCode::SpeTagWaitEnd, vec![2]),
        (60, EventCode::SpeUser, vec![]),
        (70, EventCode::SpeUser, vec![9, pdt::markers::PHASE_BEGIN]),
        (80, EventCode::SpeUser, vec![9, pdt::markers::PHASE_END]),
        (90, EventCode::SpeStop, vec![0]),
    ] {
        rec(spe, code, dec0 - dec, params).encode_into(&mut bytes);
    }
    TraceFile {
        header: TraceHeader {
            version: pdt::VERSION,
            num_ppe_threads: 1,
            num_spes: 1,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        },
        streams: vec![
            TraceStream {
                core: TraceCore::Ppe(0),
                bytes: ppe,
                dropped: 0,
            },
            TraceStream {
                core: spe,
                bytes,
                dropped: 0,
            },
        ],
        ctx_names: vec![(0, "short".into())],
    }
    .write_to(path)
    .unwrap();
}

#[test]
fn short_param_records_are_skipped_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("ta-cli-short-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = dir.join("short.pdt");
    let v2 = dir.join("short.pdt2");
    short_param_trace(&v1);
    let (ok, text) = cli(&["pack", v1.to_str().unwrap(), v2.to_str().unwrap()]);
    assert!(ok, "{text}");

    for cmd in [
        "summary",
        "occupancy",
        "phases",
        "lint",
        "timeline",
        "causality",
    ] {
        let run = |trace: &std::path::Path| {
            let out = Command::new(env!("CARGO_BIN_EXE_ta-cli"))
                .args([cmd, trace.to_str().unwrap()])
                .output()
                .expect("run ta-cli");
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
            (out.status.code(), out.stdout)
        };
        let (code, stdout) = run(&v1);
        if matches!(cmd, "summary" | "occupancy" | "phases") {
            assert_eq!(code, Some(0), "{cmd}");
        }
        assert!(code.is_some_and(|c| c <= 1), "{cmd} exited {code:?}");
        assert_eq!(run(&v2), (code, stdout), "{cmd}: .pdt and .pdt2 differ");
    }
    // The short DMA get counts nowhere: one get of 4096 bytes, completed
    // by the covering wait.
    let (_, text) = cli(&["summary", v1.to_str().unwrap()]);
    assert!(text.contains("1 gets, 0 puts, 4.0 KiB total"), "{text}");
    let (_, text) = cli(&["phases", v1.to_str().unwrap()]);
    assert!(text.contains("phase 9 on SPE0"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
