//! Happens-before engine differential gate: `hb_smoke`.
//!
//! Replays every golden trace through both race detectors — the
//! vector-clock happens-before engine (what `dma-race` ships) and the
//! retired window-overlap heuristic (kept behind the `scan-oracle`
//! feature exactly for this differential) — and asserts the
//! precision/recall story the engine was built for:
//!
//! - **clean goldens** (`matmul`, `stream`, `pipeline`): both
//!   detectors report nothing;
//! - **`stream_racy`**: the engine finds strictly more races than the
//!   heuristic (it additionally proves the same-tag GET/GET pairs
//!   racy), and every engine finding is firm;
//! - **`stream_mbox_sync`** (precision): the heuristic false-positives
//!   on the barrier-ordered unwaited-PUT windows, the engine proves
//!   the trace clean;
//! - **`stream_tag_hidden`** (recall): the heuristic is structurally
//!   blind to same-tag races, the engine reports them all — firm;
//! - **`stream_faulted`**: the damaged clean trace produces no
//!   `dma-race` finding at all, and nothing firm of any rule.
//!
//! Also measures the lint pass per golden (parse + analyze excluded):
//! one warm-up run, then [`ITERS`] timed `lint_with` runs — each a
//! full re-lint, not the memoized `lint()` accessor — reported as
//! median plus median absolute deviation under a generous per-trace
//! budget. The goldens are too small to show the engine's cost, so a
//! synthetic point follows: the clean double-buffered stream kernel on
//! 8 SPEs, about 20K transfers, timed the same way through
//! `HbIndex::build` and through `lint_with` at `Serial` and at
//! `Workers(2)`.
//!
//! Last, two never-waited storms of [`STORM`] transfers, one at
//! ascending and one at descending addresses, time `HbIndex::build`.
//! Every transfer stays open, so the descending one inserts each key
//! below all the others; it must build within [`STORM_RATIO`] times
//! the ascending one's time, or the sweep's open set has gone
//! quadratic.
//!
//! Emits `BENCH_lint.json` at the repo root so the cost of the
//! happens-before pass is tracked alongside the other trajectories.
//! Exits nonzero on the first violated invariant; `scripts/check.sh`
//! runs it as a gate.

use std::process::ExitCode;
use std::time::Instant;

use bench::{write_bench_json, BenchRecord};
use cellsim::MachineConfig;
use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TracingConfig, VERSION};
use ta::{
    dma_race_window_heuristic, sync_edges_columns, Analysis, AnalyzedTrace, ColumnarTrace,
    GlobalEvent, HbIndex, LintConfig, LossReport, Parallelism,
};
use workloads::{run_workload, Buffering, StreamConfig, StreamWorkload};

/// Per-golden lint wall-time budget, generous enough for debug-CI
/// noise: these traces are a few hundred events each, and the
/// happens-before pass is near-linear in events + racing pairs.
const LINT_BUDGET_MS: f64 = 250.0;

/// Timed lint runs per golden, after one warm-up run.
const ITERS: usize = 9;

/// Transfers in each never-waited storm.
const STORM: u64 = 100_000;

/// The most the descending storm may take, as a multiple of the
/// ascending one's build time.
const STORM_RATIO: f64 = 10.0;

fn golden(name: &str) -> Result<TraceFile, String> {
    let path = bench::repo_root().join("tests/golden").join(name);
    TraceFile::read_from(&path).map_err(|e| format!("{}: {e}", path.display()))
}

struct Verdict {
    /// `dma-race` diagnostics from the shipping engine.
    engine: usize,
    /// Of those, how many are firm (non-suspect errors).
    engine_firm: usize,
    /// Findings from the retired window heuristic.
    heuristic: usize,
    /// Firm error-severity diagnostics of *any* rule.
    firm_total: usize,
    /// Median lint wall time.
    lint_ms: f64,
    /// Median absolute deviation of the lint wall time.
    lint_mad_ms: f64,
    /// Events in the trace, for the throughput record.
    events: usize,
}

fn verdict(trace: &TraceFile) -> Result<Verdict, String> {
    // Serial, so the timed lint runs match the recorded thread count.
    let a = Analysis::of(trace)
        .parallelism(Parallelism::Serial)
        .run()
        .map_err(|e| e.to_string())?;

    let config = LintConfig::default();
    let (lint_ms, lint_mad_ms) = timed(|| a.lint_with(&config).diagnostics.len());

    let report = a.lint();
    let engine = report.of_rule("dma-race").count();
    let engine_firm = report
        .of_rule("dma-race")
        .filter(|d| d.is_firm_error())
        .count();
    let firm_total = report.firm_errors().count();
    let heuristic = dma_race_window_heuristic(a.columns()).len();
    let events = a.columns().events.len();

    Ok(Verdict {
        engine,
        engine_firm,
        heuristic,
        firm_total,
        lint_ms,
        lint_mad_ms,
        events,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median and median absolute deviation (ms) of [`ITERS`] timed runs
/// of `f`, after one warm-up run.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, f64) {
    std::hint::black_box(f());
    let times: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mid = median(times.clone());
    (mid, median(times.iter().map(|t| (t - mid).abs()).collect()))
}

/// The synthetic lint point's figures (ms, median and MAD).
struct LintPoint {
    events: usize,
    transfers: usize,
    build: (f64, f64),
    serial: (f64, f64),
    workers2: (f64, f64),
}

/// The clean double-buffered stream kernel on 8 SPEs, about 20K
/// transfers: a GET and a PUT per block.
fn lint_point() -> Result<LintPoint, String> {
    let w = StreamWorkload::new(StreamConfig {
        blocks: 10_000,
        block_bytes: 256,
        compute_cycles_per_block: 256,
        buffering: Buffering::Double,
        spes: 8,
        ..StreamConfig::default()
    });
    let run = run_workload(
        &w,
        MachineConfig::default().with_num_spes(8),
        Some(TracingConfig::default()),
    )
    .map_err(|e| format!("stream workload: {e}"))?;
    let trace = run
        .trace
        .ok_or("stream workload: tracing produced no trace")?;
    let analysis = |par| {
        Analysis::of(&trace)
            .parallelism(par)
            .run()
            .map_err(|e| e.to_string())
    };
    let (serial, workers2) = (
        analysis(Parallelism::Serial)?,
        analysis(Parallelism::Workers(2))?,
    );
    let cols = serial.columns();
    let transfers = (cols.events.codes().iter())
        .filter(|c| matches!(c, EventCode::SpeDmaGet | EventCode::SpeDmaPut))
        .count();
    if !serial.lint().is_clean() {
        return Err(format!(
            "stream8: the clean kernel has firm findings:\n{}",
            serial.lint().render_text()
        ));
    }
    let config = LintConfig::default();
    Ok(LintPoint {
        events: cols.events.len(),
        transfers,
        build: timed(|| HbIndex::build(cols, serial.sync_edges()).races().len()),
        serial: timed(|| serial.lint_with(&config).diagnostics.len()),
        workers2: timed(|| workers2.lint_with(&config).diagnostics.len()),
    })
}

/// One SPE issuing [`STORM`] transfers that are never waited, at
/// disjoint ascending or descending addresses.
fn storm(descending: bool) -> ColumnarTrace {
    let spe = TraceCore::Spe(0);
    let events = (0..STORM)
        .map(|k| {
            let slot = if descending { STORM - 1 - k } else { k };
            let code = match k % 2 {
                0 => EventCode::SpeDmaGet,
                _ => EventCode::SpeDmaPut,
            };
            GlobalEvent {
                time_tb: 10 * k,
                core: spe,
                code,
                params: vec![0x1000_0000 + 0x100 * slot, 0x100 * slot, 0x100, k % 32],
                stream_seq: k,
            }
        })
        .collect();
    ColumnarTrace::from_analyzed(&AnalyzedTrace {
        header: TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: 1,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        },
        events,
        ctx_names: vec![],
        anchors: vec![],
        dropped: 0,
    })
}

/// `HbIndex::build` on the storm, median and MAD (ms).
fn storm_build(descending: bool) -> Result<(f64, f64), String> {
    let cols = storm(descending);
    let edges = sync_edges_columns(&cols, &LossReport::default());
    let races = HbIndex::build(&cols, &edges).races().len();
    if races != 0 {
        return Err(format!(
            "storm at disjoint addresses reported {races} races"
        ));
    }
    Ok(timed(|| HbIndex::build(&cols, &edges).candidates()))
}

fn check() -> Result<Vec<(String, Verdict)>, String> {
    let mut out = Vec::new();
    for name in [
        "matmul.pdt",
        "stream.pdt",
        "pipeline.pdt",
        "stream_faulted.pdt",
        "stream_racy.pdt",
        "stream_mbox_sync.pdt",
        "stream_tag_hidden.pdt",
    ] {
        let v = verdict(&golden(name)?)?;
        println!(
            "{name:24} engine {:2} ({} firm)  heuristic {:2}  lint {:.3} ± {:.3} ms",
            v.engine, v.engine_firm, v.heuristic, v.lint_ms, v.lint_mad_ms
        );
        if v.lint_ms > LINT_BUDGET_MS {
            return Err(format!(
                "{name}: lint took {:.1} ms, budget {LINT_BUDGET_MS} ms",
                v.lint_ms
            ));
        }
        out.push((name.to_string(), v));
    }

    let get = |n: &str| &out.iter().find(|(name, _)| name == n).unwrap().1;

    // Clean goldens: both detectors silent.
    for name in ["matmul.pdt", "stream.pdt", "pipeline.pdt"] {
        let v = get(name);
        if v.engine != 0 || v.heuristic != 0 {
            return Err(format!(
                "{name}: clean trace flagged (engine {}, heuristic {})",
                v.engine, v.heuristic
            ));
        }
    }

    // Seeded races: the engine strictly dominates the heuristic (it
    // additionally proves the same-tag pairs racy), all firm.
    let racy = get("stream_racy.pdt");
    if racy.heuristic == 0 || racy.engine <= racy.heuristic {
        return Err(format!(
            "stream_racy: expected engine > heuristic > 0, got engine {} heuristic {}",
            racy.engine, racy.heuristic
        ));
    }
    if racy.engine_firm != racy.engine {
        return Err(format!(
            "stream_racy: {} of {} engine races are not firm",
            racy.engine - racy.engine_firm,
            racy.engine
        ));
    }

    // Precision: synchronized overlap the heuristic false-positives on.
    let sync = get("stream_mbox_sync.pdt");
    if sync.engine != 0 || sync.heuristic == 0 {
        return Err(format!(
            "stream_mbox_sync: expected engine 0 < heuristic, got engine {} heuristic {}",
            sync.engine, sync.heuristic
        ));
    }

    // Recall: same-tag race the heuristic is structurally blind to.
    let hidden = get("stream_tag_hidden.pdt");
    if hidden.engine == 0 || hidden.engine_firm != hidden.engine || hidden.heuristic != 0 {
        return Err(format!(
            "stream_tag_hidden: expected firm engine > 0 = heuristic, got engine {} ({} firm) heuristic {}",
            hidden.engine, hidden.engine_firm, hidden.heuristic
        ));
    }

    // Trace damage must never manufacture races or firm evidence.
    let faulted = get("stream_faulted.pdt");
    if faulted.engine != 0 || faulted.firm_total != 0 {
        return Err(format!(
            "stream_faulted: damaged clean trace produced {} races, {} firm errors",
            faulted.engine, faulted.firm_total
        ));
    }

    Ok(out)
}

/// The storms' build times (ms, median and MAD): ascending, descending.
type Storms = ((f64, f64), (f64, f64));

fn check_storms() -> Result<Storms, String> {
    let (up, down) = (storm_build(false)?, storm_build(true)?);
    println!(
        "storm {STORM} transfers      ascending {:.2} ± {:.2} ms  descending {:.2} ± {:.2} ms",
        up.0, up.1, down.0, down.1
    );
    if down.0 > STORM_RATIO * up.0 {
        return Err(format!(
            "descending storm took {:.1} ms, over {STORM_RATIO}x the ascending {:.1} ms",
            down.0, up.0
        ));
    }
    Ok((up, down))
}

fn main() -> ExitCode {
    let checked = check().and_then(|verdicts| {
        let point = lint_point()?;
        println!(
            "stream8 ({} transfers)     build {:.2} ± {:.2} ms  lint {:.2} ± {:.2} ms  \
             lint (2 workers) {:.2} ± {:.2} ms",
            point.transfers,
            point.build.0,
            point.build.1,
            point.serial.0,
            point.serial.1,
            point.workers2.0,
            point.workers2.1
        );
        Ok((verdicts, point, check_storms()?))
    });
    match checked {
        Ok((verdicts, point, (up, down))) => {
            let mut records: Vec<BenchRecord> = verdicts
                .iter()
                .map(|(name, v)| BenchRecord {
                    name: format!("lint_{}", name.trim_end_matches(".pdt")),
                    events_per_sec: v.events as f64 / (v.lint_ms / 1e3),
                    wall_ms: v.lint_ms,
                    threads: 1,
                })
                .collect();
            let record = |name: &str, events: usize, ms: f64, threads| BenchRecord {
                name: name.into(),
                events_per_sec: events as f64 / (ms / 1e3),
                wall_ms: ms,
                threads,
            };
            records.extend([
                record("hb_build_stream8", point.events, point.build.0, 1),
                record("lint_stream8", point.events, point.serial.0, 1),
                record("lint_stream8_w2", point.events, point.workers2.0, 2),
                record("hb_build_storm_ascending", STORM as usize, up.0, 1),
                record("hb_build_storm_descending", STORM as usize, down.0, 1),
            ]);
            let get = |n: &str| &verdicts.iter().find(|(name, _)| name == n).unwrap().1;
            let mad_keys: Vec<(String, f64)> = verdicts
                .iter()
                .map(|(name, v)| {
                    (
                        format!("lint_{}_mad_us", name.trim_end_matches(".pdt")),
                        v.lint_mad_ms * 1e3,
                    )
                })
                .collect();
            let mut meta = vec![
                ("racy_engine_races", get("stream_racy.pdt").engine as f64),
                (
                    "racy_heuristic_races",
                    get("stream_racy.pdt").heuristic as f64,
                ),
                (
                    "mbox_sync_heuristic_false_positives",
                    get("stream_mbox_sync.pdt").heuristic as f64,
                ),
                (
                    "tag_hidden_engine_races",
                    get("stream_tag_hidden.pdt").engine as f64,
                ),
                ("lint_budget_ms", LINT_BUDGET_MS),
                ("lint_samples", ITERS as f64),
            ];
            meta.extend(mad_keys.iter().map(|(k, v)| (k.as_str(), *v)));
            meta.extend([
                ("stream8_transfers", point.transfers as f64),
                ("hb_build_stream8_mad_us", point.build.1 * 1e3),
                ("lint_stream8_mad_us", point.serial.1 * 1e3),
                ("lint_stream8_w2_mad_us", point.workers2.1 * 1e3),
                ("hb_build_storm_ascending_mad_us", up.1 * 1e3),
                ("hb_build_storm_descending_mad_us", down.1 * 1e3),
                ("storm_ratio", down.0 / up.0),
                ("storm_ratio_limit", STORM_RATIO),
            ]);
            match write_bench_json("BENCH_lint.json", &records, &meta) {
                Ok(p) => println!("hb_smoke: all invariants hold; wrote {}", p.display()),
                Err(e) => {
                    eprintln!("hb_smoke: BENCH_lint.json: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hb_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
