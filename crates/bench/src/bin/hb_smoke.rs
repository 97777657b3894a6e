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
//! budget. Emits `BENCH_lint.json` at the repo root so the cost of the
//! happens-before pass is tracked alongside the other trajectories.
//! Exits nonzero on the first violated invariant; `scripts/check.sh`
//! runs it as a gate.

use std::process::ExitCode;
use std::time::Instant;

use bench::{write_bench_json, BenchRecord};
use pdt::TraceFile;
use ta::{dma_race_window_heuristic, Analysis, LintConfig, Parallelism};

/// Per-golden lint wall-time budget, generous enough for debug-CI
/// noise: these traces are a few hundred events each, and the
/// happens-before pass is near-linear in events + racing pairs.
const LINT_BUDGET_MS: f64 = 250.0;

/// Timed lint runs per golden, after one warm-up run.
const ITERS: usize = 9;

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
    std::hint::black_box(a.lint_with(&config));
    let times: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            let report = a.lint_with(&config);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(report.diagnostics.len());
            ms
        })
        .collect();
    let lint_ms = median(times.clone());
    let lint_mad_ms = median(times.iter().map(|t| (t - lint_ms).abs()).collect());

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

fn main() -> ExitCode {
    match check() {
        Ok(verdicts) => {
            let records: Vec<BenchRecord> = verdicts
                .iter()
                .map(|(name, v)| BenchRecord {
                    name: format!("lint_{}", name.trim_end_matches(".pdt")),
                    events_per_sec: v.events as f64 / (v.lint_ms / 1e3),
                    wall_ms: v.lint_ms,
                    threads: 1,
                })
                .collect();
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
