//! Indexed-query smoke gate: `query_smoke [EVENTS_PER_SPE]`.
//!
//! One size point (default 12k events on each of 8 SPEs, ≥ 96k global
//! events) checked two ways, exiting nonzero on the first violation
//! so `scripts/check.sh` can run it as a cheap tier-1 gate:
//!
//! - **Oracle divergence is fatal.** A matrix of windows (interior,
//!   edge, degenerate, past-end, full-span) is run through both the
//!   index and the naive-scan oracle: filtered events, window
//!   summaries, interval clipping, and stabbing must agree exactly.
//! - **The index must actually be fast.** The fixed E13 window query
//!   (1/64 of the span) is timed on both paths; the median indexed
//!   cost must undercut the median naive rescan by at least 5x. The
//!   window's summary and windowed timeline are timed alongside.

use std::process::ExitCode;
use std::time::Instant;

use cellsim::{MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript};
use pdt::{TraceFile, TraceSession, TracingConfig};
use ta::{index::oracle, Analysis, EventFilter};

const SPES: usize = 8;
const MIN_SPEEDUP: f64 = 5.0;

fn storm_trace(events_per_spe: usize) -> TraceFile {
    let mut m = cellsim::Machine::new(MachineConfig::default().with_num_spes(SPES)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    let jobs = (0..SPES)
        .map(|i| {
            let mut actions = Vec::with_capacity(2 * events_per_spe);
            for k in 0..events_per_spe {
                actions.push(SpuAction::UserEvent {
                    id: (k % 50) as u32,
                    a0: k as u64,
                    a1: i as u64,
                });
                actions.push(SpuAction::Compute(200));
            }
            SpeJob::new(format!("storm{i}"), Box::new(SpuScript::new(actions)))
        })
        .collect();
    m.set_ppe_program(PpeThreadId::new(0), Box::new(SpmdDriver::new(jobs)));
    m.run().unwrap();
    session.collect(&m)
}

fn check_equivalence(a: &Analysis) -> Result<(), String> {
    let idx = a.index();
    let intervals = a.intervals();
    let suspects = idx.suspect_ranges();
    let (s, e) = (idx.start_tb(), idx.end_tb());
    let span = e.saturating_sub(s).max(1);
    let cases = [
        (0, u64::MAX),
        (s, e + 1),
        (s + span / 4, s + span / 2),
        (s + span / 2, s + span / 2),
        (e, s),
        (e + 1, e + 10_000),
    ];
    for (t0, t1) in cases {
        let f = EventFilter::new().in_window(t0, t1);
        if a.query(&f) != oracle::filter_events(a.analyzed(), &f) {
            return Err(format!("query diverged from scan on [{t0}, {t1})"));
        }
        let fast = a.summarize(t0, t1);
        let slow = oracle::window_summary(a.analyzed(), intervals, suspects, t0, t1);
        if fast != slow {
            return Err(format!(
                "summary diverged on [{t0}, {t1}):\nindex  {fast:?}\noracle {slow:?}"
            ));
        }
        let expect: Vec<_> = intervals.iter().map(|iv| iv.clip(t0, t1)).collect();
        if a.intervals_window(t0, t1) != expect {
            return Err(format!("clip diverged on [{t0}, {t1})"));
        }
        for iv in intervals {
            if idx.stab(iv.spe, t0) != oracle::stab(intervals, iv.spe, t0) {
                return Err(format!("stab diverged on spe{} @{t0}", iv.spe));
            }
        }
    }
    Ok(())
}

/// Median of `reps` timings of `iters` runs of `f`, in ns per run.
fn median_ns(reps: usize, iters: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let mut sink = 0usize;
            for _ in 0..iters {
                sink = sink.wrapping_add(std::hint::black_box(f()));
            }
            std::hint::black_box(sink);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run() -> Result<(), String> {
    let events_per_spe: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().map_err(|_| format!("bad size {v:?}")))
        .transpose()?
        .unwrap_or(12_000);

    let trace = storm_trace(events_per_spe);
    let a = Analysis::of(&trace)
        .run()
        .map_err(|e| format!("analysis: {e}"))?;
    a.index();
    let n = a.events().len();
    println!("trace: {n} global events over {SPES} SPEs");

    check_equivalence(&a)?;
    println!("oracle equivalence: OK (windows, summaries, clips, stabs)");

    let (s, e) = (a.index().start_tb(), a.index().end_tb());
    let span = e.saturating_sub(s).max(64);
    let mid = s + span / 2;
    let (t0, t1) = (mid - span / 128, mid + span / 128);
    let f = EventFilter::new().in_window(t0, t1);
    let hits = a.query(&f).len();
    if hits == 0 {
        return Err("benchmark window is empty".into());
    }

    let naive = median_ns(5, 40, || {
        a.events().iter().filter(|ev| f.matches(ev)).count()
    });
    let indexed = median_ns(5, 40, || a.query(&f).len());
    let summary = median_ns(5, 400, || a.summarize(t0, t1).total_events() as usize);
    let timeline = median_ns(5, 40, || a.timeline_window(t0, t1).lanes.len());
    let speedup = naive / indexed;
    println!(
        "window [{t0}, {t1}) with {hits} hits: naive {naive:.0} ns, \
         indexed {indexed:.0} ns ({speedup:.1}x), summary {summary:.0} ns, \
         timeline {timeline:.0} ns"
    );
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "indexed query only {speedup:.1}x faster than the naive scan (need {MIN_SPEEDUP}x)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("query_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
