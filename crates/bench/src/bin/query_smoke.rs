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
//!   window's summary and windowed timeline view (labels, markers and
//!   a borrowed run of each lane's intervals) are timed alongside.
//! - **The SVG timeline is sized by the canvas.** The whole-trace SVG
//!   of a DMA storm (every step a get waited on at once, so each SPE
//!   lane holds thousands of sub-pixel segments) is rendered at 1x and
//!   4x the steps; the larger trace's document may be at most 10%
//!   larger. The user-event storm cannot carry this gate: its SVG is
//!   almost all point markers, which are not folded.

use std::process::ExitCode;
use std::time::Instant;

use cellsim::{
    LsAddr, MachineConfig, PpeThreadId, SpeJob, SpmdDriver, SpuAction, SpuScript, TagId,
    TagWaitMode,
};
use pdt::{TraceFile, TraceSession, TracingConfig};
use ta::{index::oracle, Analysis, EventFilter, ReportKind};

const SPES: usize = 8;
const MIN_SPEEDUP: f64 = 5.0;
/// Most the SVG may grow when the trace grows 4x.
const MAX_SVG_GROWTH: f64 = 0.10;

/// What each step of a storm SPE does.
#[derive(Debug, Clone, Copy)]
enum Storm {
    /// A user event, then compute: point markers on one compute lane.
    Markers,
    /// A DMA get waited on at once, then compute: short alternating
    /// dma-wait and compute segments.
    Dma,
}

fn storm_trace(events_per_spe: usize, storm: Storm) -> TraceFile {
    let mut m = cellsim::Machine::new(MachineConfig::default().with_num_spes(SPES)).unwrap();
    let session = TraceSession::install(TracingConfig::default(), &mut m).unwrap();
    let jobs = (0..SPES)
        .map(|i| {
            let mut actions = Vec::with_capacity(2 * events_per_spe);
            for k in 0..events_per_spe {
                match storm {
                    Storm::Markers => actions.push(SpuAction::UserEvent {
                        id: (k % 50) as u32,
                        a0: k as u64,
                        a1: i as u64,
                    }),
                    Storm::Dma => {
                        let tag = TagId::new(0).expect("tag 0 is valid");
                        actions.push(SpuAction::DmaGet {
                            lsa: LsAddr::new(0x1000),
                            ea: 0x10_0000 + (k % 64) as u64 * 128,
                            size: 128,
                            tag,
                        });
                        actions.push(SpuAction::WaitTags {
                            mask: tag.mask_bit(),
                            mode: TagWaitMode::All,
                        });
                    }
                }
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

    let trace = storm_trace(events_per_spe, Storm::Markers);
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
    check_svg_growth(events_per_spe / 4)
}

/// The SVG gate: a DMA storm of `steps` per SPE, then of 4x as many.
fn check_svg_growth(steps: usize) -> Result<(), String> {
    let render = |steps: usize| -> Result<(usize, usize, usize), String> {
        let a = Analysis::of(&storm_trace(steps, Storm::Dma))
            .run()
            .map_err(|e| format!("analysis: {e}"))?;
        let segments = a.intervals().iter().map(|iv| iv.intervals.len()).sum();
        let svg = a.render(ReportKind::Svg, &Default::default());
        Ok((a.events().len(), segments, svg.len()))
    };
    let (n1, seg1, bytes1) = render(steps)?;
    let (n4, seg4, bytes4) = render(4 * steps)?;
    let growth = bytes4 as f64 / bytes1 as f64 - 1.0;
    println!(
        "svg: {n1} events, {seg1} segments -> {bytes1} B; {n4} events, {seg4} segments \
         -> {bytes4} B ({:+.1}%)",
        growth * 100.0
    );
    // A storm with fewer segments than pixel columns would pass vacuously.
    if seg4 < 4 * 960 {
        return Err(format!(
            "DMA storm has only {seg4} segments, too few to fold"
        ));
    }
    if growth >= MAX_SVG_GROWTH {
        return Err(format!(
            "SVG grew {:.1}% for 4x the events (limit {:.0}%)",
            growth * 100.0,
            MAX_SVG_GROWTH * 100.0
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
