//! Golden-trace differential suite: replays a matrix of window, core,
//! code, and group queries over the seeded corpus in `tests/golden/`
//! and asserts that the index-backed paths return exactly what the
//! naive-scan oracle computes — on clean traces and on the
//! fault-injected one, where the gap-suspicion flag must also agree.
//!
//! Regenerate the corpus with `cargo run -p bench --bin make_golden`
//! (the simulator is deterministic; the generator refuses to silently
//! overwrite drifted output).

use std::sync::Arc;

use pdt::{EventGroup, TraceCore};
use ta::index::oracle;
use ta::stats::observe_dma;
use ta::{analyze_v2, Analysis, EventFilter, Parallelism};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_v2_bytes, GOLDEN};

/// The window matrix every golden trace is queried with: edges,
/// interior slices, zero-length, inverted, past-end, and full-range
/// shapes, anchored to the trace's own time span.
fn windows(start: u64, end: u64) -> Vec<(u64, u64)> {
    let span = end.saturating_sub(start).max(1);
    vec![
        (0, u64::MAX),
        (start, end + 1),
        (0, 0),
        (start, start),
        (start, start + 1),
        (end, end + 1),
        (end + 1, end + 10_000),
        (start + span / 4, start + span / 2),
        (start + span / 2, start + span / 2),
        (start + span / 2, start + (3 * span) / 4),
        (end, start), // inverted
        (start + span / 3, end.saturating_sub(span / 3)),
    ]
}

/// Every filter shape exercised per window: bare, per-core, per-code,
/// per-group, and a core+code combination.
fn filters(a: &Analysis, t0: u64, t1: u64) -> Vec<EventFilter> {
    let mut out = vec![EventFilter::new().in_window(t0, t1)];
    for core in a.index().cores() {
        out.push(EventFilter::new().in_window(t0, t1).on_core(core));
    }
    let mut codes: Vec<_> = a.events().iter().map(|e| e.code).collect();
    codes.sort_by_key(|c| c.raw());
    codes.dedup();
    for &code in codes.iter().take(3) {
        out.push(EventFilter::new().in_window(t0, t1).with_code(code));
    }
    for group in EventGroup::ALL {
        out.push(EventFilter::new().in_window(t0, t1).in_group(group));
    }
    if let (Some(core), Some(&code)) = (a.index().cores().next(), codes.first()) {
        out.push(
            EventFilter::new()
                .in_window(t0, t1)
                .on_core(core)
                .with_code(code),
        );
    }
    out
}

fn assert_trace_agrees(name: &str) {
    let trace = golden(name);
    let a = Analysis::of(&trace).run().unwrap();
    let idx = a.index();
    let intervals = a.intervals();
    let suspects = idx.suspect_ranges();
    let (start, end) = (idx.start_tb(), idx.end_tb());

    for (t0, t1) in windows(start, end) {
        // Aggregation: binary search + lane checkpoints == full rescan, including
        // the suspect flag.
        let fast = a.summarize(t0, t1);
        let slow = oracle::window_summary(a.analyzed(), intervals, suspects, t0, t1);
        assert_eq!(fast, slow, "{name}: summary [{t0}, {t1})");

        // Windowed DMA traffic == the row matcher over the window's rows.
        let mut rows = a.analyzed().clone();
        rows.events.retain(|e| e.time_tb >= t0 && e.time_tb < t1);
        assert_eq!(
            a.dma_window(t0, t1),
            observe_dma(&rows),
            "{name}: dma [{t0}, {t1})"
        );

        // Filtered extraction == linear scan for every filter shape.
        for f in filters(&a, t0, t1) {
            let scan = oracle::filter_events(a.analyzed(), &f);
            assert_eq!(
                a.query(&f),
                scan,
                "{name}: filter {:?}/{:?}/{:?} in [{t0}, {t1})",
                f.cores(),
                f.codes(),
                f.groups()
            );
        }

        // Interval clipping by binary search == SpeIntervals::clip.
        let expect: Vec<_> = intervals.iter().map(|iv| iv.clip(t0, t1)).collect();
        assert_eq!(
            a.intervals_window(t0, t1),
            expect,
            "{name}: clip [{t0}, {t1})"
        );
    }

    // Stabbing at segment boundaries and interiors == linear search.
    for iv in intervals {
        for i in iv.intervals.iter().take(8) {
            for t in [i.start_tb, (i.start_tb + i.end_tb) / 2, i.end_tb] {
                assert_eq!(
                    idx.stab(iv.spe, t),
                    oracle::stab(intervals, iv.spe, t),
                    "{name}: stab spe{} @{t}",
                    iv.spe
                );
            }
        }
    }
}

#[test]
fn matmul_index_matches_oracle() {
    assert_trace_agrees("matmul.pdt");
}

#[test]
fn stream_index_matches_oracle() {
    assert_trace_agrees("stream.pdt");
}

#[test]
fn pipeline_index_matches_oracle() {
    assert_trace_agrees("pipeline.pdt");
}

#[test]
fn faulted_index_matches_oracle() {
    assert_trace_agrees("stream_faulted.pdt");
}

#[test]
fn clean_goldens_have_no_suspect_windows() {
    for name in ["matmul.pdt", "stream.pdt", "pipeline.pdt"] {
        let a = Analysis::of(&golden(name)).run().unwrap();
        assert!(a.loss().is_clean(), "{name}: unexpected decode loss");
        assert!(
            a.index().suspect_ranges().is_empty(),
            "{name}: clean trace has suspect ranges"
        );
        let full = a.summarize(0, u64::MAX);
        assert!(!full.suspect, "{name}: clean full-span summary is suspect");
    }
}

#[test]
fn faulted_golden_flags_gap_windows_suspect() {
    let a = Analysis::of(&golden("stream_faulted.pdt")).run().unwrap();
    assert!(
        !a.loss().is_clean() || a.loss().total_est_lost() > 0,
        "faulted golden decoded clean; regenerate with make_golden"
    );
    let idx = a.index();
    let suspects = idx.suspect_ranges();
    assert!(!suspects.is_empty(), "faulted golden has no suspect ranges");

    // The full span must be flagged, and every recorded suspect range
    // must flag a window that straddles it — identically on the
    // indexed and oracle paths.
    assert!(a.summarize(0, u64::MAX).suspect);
    for r in suspects {
        let (t0, t1) = (r.start_tb.saturating_sub(1), r.end_tb.saturating_add(1));
        let fast = a.summarize(t0, t1);
        let slow = oracle::window_summary(a.analyzed(), a.intervals(), suspects, t0, t1);
        assert_eq!(fast, slow);
        assert!(
            fast.suspect,
            "window [{t0}, {t1}) straddles {r:?} but is not suspect"
        );
        assert!(idx.window_suspect(t0, t1));
    }

    // A window strictly outside every suspect range must stay clean.
    let end = idx.end_tb();
    if let Some(clean_t) = (idx.start_tb()..end)
        .step_by(((end / 256).max(1)) as usize)
        .find(|&t| !suspects.iter().any(|r| r.overlaps(t, t + 1)))
    {
        assert!(!a.summarize(clean_t, clean_t + 1).suspect);
    }
}

#[test]
fn window_edges_are_half_open_on_goldens() {
    for name in GOLDEN {
        let a = Analysis::of(&golden(name)).run().unwrap();
        let Some(&probe) = a.events().iter().map(|e| &e.time_tb).nth(1) else {
            continue;
        };
        // Event at t is included by [t, t+1) and excluded by [_, t).
        let at = |t0: u64, t1: u64| {
            a.query(&EventFilter::new().in_window(t0, t1))
                .iter()
                .filter(|e| e.time_tb == probe)
                .count()
        };
        let total = a.events().iter().filter(|e| e.time_tb == probe).count();
        assert_eq!(
            at(probe, probe + 1),
            total,
            "{name}: start edge must include"
        );
        assert_eq!(at(0, probe), 0, "{name}: end edge must exclude");
        assert_eq!(
            at(probe, probe),
            0,
            "{name}: zero-length window must be empty"
        );
    }
}

#[test]
fn per_core_offsets_cover_every_event_exactly_once() {
    for name in GOLDEN {
        let trace = golden(name);
        let a = Analysis::of(&trace).run().unwrap();
        let idx = a.index();
        let mut per_core_total = 0usize;
        for core in idx.cores().collect::<Vec<_>>() {
            per_core_total += idx
                .core_range_in(a.columns(), core, 0, u64::MAX)
                .inspect(|&i| {
                    assert_eq!(
                        a.columns().events.core(i),
                        core,
                        "{name}: wrong core in bucket"
                    )
                })
                .count();
        }
        assert_eq!(per_core_total, a.events().len(), "{name}: offset coverage");
        assert_eq!(idx.cores().count(), {
            let mut cores: Vec<TraceCore> = a.events().iter().map(|e| e.core).collect();
            cores.sort_by_key(|c| c.tag());
            cores.dedup();
            cores.len()
        });
    }
}

/// Every golden, as `.pdt` and as its `.pdt2` packing, analyzed at
/// `par`.
fn golden_sessions(par: Parallelism) -> Vec<(String, Arc<Analysis>)> {
    let mut out = Vec::new();
    for name in GOLDEN {
        let a = Analysis::of(&golden(name)).parallelism(par).run().unwrap();
        out.push((name.to_string(), Arc::new(a)));
        let (v2, _) = analyze_v2(&golden_v2_bytes(name), par).unwrap();
        out.push((format!("{name}2"), v2));
    }
    out
}

#[test]
fn edge_windows_match_oracle_on_every_golden() {
    for par in [Parallelism::Serial, Parallelism::Workers(2)] {
        for (name, a) in golden_sessions(par) {
            let idx = a.index();
            let intervals = a.intervals();
            let suspects = idx.suspect_ranges();
            let (start, end) = (idx.start_tb(), idx.end_tb());
            let cases = [
                ("whole trace", start, end + 1),
                (
                    "empty",
                    start + (end - start) / 2,
                    start + (end - start) / 2,
                ),
                ("reversed", end, start),
                ("before the start", 0, start),
                ("after the end", end + 1, end + 1_000),
                (
                    "one tick",
                    start + (end - start) / 3,
                    start + (end - start) / 3 + 1,
                ),
            ];
            for (shape, t0, t1) in cases {
                let at = format!("{name} {par:?}: {shape} [{t0}, {t1})");
                assert_eq!(
                    a.summarize(t0, t1),
                    oracle::window_summary(a.analyzed(), intervals, suspects, t0, t1),
                    "{at}: summarize"
                );
                assert_eq!(
                    idx.clip_all(t0, t1),
                    oracle::clip_all(intervals, t0, t1),
                    "{at}: clip_all"
                );
                let mut rows = a.analyzed().clone();
                rows.events.retain(|e| e.time_tb >= t0 && e.time_tb < t1);
                assert_eq!(a.dma_window(t0, t1), observe_dma(&rows), "{at}: dma_window");
                for iv in intervals {
                    for t in [t0, t1.saturating_sub(1), iv.start_tb, iv.stop_tb] {
                        assert_eq!(
                            idx.stab(iv.spe, t),
                            oracle::stab(intervals, iv.spe, t),
                            "{at}: stab spe{} @{t}",
                            iv.spe
                        );
                    }
                }
            }
        }
    }
}
