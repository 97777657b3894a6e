//! The timeline model behind the SVG and ASCII renderers.
//!
//! A [`Timeline`] is what the Trace Analyzer's main view shows: one
//! lane per core, activity intervals on SPE lanes, and point markers
//! for discrete events (PPE calls, user events). It is a view: each
//! SPE lane borrows its intervals from the session that built it, so a
//! timeline costs only its labels and markers.

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;
use crate::index::TraceIndex;
use crate::intervals::{Interval, SpeIntervals};

/// A point event on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// Event time, timebase ticks.
    pub time_tb: u64,
    /// The event.
    pub code: EventCode,
}

/// One core's lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane<'a> {
    /// Display label.
    pub label: String,
    /// The core.
    pub core: TraceCore,
    /// The SPE's intervals in time order, borrowed (none on PPE
    /// lanes); a window's run uncut, for [`Timeline::drawn`] to cut.
    pub intervals: &'a [Interval],
    /// Point markers.
    pub markers: Vec<Marker>,
}

/// The complete timeline model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline<'a> {
    /// Earliest tick shown.
    pub start_tb: u64,
    /// Latest tick shown.
    pub end_tb: u64,
    /// Lanes, PPE first then SPEs in index order.
    pub lanes: Vec<Lane<'a>>,
}

impl<'a> Timeline<'a> {
    /// Timeline span in ticks (at least 1 to keep renderers sane).
    pub fn span(&self) -> u64 {
        (self.end_tb - self.start_tb).max(1)
    }

    /// `lane`'s intervals as drawn: each cut to `[start_tb, end_tb]`, and
    /// never below empty. A lane's intervals tile it in time order, so
    /// only the first and last of a window's run are cut.
    pub fn drawn(&self, lane: &Lane<'a>) -> impl Iterator<Item = Interval> + 'a {
        let (t0, t1) = (self.start_tb, self.end_tb);
        lane.intervals.iter().map(move |i| {
            let start_tb = i.start_tb.max(t0);
            Interval {
                start_tb,
                end_tb: i.end_tb.min(t1).max(start_tb),
                kind: i.kind,
            }
        })
    }
}

/// Which point events become markers.
fn is_marker(core: TraceCore, code: EventCode) -> bool {
    match core {
        TraceCore::Ppe(_) => true, // every PPE call is a marker
        TraceCore::Spe(_) => matches!(
            code,
            EventCode::SpeUser | EventCode::SpeCtxStart | EventCode::SpeStop
        ),
    }
}

/// Builds the timeline model from an analyzed trace and its
/// intervals, which the SPE lanes borrow. The row-side differential
/// oracle of [`build_timeline_columns`]; new code should use
/// [`Analysis::timeline`](crate::session::Analysis::timeline).
pub fn build_timeline_with<'a>(
    trace: &AnalyzedTrace,
    intervals: &'a [SpeIntervals],
) -> Timeline<'a> {
    let markers = |core: TraceCore| -> Vec<Marker> {
        (trace.core_events(core))
            .filter(|e| is_marker(core, e.code))
            .map(|e| Marker {
                time_tb: e.time_tb,
                code: e.code,
            })
            .collect()
    };
    // PPE lanes (one per hardware thread that produced events).
    let ppe_threads: std::collections::BTreeSet<u8> = (trace.events.iter())
        .filter_map(|e| match e.core {
            TraceCore::Ppe(t) => Some(t),
            TraceCore::Spe(_) => None,
        })
        .collect();
    let ppe_lanes = ppe_threads.into_iter().map(|t| Lane {
        label: format!("PPE.{t}"),
        core: TraceCore::Ppe(t),
        intervals: &[],
        markers: markers(TraceCore::Ppe(t)),
    });
    // SPE lanes from intervals.
    let spe_lanes = intervals.iter().map(|iv| {
        let ctx = trace.anchors.iter().find(|a| a.spe == iv.spe);
        Lane {
            label: spe_label(iv.spe, ctx.and_then(|a| trace.ctx_name(a.ctx))),
            core: TraceCore::Spe(iv.spe),
            intervals: &iv.intervals,
            markers: markers(TraceCore::Spe(iv.spe)),
        }
    });
    Timeline {
        start_tb: trace.start_tb(),
        end_tb: trace.end_tb(),
        lanes: ppe_lanes.chain(spe_lanes).collect(),
    }
}

/// An SPE lane's label: the SPE, then its context's name when known.
fn spe_label(spe: u8, name: Option<&str>) -> String {
    match name {
        Some(name) => format!("SPE{spe} ({name})"),
        None => format!("SPE{spe}"),
    }
}

/// [`build_timeline_with`] over the columnar store: lane discovery
/// reads the core segments, markers come from each core's segment,
/// and SPE labels resolve through the string interner.
/// The session uses this path; the row function remains the
/// differential oracle.
pub fn build_timeline_columns<'a>(
    trace: &ColumnarTrace,
    intervals: &'a [SpeIntervals],
) -> Timeline<'a> {
    view(
        trace,
        (trace.start_tb(), trace.end_tb()),
        intervals.iter().map(|iv| (iv.spe, iv.intervals.as_slice())),
        |core| trace.core_slice(core),
    )
}

/// The view of the half-open window `[t0, t1)`, found by binary search
/// through the session's [`TraceIndex`]: each SPE lane borrows the run
/// of its intervals that [`SpeIntervals::clip`] would keep, uncut.
pub(crate) fn build_timeline_where<'a>(
    trace: &ColumnarTrace,
    index: &'a TraceIndex,
    t0: u64,
    t1: u64,
) -> Timeline<'a> {
    view(
        trace,
        (t0, t1.max(t0)),
        (index.lanes().iter()).map(|iv| (iv.spe, iv.window(t0, t1).2)),
        |core| index.core_range_in(trace, core, t0, t1),
    )
}

/// The view over `[start_tb, end_tb]`: the PPE lanes of `trace`, then
/// one SPE lane per `(spe, intervals)` entry, with each core's markers
/// taken from the store range `range_of` gives for it.
fn view<'a>(
    trace: &ColumnarTrace,
    (start_tb, end_tb): (u64, u64),
    spe_lanes: impl Iterator<Item = (u8, &'a [Interval])>,
    range_of: impl Fn(TraceCore) -> std::ops::Range<usize>,
) -> Timeline<'a> {
    // Markers need only the time and code columns; reading them
    // directly skips the per-event view construction (params lookup,
    // sequence decode) on this hot path.
    let (times, codes) = (trace.events.times(), trace.events.codes());
    let markers = |core: TraceCore| -> Vec<Marker> {
        range_of(core)
            .filter(|&o| is_marker(core, codes[o]))
            .map(|o| Marker {
                time_tb: times[o],
                code: codes[o],
            })
            .collect()
    };
    // PPE lanes: the core segments are tag-sorted, so PPE threads come
    // out ascending without a scan over the events.
    let ppe_lanes = trace.cores().into_iter().filter_map(|core| match core {
        TraceCore::Ppe(t) => Some(Lane {
            label: format!("PPE.{t}"),
            core,
            intervals: &[],
            markers: markers(core),
        }),
        TraceCore::Spe(_) => None,
    });
    // SPE lanes, labels resolved through the interner.
    let spe_lanes = spe_lanes.map(|(spe, intervals)| {
        let ctx = trace.anchors.iter().find(|a| a.spe == spe);
        Lane {
            label: spe_label(spe, ctx.and_then(|a| trace.ctx_name(a.ctx))),
            core: TraceCore::Spe(spe),
            intervals,
            markers: markers(TraceCore::Spe(spe)),
        }
    });
    Timeline {
        start_tb,
        end_tb,
        lanes: ppe_lanes.chain(spe_lanes).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{GlobalEvent, SpeAnchor};
    use crate::intervals::{build_intervals, ActivityKind};
    use pdt::{TraceHeader, VERSION};

    fn trace() -> AnalyzedTrace {
        use EventCode::*;
        let mk = |t: u64, core: TraceCore, code, params: Vec<u64>| GlobalEvent {
            time_tb: t,
            core,
            code,
            params,
            stream_seq: t,
        };
        AnalyzedTrace {
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
            events: vec![
                mk(0, TraceCore::Ppe(0), PpeCtxCreate, vec![0]),
                mk(10, TraceCore::Ppe(0), PpeCtxRun, vec![0, 0, 0]),
                mk(10, TraceCore::Spe(0), SpeCtxStart, vec![0]),
                mk(20, TraceCore::Spe(0), SpeTagWaitBegin, vec![1, 0]),
                mk(60, TraceCore::Spe(0), SpeTagWaitEnd, vec![1]),
                mk(80, TraceCore::Spe(0), SpeUser, vec![5, 0, 0]),
                mk(100, TraceCore::Spe(0), SpeStop, vec![0]),
            ],
            ctx_names: vec![(0, "kern".into())],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 10,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        }
    }

    #[test]
    fn lanes_cover_ppe_and_spes_with_labels() {
        let (rows, iv) = (trace(), build_intervals(&trace()));
        let t = build_timeline_with(&rows, &iv);
        assert_eq!(t.lanes.len(), 2);
        assert_eq!(t.lanes[0].label, "PPE.0");
        assert_eq!(t.lanes[1].label, "SPE0 (kern)");
        assert_eq!(t.start_tb, 0);
        assert_eq!(t.end_tb, 100);
        assert_eq!(t.span(), 100);
    }

    #[test]
    fn spe_lane_has_intervals_and_markers() {
        let (rows, iv) = (trace(), build_intervals(&trace()));
        let t = build_timeline_with(&rows, &iv);
        let spe = &t.lanes[1];
        // Borrowed, not copied: compute, dma-wait, compute.
        assert!(std::ptr::eq(spe.intervals, iv[0].intervals.as_slice()));
        assert_eq!(spe.intervals.len(), 3);
        assert_eq!(spe.intervals[1].kind, ActivityKind::DmaWait);
        // Markers: start, user, stop.
        assert_eq!(spe.markers.len(), 3);
        assert!(spe
            .markers
            .iter()
            .any(|m| m.code == EventCode::SpeUser && m.time_tb == 80));
    }

    #[test]
    fn columnar_timeline_matches_row_timeline() {
        let t = trace();
        let cols = ColumnarTrace::from_analyzed(&t);
        let iv = build_intervals(&t);
        assert_eq!(
            build_timeline_columns(&cols, &iv),
            build_timeline_with(&t, &iv)
        );
    }

    /// The window model before lanes were borrowed: every SPE lane cut
    /// by [`SpeIntervals::clip`] into its own intervals (`cut`, in lane
    /// order), and the full timeline's markers filtered by the window.
    fn clip_model<'a>(
        full: &Timeline<'_>,
        cut: &'a [SpeIntervals],
        t0: u64,
        t1: u64,
    ) -> Timeline<'a> {
        let mut cut = cut.iter();
        let lanes = (full.lanes.iter())
            .map(|l| Lane {
                label: l.label.clone(),
                core: l.core,
                intervals: match l.core {
                    TraceCore::Spe(_) => &cut.next().expect("one cut lane per SPE lane").intervals,
                    TraceCore::Ppe(_) => &[],
                },
                markers: (l.markers.iter().copied())
                    .filter(|m| t0 <= m.time_tb && m.time_tb < t1)
                    .collect(),
            })
            .collect();
        Timeline {
            start_tb: t0,
            end_tb: t1.max(t0),
            lanes,
        }
    }

    #[test]
    fn window_views_render_as_the_clip_model_on_goldens() {
        use crate::exec::Parallelism;
        use crate::report::{RenderOptions, ReportKind};
        use crate::session::Analysis;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut paths: Vec<_> = (std::fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pdt" || x == "pdt2"))
            .collect();
        paths.sort();
        assert!(paths.len() >= 14, "goldens under {}", dir.display());
        for path in &paths {
            for par in [Parallelism::Serial, Parallelism::Workers(2)] {
                let a = Analysis::open(path)
                    .unwrap()
                    .parallelism(par)
                    .run()
                    .unwrap();
                let full = a.timeline();
                let (s, e) = (full.start_tb, full.end_tb);
                let mid = s + (e - s) / 2;
                // Empty, one tick, the whole span, past both ends, inverted.
                let mut windows = vec![
                    (mid, mid),
                    (mid, mid + 1),
                    (s, e),
                    (s.saturating_sub(7), e + 7),
                    (e, s),
                ];
                let lanes: Vec<&[Interval]> = a
                    .intervals()
                    .iter()
                    .map(|l| l.intervals.as_slice())
                    .collect();
                if let Some(lane) = lanes.iter().find(|l| l.len() >= 4) {
                    // Edges on interval boundaries: one interval, then a run.
                    windows.push((lane[1].start_tb, lane[1].end_tb));
                    windows.push((lane[1].start_tb, lane[lane.len() - 2].end_tb));
                }
                if let Some(long) = lanes
                    .iter()
                    .flat_map(|l| l.iter())
                    .max_by_key(|i| i.ticks())
                {
                    // Inside one interval.
                    let third = long.ticks() / 3;
                    windows.push((long.start_tb + third, long.end_tb - third));
                }
                for (t0, t1) in windows {
                    let cut: Vec<SpeIntervals> =
                        a.intervals().iter().map(|iv| iv.clip(t0, t1)).collect();
                    let model = clip_model(&full, &cut, t0, t1);
                    let opts = RenderOptions::default().with_window(t0, t1);
                    let at = format!("{} {par:?} [{t0}, {t1})", path.display());
                    let mut want = Vec::new();
                    crate::svg::write_svg(&model, &opts.svg, &mut want).unwrap();
                    assert_eq!(
                        a.render(ReportKind::Svg, &opts).as_bytes(),
                        want,
                        "{at}: svg"
                    );
                    let mut want = Vec::new();
                    crate::ascii::write_ascii(&model, opts.ascii_width, &mut want).unwrap();
                    assert_eq!(
                        a.render(ReportKind::Ascii, &opts).as_bytes(),
                        want,
                        "{at}: ascii"
                    );
                }
            }
        }
    }

    #[test]
    fn ppe_lane_is_markers_only() {
        let (rows, iv) = (trace(), build_intervals(&trace()));
        let t = build_timeline_with(&rows, &iv);
        let ppe = &t.lanes[0];
        assert!(ppe.intervals.is_empty());
        assert_eq!(ppe.markers.len(), 2);
    }
}
