//! The timeline model behind the SVG and ASCII renderers.
//!
//! A [`Timeline`] is what the Trace Analyzer's main view shows: one
//! lane per core, activity segments on SPE lanes, and point markers for
//! discrete events (PPE calls, user events).

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;
use crate::index::TraceIndex;
use crate::intervals::{build_intervals, ActivityKind, SpeIntervals};

/// A colored activity segment on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start, timebase ticks.
    pub start_tb: u64,
    /// End, timebase ticks.
    pub end_tb: u64,
    /// Activity classification.
    pub kind: ActivityKind,
}

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
pub struct Lane {
    /// Display label.
    pub label: String,
    /// The core.
    pub core: TraceCore,
    /// Activity segments (SPE lanes only).
    pub segments: Vec<Segment>,
    /// Point markers.
    pub markers: Vec<Marker>,
}

/// The complete timeline model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Earliest tick shown.
    pub start_tb: u64,
    /// Latest tick shown.
    pub end_tb: u64,
    /// Lanes, PPE first then SPEs in index order.
    pub lanes: Vec<Lane>,
}

impl Timeline {
    /// Timeline span in ticks (at least 1 to keep renderers sane).
    pub fn span(&self) -> u64 {
        (self.end_tb - self.start_tb).max(1)
    }
}

/// Which point events become markers.
pub(crate) fn is_marker(core: TraceCore, code: EventCode) -> bool {
    match core {
        TraceCore::Ppe(_) => true, // every PPE call is a marker
        TraceCore::Spe(_) => matches!(
            code,
            EventCode::SpeUser | EventCode::SpeCtxStart | EventCode::SpeStop
        ),
    }
}

/// Builds the timeline model from an analyzed trace.
///
/// New code should prefer [`Analysis::timeline`](crate::session::Analysis::timeline),
/// which shares one interval pass with the statistics and memoizes the
/// result; this function remains for compatibility.
pub fn build_timeline(trace: &AnalyzedTrace) -> Timeline {
    build_timeline_with(trace, &build_intervals(trace))
}

/// Builds the timeline model from already-built intervals, so a caller
/// deriving several products from one trace pays the interval pass
/// once. [`build_timeline`] is this with a fresh interval build.
pub fn build_timeline_with(trace: &AnalyzedTrace, intervals: &[SpeIntervals]) -> Timeline {
    let start_tb = trace.start_tb();
    let end_tb = trace.end_tb();
    let mut lanes = Vec::new();

    // PPE lanes (one per hardware thread that produced events).
    let mut ppe_threads: Vec<u8> = trace
        .events
        .iter()
        .filter_map(|e| match e.core {
            TraceCore::Ppe(t) => Some(t),
            TraceCore::Spe(_) => None,
        })
        .collect();
    ppe_threads.sort_unstable();
    ppe_threads.dedup();
    for t in ppe_threads {
        let core = TraceCore::Ppe(t);
        lanes.push(Lane {
            label: format!("PPE.{t}"),
            core,
            segments: Vec::new(),
            markers: trace
                .core_events(core)
                .map(|e| Marker {
                    time_tb: e.time_tb,
                    code: e.code,
                })
                .collect(),
        });
    }

    // SPE lanes from intervals.
    for iv in intervals {
        let core = TraceCore::Spe(iv.spe);
        let ctx = trace
            .anchors
            .iter()
            .find(|a| a.spe == iv.spe)
            .map(|a| a.ctx);
        let label = match ctx.and_then(|c| trace.ctx_name(c)) {
            Some(name) => format!("SPE{} ({name})", iv.spe),
            None => format!("SPE{}", iv.spe),
        };
        lanes.push(Lane {
            label,
            core,
            segments: iv
                .intervals
                .iter()
                .map(|i| Segment {
                    start_tb: i.start_tb,
                    end_tb: i.end_tb,
                    kind: i.kind,
                })
                .collect(),
            markers: trace
                .core_events(core)
                .filter(|e| is_marker(core, e.code))
                .map(|e| Marker {
                    time_tb: e.time_tb,
                    code: e.code,
                })
                .collect(),
        });
    }

    Timeline {
        start_tb,
        end_tb,
        lanes,
    }
}

/// [`build_timeline_with`] over the columnar store: lane discovery
/// reads the core segments, markers come from each core's segment,
/// and SPE labels resolve through the string interner.
/// The session uses this path; the row function remains the
/// differential oracle.
pub fn build_timeline_columns(trace: &ColumnarTrace, intervals: &[SpeIntervals]) -> Timeline {
    let lanes = lanes_of(trace, intervals, |core| trace.core_slice(core));
    Timeline {
        start_tb: trace.start_tb(),
        end_tb: trace.end_tb(),
        lanes,
    }
}

/// Builds the timeline model restricted to the half-open window
/// `[t0, t1)`: segments clipped and markers located by binary search
/// through the session's [`TraceIndex`], without rescanning the trace
/// or building its global order. The lane set and labels match
/// [`build_timeline_columns`] on the full trace; only each lane's
/// content is windowed.
pub(crate) fn build_timeline_where(
    trace: &ColumnarTrace,
    index: &TraceIndex,
    t0: u64,
    t1: u64,
) -> Timeline {
    let lanes = lanes_of(trace, &index.clip_all(t0, t1), |core| {
        index.core_range_in(trace, core, t0, t1)
    });
    Timeline {
        start_tb: t0,
        end_tb: t1.max(t0),
        lanes,
    }
}

/// The PPE lanes of `trace`, then one SPE lane per entry of
/// `intervals`, with each core's markers taken from the store range
/// `range_of` gives for it.
fn lanes_of(
    trace: &ColumnarTrace,
    intervals: &[SpeIntervals],
    range_of: impl Fn(TraceCore) -> std::ops::Range<usize>,
) -> Vec<Lane> {
    let mut lanes = Vec::new();

    // Markers need only the time and code columns; reading them
    // directly skips the per-event view construction (params lookup,
    // sequence decode) on this hot path.
    let times = trace.events.times();
    let codes = trace.events.codes();
    let markers_of = |core: TraceCore, all: bool| -> Vec<Marker> {
        range_of(core)
            .filter(|&o| all || is_marker(core, codes[o]))
            .map(|o| Marker {
                time_tb: times[o],
                code: codes[o],
            })
            .collect()
    };

    // PPE lanes: the core segments are tag-sorted, so PPE threads come
    // out ascending without a scan over the events.
    for core in trace.cores() {
        let TraceCore::Ppe(t) = core else { continue };
        lanes.push(Lane {
            label: format!("PPE.{t}"),
            core,
            segments: Vec::new(),
            markers: markers_of(core, true),
        });
    }

    // SPE lanes from intervals, labels resolved through the interner.
    for iv in intervals {
        let core = TraceCore::Spe(iv.spe);
        let ctx = trace
            .anchors
            .iter()
            .find(|a| a.spe == iv.spe)
            .map(|a| a.ctx);
        let label = match ctx.and_then(|c| trace.ctx_name(c)) {
            Some(name) => format!("SPE{} ({name})", iv.spe),
            None => format!("SPE{}", iv.spe),
        };
        lanes.push(Lane {
            label,
            core,
            segments: iv
                .intervals
                .iter()
                .map(|i| Segment {
                    start_tb: i.start_tb,
                    end_tb: i.end_tb,
                    kind: i.kind,
                })
                .collect(),
            markers: markers_of(core, false),
        });
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{GlobalEvent, SpeAnchor};
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
        let t = build_timeline(&trace());
        assert_eq!(t.lanes.len(), 2);
        assert_eq!(t.lanes[0].label, "PPE.0");
        assert_eq!(t.lanes[1].label, "SPE0 (kern)");
        assert_eq!(t.start_tb, 0);
        assert_eq!(t.end_tb, 100);
        assert_eq!(t.span(), 100);
    }

    #[test]
    fn spe_lane_has_segments_and_markers() {
        let t = build_timeline(&trace());
        let spe = &t.lanes[1];
        assert_eq!(spe.segments.len(), 3); // compute, dma-wait, compute
        assert_eq!(spe.segments[1].kind, ActivityKind::DmaWait);
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
        assert_eq!(build_timeline_columns(&cols, &iv), build_timeline(&t));
    }

    #[test]
    fn ppe_lane_is_markers_only() {
        let t = build_timeline(&trace());
        let ppe = &t.lanes[0];
        assert!(ppe.segments.is_empty());
        assert_eq!(ppe.markers.len(), 2);
    }
}
