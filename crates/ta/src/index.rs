//! The indexed query engine: per-core store segments and
//! checkpointed activity lanes.
//!
//! The Trace Analyzer's views are zoom-and-filter operations, and the
//! paper's tool answered them interactively. A linear rescan of the
//! merged event vector per view makes every interaction O(trace), so
//! [`TraceIndex`] is built once per [`Analysis`](crate::session::Analysis)
//! and answers the three recurring query shapes sub-linearly:
//!
//! 1. **Window extraction** — each core's events are one time-ordered
//!    segment of the core-major store, and the materialized rows are
//!    globally time-sorted. A half-open time window maps to an offset
//!    range by binary search (`partition_point`), so filtered event
//!    listings cost O(log n + window).
//! 2. **Segment stabbing/range** — each SPE's [`ActivityKind`]
//!    intervals tile its lane in time order, so "what was SPE k doing
//!    at tick t / during `[t0,t1)`" is a binary search, O(log n + k).
//! 3. **Window aggregation** — per-core event counts are two binary
//!    searches per core; per-SPE activity ticks are two lane
//!    checkpoint differences (one cumulative per-kind sum per 64
//!    intervals) trimmed at the window edges. The result is *identical*
//!    to a full rescan, not an approximation.
//!
//! The index holds one store range per core and 32 bytes per 64
//! intervals, O(cores + intervals / 64); it shares the intervals
//! themselves with its session. Nothing in it is sized by the event
//! count or the trace's time span.
//!
//! ## Gap suspicion
//!
//! Decode gaps destroy events, not time: the SPE decrementer keeps
//! counting through lost records, so reconstruction after a gap is not
//! skewed — but anything *derived* from the window bracketing a gap
//! (counts, occupancy) silently under-reports. The index therefore
//! maps every [`pdt::DecodeGap`] to the time range between the last
//! surviving record before it and the first after it
//! ([`DecodeGap::records_before`](pdt::DecodeGap::records_before)).
//! Window summaries report suspicion from those exact ranges, so a
//! lossy trace never reports a clean aggregate over damaged time.
//!
//! The pre-index scan paths survive behind the `scan-oracle` cargo
//! feature (enabled by default) as the differential oracles the golden
//! and property suites compare against.

use std::ops::Range;
use std::sync::Arc;

use pdt::TraceCore;

use crate::analyze::{AnalyzedTrace, GlobalEvent};
use crate::columns::ColumnarTrace;
use crate::intervals::{overlapping, ActivityKind, Interval, LaneCheckpoints, SpeIntervals};
use crate::loss::LossReport;
use crate::query::EventFilter;

/// A time range whose derived aggregates are untrustworthy, mapped
/// from stream-level loss (decode gaps, tracer drops, discarded
/// streams). Half-open `[start_tb, end_tb)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectRange {
    /// First suspect tick.
    pub start_tb: u64,
    /// One past the last suspect tick.
    pub end_tb: u64,
    /// The stream whose loss produced the range. A PPE stream's loss
    /// taints every core (anchors and lifecycle events ride on it).
    pub stream: TraceCore,
}

impl SuspectRange {
    /// Whether the range overlaps the half-open window `[t0, t1)`.
    pub fn overlaps(&self, t0: u64, t1: u64) -> bool {
        self.start_tb < t1 && t0 < self.end_tb
    }
}

/// Maps stream-level loss accounting to time ranges on the global
/// timeline. Each decode gap is bracketed by the surviving records
/// around it (trace start/end when it has no survivor on a side);
/// tracer drops and discarded unanchored streams — whose position in
/// time is unknowable — conservatively taint the whole trace span.
///
/// Shared by [`TraceIndex`] construction and the scan oracles, so the
/// suspicion *rule* has exactly one definition.
pub(crate) fn compute_suspect_ranges(
    trace: &AnalyzedTrace,
    loss: &LossReport,
) -> Vec<SuspectRange> {
    let (start, end) = (trace.start_tb(), trace.end_tb());
    let whole = |stream| SuspectRange {
        start_tb: start,
        end_tb: end.saturating_add(1),
        stream,
    };
    let mut out = Vec::new();
    for s in &loss.streams {
        // Events that came from this stream: exact core match for SPE
        // streams; the PPE stream multiplexes hardware threads, so any
        // non-SPE event belongs to it.
        let from_stream = |e: &&GlobalEvent| match s.core {
            TraceCore::Spe(_) => e.core == s.core,
            TraceCore::Ppe(_) => !e.core.is_spe(),
        };
        for g in &s.gaps {
            let before = g
                .records_before
                .checked_sub(1)
                .and_then(|seq| {
                    trace
                        .events
                        .iter()
                        .filter(from_stream)
                        .find(|e| e.stream_seq == seq)
                })
                .map_or(start, |e| e.time_tb);
            let after = trace
                .events
                .iter()
                .filter(from_stream)
                .find(|e| e.stream_seq == g.records_before)
                .map_or(end, |e| e.time_tb);
            out.push(SuspectRange {
                start_tb: before,
                end_tb: after.max(before).saturating_add(1),
                stream: s.core,
            });
        }
        if s.unanchored || s.tracer_dropped > 0 {
            out.push(whole(s.core));
        }
    }
    out
}

/// The row suspect-range rule (`compute_suspect_ranges`) over the
/// columnar store: the same bracketing rule, searching only the
/// stream's own segments (its SPE's, or every PPE thread's for a PPE
/// stream). The session's columnar index build uses this path; the
/// row function remains the differential oracle.
pub fn compute_suspect_ranges_columns(
    trace: &ColumnarTrace,
    loss: &LossReport,
) -> Vec<SuspectRange> {
    let segs = trace.segments();
    let times = trace.events.times();
    suspect_ranges_with(loss, trace.start_tb(), trace.end_tb(), |s, seq| {
        let core = loss.streams[s].core;
        // Each segment is time-ordered, and cores sharing a time order
        // by tag, so the earliest match is the first in global order.
        (segs.iter())
            .filter(|(c, _)| match core {
                TraceCore::Spe(_) => *c == core,
                TraceCore::Ppe(_) => !c.is_spe(),
            })
            .filter_map(|(_, r)| r.clone().find(|&i| trace.events.seq(i) == seq))
            .map(|i| times[i])
            .min()
    })
}

/// The suspicion rule over any event store spanning `[start, end]`:
/// `find(s, seq)` is the time of the first event, in global order,
/// that came from stream `s` (exact core for an SPE stream, any PPE
/// thread for a PPE stream) with sequence number `seq`. The columnar
/// build scans for it; a live-tail epoch looks it up in the stream's
/// own run.
pub(crate) fn suspect_ranges_with(
    loss: &LossReport,
    start: u64,
    end: u64,
    mut find: impl FnMut(usize, u64) -> Option<u64>,
) -> Vec<SuspectRange> {
    let mut out = Vec::new();
    for (si, s) in loss.streams.iter().enumerate() {
        for g in &s.gaps {
            let before = g
                .records_before
                .checked_sub(1)
                .and_then(|seq| find(si, seq))
                .unwrap_or(start);
            let after = find(si, g.records_before).unwrap_or(end);
            out.push(SuspectRange {
                start_tb: before,
                end_tb: after.max(before).saturating_add(1),
                stream: s.core,
            });
        }
        if s.unanchored || s.tracer_dropped > 0 {
            out.push(SuspectRange {
                start_tb: start,
                end_tb: end.saturating_add(1),
                stream: s.core,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Interval tree
// ---------------------------------------------------------------------------

/// Anything with a half-open `[start_tb, end_tb)` extent on the
/// timebase axis. Lets [`IntervalTree`] index DMA transfer lifetimes
/// in `ta::lint` and address spans in `ta::hb` with one
/// implementation.
pub(crate) trait Span: Copy {
    /// The half-open `(start_tb, end_tb)` extent.
    fn span(&self) -> (u64, u64);
}

/// A static augmented interval tree over any [`Span`] payload: spans
/// sorted by start, with an implicit balanced-BST layout over the
/// sorted array and a subtree-max-end augmentation per node. Stabbing
/// and range queries are O(log n + k); the structure is immutable
/// after construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IntervalTree<T: Span> {
    /// Sorted by `(start, end)`.
    nodes: Vec<T>,
    /// `max_end[i]` = max span end in the subtree rooted at `i` (the
    /// midpoint of its implicit `[lo, hi)` slice).
    max_end: Vec<u64>,
}

impl<T: Span> IntervalTree<T> {
    pub(crate) fn new(mut spans: Vec<T>) -> Self {
        spans.sort_by_key(|i| i.span());
        let mut max_end = vec![0u64; spans.len()];
        fn augment<T: Span>(nodes: &[T], max_end: &mut [u64], lo: usize, hi: usize) -> u64 {
            if lo >= hi {
                return 0;
            }
            let mid = lo + (hi - lo) / 2;
            let mut m = nodes[mid].span().1;
            m = m.max(augment(nodes, max_end, lo, mid));
            m = m.max(augment(nodes, max_end, mid + 1, hi));
            max_end[mid] = m;
            m
        }
        let n = spans.len();
        augment(&spans, &mut max_end, 0, n);
        IntervalTree {
            nodes: spans,
            max_end,
        }
    }

    /// Spans `i` with `i.end > t0 && i.start < t1`, in start order.
    pub(crate) fn range(&self, t0: u64, t1: u64) -> Vec<T> {
        let mut out = Vec::new();
        // Every span starts at or after t1: nothing to visit. (The
        // root's max end prunes queries past the other side.)
        if self.nodes.first().is_none_or(|n| n.span().0 >= t1) {
            return out;
        }
        self.visit(0, self.nodes.len(), t0, t1, &mut out);
        out
    }

    fn visit(&self, lo: usize, hi: usize, t0: u64, t1: u64, out: &mut Vec<T>) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        // Nothing in this subtree ends after t0: prune it whole.
        if self.max_end[mid] <= t0 {
            return;
        }
        self.visit(lo, mid, t0, t1, out);
        let node = self.nodes[mid];
        let (start, end) = node.span();
        if start < t1 {
            if end > t0 {
                out.push(node);
            }
            self.visit(mid + 1, hi, t0, t1, out);
        }
        // start >= t1: every right-subtree start is >= too.
    }
}

// ---------------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------------

/// Exact aggregate of a half-open window: per-core event counts by
/// binary search and per-lane activity from the lane checkpoints.
/// Equal to a full rescan of the same window (the `scan-oracle`
/// suites assert it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    /// The queried window start.
    pub start_tb: u64,
    /// The queried window end (exclusive).
    pub end_tb: u64,
    /// Event counts per core, in index core order (tag-sorted);
    /// includes zero-count cores.
    pub events: Vec<(TraceCore, u64)>,
    /// Activity occupancy per SPE lane, in SPE order.
    pub activity: Vec<WindowActivity>,
    /// True when the window overlaps a [`SuspectRange`]: some of what
    /// this summary aggregates was lost to decode gaps or drops.
    pub suspect: bool,
}

impl WindowSummary {
    /// Total events over every core.
    pub fn total_events(&self) -> u64 {
        self.events.iter().map(|(_, n)| n).sum()
    }
}

/// One SPE's activity ticks within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowActivity {
    /// The SPE.
    pub spe: u8,
    /// Ticks per [`ActivityKind`], indexed by [`ActivityKind::index`].
    pub ticks: [u64; 4],
}

impl WindowActivity {
    /// Ticks attributed to `kind`.
    pub fn ticks_of(&self, kind: ActivityKind) -> u64 {
        self.ticks[kind.index()]
    }
}

/// The immutable query index over one analyzed trace. Built once per
/// [`Analysis`](crate::session::Analysis) (memoized like the other
/// products); all queries take the owning trace (its store, or its
/// rows for the global-order queries), which must be the one the index
/// was built from.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIndex {
    start_tb: u64,
    end_tb: u64,
    n_events: usize,
    /// Each core's segment of the core-major store, tag-sorted.
    segments: Vec<(TraceCore, Range<usize>)>,
    /// The SPE lanes, shared with the session that built the index.
    lanes: Arc<[SpeIntervals]>,
    /// One [`LaneCheckpoints`] per lane.
    checkpoints: Vec<LaneCheckpoints>,
    suspects: Vec<SuspectRange>,
}

impl TraceIndex {
    /// Builds the index over a row trace: each core's segment of the
    /// core-major store the trace places into is the prefix sum of the
    /// per-core event counts, so no store is built.
    pub fn build(trace: &AnalyzedTrace, intervals: &[SpeIntervals], loss: &LossReport) -> Self {
        let mut counts = [0usize; 256];
        for e in &trace.events {
            counts[e.core.tag() as usize] += 1;
        }
        let mut at = 0;
        let segments = (0..=u8::MAX)
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .map(|(tag, n)| {
                at += n;
                (TraceCore::from_tag(tag), at - n..at)
            })
            .collect();
        let lanes: Arc<[SpeIntervals]> = intervals.into();
        TraceIndex {
            start_tb: trace.start_tb(),
            end_tb: trace.end_tb(),
            n_events: trace.events.len(),
            segments,
            checkpoints: checkpoint_lanes(&lanes),
            lanes,
            suspects: compute_suspect_ranges(trace, loss),
        }
    }

    /// Builds the index over the columnar store: the cores' segments
    /// are located by binary search, and the lanes are shared, not
    /// copied, when `intervals` is already an `Arc`. Output is
    /// identical to [`build`](Self::build) on the materialized row
    /// trace (the differential suites assert it).
    pub fn build_columns(
        trace: &ColumnarTrace,
        intervals: impl Into<Arc<[SpeIntervals]>>,
        loss: &LossReport,
    ) -> Self {
        let lanes = intervals.into();
        TraceIndex {
            start_tb: trace.start_tb(),
            end_tb: trace.end_tb(),
            n_events: trace.events.len(),
            segments: trace.segments(),
            checkpoints: checkpoint_lanes(&lanes),
            lanes,
            suspects: compute_suspect_ranges_columns(trace, loss),
        }
    }

    /// First indexed tick.
    pub fn start_tb(&self) -> u64 {
        self.start_tb
    }

    /// Last indexed tick.
    pub fn end_tb(&self) -> u64 {
        self.end_tb
    }

    /// The indexed cores, tag-sorted.
    pub fn cores(&self) -> impl Iterator<Item = TraceCore> + '_ {
        self.segments.iter().map(|(c, _)| *c)
    }

    /// The SPE lanes the index searches, shared with its session.
    pub(crate) fn lanes(&self) -> &[SpeIntervals] {
        &self.lanes
    }

    /// The indexed SPE lanes (SPEs with reconstructed intervals).
    pub fn spes(&self) -> impl Iterator<Item = u8> + '_ {
        self.lanes.iter().map(|l| l.spe)
    }

    /// The suspect time ranges derived from the trace's loss
    /// accounting, in stream order.
    pub fn suspect_ranges(&self) -> &[SuspectRange] {
        &self.suspects
    }

    /// Whether the half-open window `[t0, t1)` overlaps any suspect
    /// range.
    pub fn window_suspect(&self, t0: u64, t1: u64) -> bool {
        self.suspects.iter().any(|r| r.overlaps(t0, t1))
    }

    /// Bytes the index holds, counting the lanes it shares with its
    /// session: O(events + intervals), with one 32-byte checkpoint per
    /// 64 intervals. Independent of the trace's time span.
    pub fn bytes_in_memory(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.segments.capacity() * size_of::<(TraceCore, Range<usize>)>()
            + self.lanes.len() * size_of::<SpeIntervals>()
            + (self.lanes.iter())
                .map(|l| l.intervals.capacity() * size_of::<Interval>())
                .sum::<usize>()
            + self.checkpoints.capacity() * size_of::<LaneCheckpoints>()
            + (self.checkpoints.iter())
                .map(LaneCheckpoints::heap_bytes)
                .sum::<usize>()
            + self.suspects.capacity() * size_of::<SuspectRange>()
    }

    fn check(&self, n_events: usize) {
        debug_assert_eq!(
            n_events, self.n_events,
            "index queried with a different trace than it was built from"
        );
    }

    /// The store positions of `core`'s events within `[t0, t1)`: two
    /// binary searches over the core's segment of `trace`, the store
    /// the index was built from.
    pub fn core_range_in(
        &self,
        trace: &ColumnarTrace,
        core: TraceCore,
        t0: u64,
        t1: u64,
    ) -> Range<usize> {
        self.check(trace.events.len());
        match self.segments.iter().find(|(c, _)| *c == core) {
            Some((_, seg)) => within(trace.events.times(), seg, t0, t1),
            None => 0..0,
        }
    }

    /// The global offset range of events with `t0 <= time_tb < t1`
    /// (the event vector is time-sorted).
    pub fn global_range(&self, events: &[GlobalEvent], t0: u64, t1: u64) -> Range<usize> {
        self.check(events.len());
        let lo = events.partition_point(|e| e.time_tb < t0);
        let hi = events.partition_point(|e| e.time_tb < t1);
        lo..hi.max(lo)
    }

    /// Applies `filter`, returning matches in global order — the
    /// index-backed engine behind [`EventFilter::apply`]. Window
    /// bounds resolve by binary search over the global order; only the
    /// window is scanned.
    pub fn query<'a>(
        &self,
        trace: &'a AnalyzedTrace,
        filter: &EventFilter,
    ) -> Vec<&'a GlobalEvent> {
        let events = &trace.events;
        let (t0, t1) = filter.window().unwrap_or((0, u64::MAX));
        events[self.global_range(events, t0, t1)]
            .iter()
            .filter(|e| filter.matches(e))
            .collect()
    }

    /// The activity interval containing tick `t` on `spe`, if any, by
    /// binary search over the lane.
    pub fn stab(&self, spe: u8, t: u64) -> Option<Interval> {
        let lane = self.lanes.iter().find(|l| l.spe == spe)?;
        overlapping(&lane.intervals, t, t.saturating_add(1))
            .first()
            .copied()
    }

    /// Clips one SPE's interval set to `[t0, t1)` by binary search —
    /// identical to [`SpeIntervals::clip`] on the full set, in
    /// O(log n + k) instead of O(n).
    pub fn clip(&self, spe: u8, t0: u64, t1: u64) -> Option<SpeIntervals> {
        let lane = self.lanes.iter().find(|l| l.spe == spe)?;
        Some(Self::clip_lane(lane, t0, t1))
    }

    /// Clips every SPE lane to `[t0, t1)`, in SPE order.
    pub fn clip_all(&self, t0: u64, t1: u64) -> Vec<SpeIntervals> {
        self.lanes
            .iter()
            .map(|l| Self::clip_lane(l, t0, t1))
            .collect()
    }

    fn clip_lane(lane: &SpeIntervals, t0: u64, t1: u64) -> SpeIntervals {
        let (s, e, run) = lane.window(t0, t1);
        SpeIntervals {
            spe: lane.spe,
            start_tb: s,
            stop_tb: e,
            intervals: run
                .iter()
                .map(|i| Interval {
                    start_tb: i.start_tb.max(s),
                    end_tb: i.end_tb.min(e),
                    kind: i.kind,
                })
                .collect(),
        }
    }

    /// Exact aggregate of `[t0, t1)` over `trace`, the store the index
    /// was built from: per-core event counts by two binary searches
    /// over each core's segment, per-SPE activity from the lane
    /// checkpoints, and the gap-suspicion flag from the suspect ranges.
    /// Equal to a full rescan.
    pub fn summarize(&self, trace: &ColumnarTrace, t0: u64, t1: u64) -> WindowSummary {
        self.check(trace.events.len());
        let times = trace.events.times();
        WindowSummary {
            start_tb: t0,
            end_tb: t1,
            events: (self.segments.iter())
                .map(|(core, seg)| (*core, within(times, seg, t0, t1).len() as u64))
                .collect(),
            activity: self
                .lanes
                .iter()
                .zip(&self.checkpoints)
                .map(|(l, c)| WindowActivity {
                    spe: l.spe,
                    ticks: c.ticks(&l.intervals, t0, t1),
                })
                .collect(),
            suspect: self.window_suspect(t0, t1),
        }
    }

    /// Lane checkpoints over every lane — the unit incremental updates
    /// are measured in.
    pub fn lane_checkpoints(&self) -> usize {
        self.checkpoints.iter().map(LaneCheckpoints::len).sum()
    }
}

/// The index work of one streaming epoch
/// ([`IngestSession::last_delta`](crate::IngestSession::last_delta)):
/// how much of the lane state it wrote, for incremental-cost accounting
/// and the `stream_smoke` bound (appending a small tail must write a
/// proportionally small share of lane checkpoints). The "blocks" are
/// lane checkpoints: one cumulative per-kind tick sum per 64 intervals
/// of an SPE lane, in the base index or in an open stream's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexDelta {
    /// Events the epoch added over the previous one.
    pub appended_events: usize,
    /// Lane checkpoints over every lane, after the epoch.
    pub blocks_total: usize,
    /// Lane checkpoints the epoch wrote.
    pub blocks_rebuilt: usize,
    /// SPE lanes, in the base index and the open runs.
    pub lanes_total: usize,
    /// Lanes rebuilt from scratch.
    pub lanes_rebuilt: usize,
    /// Whether the epoch built an index from scratch.
    pub full_rebuild: bool,
}

impl IndexDelta {
    /// Rewritten share of the lane checkpoints, `0.0..=1.0`.
    pub fn rebuilt_fraction(&self) -> f64 {
        if self.blocks_total == 0 {
            0.0
        } else {
            self.blocks_rebuilt as f64 / self.blocks_total as f64
        }
    }
}

/// The positions of `seg` whose time falls in `[t0, t1)`, by binary
/// search over the segment's (sorted) times.
fn within(times: &[u64], seg: &Range<usize>, t0: u64, t1: u64) -> Range<usize> {
    let seg_times = &times[seg.clone()];
    let lo = seg_times.partition_point(|&t| t < t0);
    let hi = seg_times.partition_point(|&t| t < t1).max(lo);
    seg.start + lo..seg.start + hi
}

/// One [`LaneCheckpoints`] per lane.
fn checkpoint_lanes(lanes: &[SpeIntervals]) -> Vec<LaneCheckpoints> {
    lanes
        .iter()
        .map(|l| LaneCheckpoints::new(&l.intervals))
        .collect()
}

/// Brute-force reference implementations of every index query — the
/// pre-index scan paths, kept alive as differential oracles. Gated
/// behind the (default-on) `scan-oracle` feature so production builds
/// can drop them with `--no-default-features`.
#[cfg(feature = "scan-oracle")]
pub mod oracle {
    use super::*;

    /// Linear-scan filter application: the brute-force reference for
    /// the index-backed [`EventFilter::apply`].
    pub fn filter_events<'a>(
        trace: &'a AnalyzedTrace,
        filter: &EventFilter,
    ) -> Vec<&'a GlobalEvent> {
        trace.events.iter().filter(|e| filter.matches(e)).collect()
    }

    /// Full-rescan window summary over the same core/lane ordering as
    /// [`TraceIndex::summarize`], with suspicion resolved from
    /// `suspects` by linear overlap scan.
    pub fn window_summary(
        trace: &AnalyzedTrace,
        intervals: &[SpeIntervals],
        suspects: &[SuspectRange],
        t0: u64,
        t1: u64,
    ) -> WindowSummary {
        let mut cores: Vec<TraceCore> = trace.events.iter().map(|e| e.core).collect();
        cores.sort_by_key(|c| c.tag());
        cores.dedup();
        let events = cores
            .iter()
            .map(|&core| {
                (
                    core,
                    trace
                        .events
                        .iter()
                        .filter(|e| e.core == core && e.time_tb >= t0 && e.time_tb < t1)
                        .count() as u64,
                )
            })
            .collect();
        let activity = intervals
            .iter()
            .map(|iv| {
                let mut ticks = [0u64; 4];
                for i in &iv.intervals {
                    let overlap = i.end_tb.min(t1).saturating_sub(i.start_tb.max(t0));
                    ticks[i.kind.index()] += overlap;
                }
                WindowActivity { spe: iv.spe, ticks }
            })
            .collect();
        WindowSummary {
            start_tb: t0,
            end_tb: t1,
            events,
            activity,
            suspect: suspects.iter().any(|r| r.overlaps(t0, t1)),
        }
    }

    /// Linear-scan stabbing query over the full interval sets.
    pub fn stab(intervals: &[SpeIntervals], spe: u8, t: u64) -> Option<Interval> {
        intervals
            .iter()
            .find(|iv| iv.spe == spe)?
            .intervals
            .iter()
            .copied()
            .find(|i| i.start_tb <= t && t < i.end_tb)
    }

    /// Full-set clip of every lane — [`SpeIntervals::clip`] per SPE.
    pub fn clip_all(intervals: &[SpeIntervals], t0: u64, t1: u64) -> Vec<SpeIntervals> {
        intervals.iter().map(|iv| iv.clip(t0, t1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::GlobalEvent;
    use crate::intervals::build_intervals;
    use pdt::{EventCode, TraceHeader, VERSION};

    fn header() -> TraceHeader {
        TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: 2,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        }
    }

    fn ev(t: u64, core: TraceCore, code: EventCode, seq: u64) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core,
            code,
            params: vec![0; 4],
            stream_seq: seq,
        }
    }

    /// Two SPEs with waits, one PPE thread, sorted globally.
    fn trace() -> AnalyzedTrace {
        use EventCode::*;
        let mut events = vec![
            ev(0, TraceCore::Ppe(0), PpeCtxRun, 0),
            ev(5, TraceCore::Ppe(0), PpeCtxRun, 1),
            ev(10, TraceCore::Spe(0), SpeCtxStart, 0),
            ev(20, TraceCore::Spe(0), SpeTagWaitBegin, 1),
            ev(30, TraceCore::Spe(1), SpeCtxStart, 0),
            ev(60, TraceCore::Spe(0), SpeTagWaitEnd, 2),
            ev(80, TraceCore::Spe(1), SpeMboxReadBegin, 1),
            ev(90, TraceCore::Spe(1), SpeMboxReadEnd, 2),
            ev(100, TraceCore::Spe(0), SpeStop, 3),
            ev(120, TraceCore::Spe(1), SpeStop, 3),
            ev(130, TraceCore::Ppe(0), PpeUser, 2),
        ];
        events.sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
        AnalyzedTrace {
            header: header(),
            events,
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    fn index_of(t: &AnalyzedTrace) -> (TraceIndex, Vec<SpeIntervals>) {
        let iv = build_intervals(t);
        let idx = TraceIndex::build(t, &iv, &LossReport::default());
        (idx, iv)
    }

    #[test]
    fn core_window_extraction_matches_scan() {
        let t = trace();
        let (idx, _) = index_of(&t);
        let cols = ColumnarTrace::from_analyzed(&t);
        for core in [TraceCore::Ppe(0), TraceCore::Spe(0), TraceCore::Spe(1)] {
            for (a, b) in [(0, 200), (10, 100), (60, 60), (90, 10), (150, 400)] {
                let got: Vec<u64> = idx
                    .core_range_in(&cols, core, a, b)
                    .map(|i| cols.events.times()[i])
                    .collect();
                let want: Vec<u64> = t
                    .events
                    .iter()
                    .filter(|e| e.core == core && e.time_tb >= a && e.time_tb < b)
                    .map(|e| e.time_tb)
                    .collect();
                assert_eq!(got, want, "core {core} window [{a},{b})");
            }
        }
    }

    #[test]
    fn query_matches_oracle_across_filters() {
        let t = trace();
        let (idx, _) = index_of(&t);
        let filters = [
            EventFilter::new(),
            EventFilter::new().in_window(20, 90),
            EventFilter::new().on_core(TraceCore::Spe(1)),
            EventFilter::new()
                .in_window(0, 100)
                .on_core(TraceCore::Spe(0))
                .on_core(TraceCore::Ppe(0)),
            EventFilter::new().with_code(EventCode::SpeStop),
            EventFilter::new()
                .in_window(30, 120)
                .in_group(pdt::EventGroup::SpeMbox),
        ];
        for f in filters {
            let fast = idx.query(&t, &f);
            let slow: Vec<&GlobalEvent> = t.events.iter().filter(|e| f.matches(e)).collect();
            assert_eq!(fast, slow, "filter {f:?}");
        }
    }

    #[test]
    fn stab_and_clip_match_full_set() {
        let t = trace();
        let (idx, iv) = index_of(&t);
        for spe in [0u8, 1] {
            let full = iv.iter().find(|i| i.spe == spe).unwrap();
            for tick in [0, 10, 20, 59, 60, 80, 99, 100, 120, 500] {
                let fast = idx.stab(spe, tick);
                let slow = full
                    .intervals
                    .iter()
                    .copied()
                    .find(|i| i.start_tb <= tick && tick < i.end_tb);
                assert_eq!(fast, slow, "spe{spe} stab {tick}");
            }
            for (a, b) in [(0, 200), (15, 70), (60, 60), (90, 10), (100, 100)] {
                assert_eq!(
                    idx.clip(spe, a, b).unwrap(),
                    full.clip(a, b),
                    "spe{spe} clip [{a},{b})"
                );
            }
        }
    }

    #[cfg(feature = "scan-oracle")]
    #[test]
    fn summaries_are_exact_for_every_window() {
        let t = trace();
        let (idx, iv) = index_of(&t);
        let cols = ColumnarTrace::from_analyzed(&t);
        let suspects = compute_suspect_ranges(&t, &LossReport::default());
        for a in (0..140).step_by(7) {
            for b in (0..150).step_by(11) {
                let fast = idx.summarize(&cols, a, b);
                let slow = oracle::window_summary(&t, &iv, &suspects, a, b);
                assert_eq!(fast, slow, "window [{a},{b})");
            }
        }
        // Degenerate and out-of-range windows.
        for (a, b) in [(0, 0), (50, 50), (200, 100), (1000, 2000), (0, u64::MAX)] {
            assert_eq!(
                idx.summarize(&cols, a, b),
                oracle::window_summary(&t, &iv, &suspects, a, b)
            );
        }
    }

    #[test]
    fn index_memory_does_not_grow_with_the_time_span() {
        let t = trace();
        let mut stretched = trace();
        for e in &mut stretched.events {
            e.time_tb <<= 24;
        }
        let (small, _) = index_of(&t);
        let (wide, _) = index_of(&stretched);
        assert!(wide.end_tb() - wide.start_tb() > 1 << 30);
        assert!(
            small.bytes_in_memory().abs_diff(wide.bytes_in_memory()) <= 1024,
            "{} vs {} bytes",
            small.bytes_in_memory(),
            wide.bytes_in_memory()
        );
    }

    #[test]
    fn columnar_build_is_identical_to_row_build() {
        let t = trace();
        let iv = build_intervals(&t);
        let loss = LossReport::default();
        let cols = ColumnarTrace::from_analyzed(&t);
        assert_eq!(
            TraceIndex::build(&t, &iv, &loss),
            TraceIndex::build_columns(&cols, iv.as_slice(), &loss)
        );
    }

    #[test]
    fn columnar_suspect_ranges_match_row_ranges() {
        use pdt::{DecodeGap, RecordError};
        let t = trace();
        let cols = ColumnarTrace::from_analyzed(&t);
        let loss = LossReport {
            streams: vec![
                crate::loss::StreamLoss {
                    core: TraceCore::Spe(0),
                    decoded_records: 4,
                    tracer_dropped: 1,
                    gaps: vec![DecodeGap {
                        offset: 32,
                        len: 16,
                        est_records: 1,
                        records_before: 2,
                        cause: RecordError::ZeroLength,
                    }],
                    unanchored: false,
                },
                crate::loss::StreamLoss {
                    core: TraceCore::Ppe(0),
                    decoded_records: 3,
                    tracer_dropped: 0,
                    gaps: vec![DecodeGap {
                        offset: 0,
                        len: 8,
                        est_records: 1,
                        records_before: 1,
                        cause: RecordError::Truncated { have: 4, need: 8 },
                    }],
                    unanchored: true,
                },
            ],
            truncated: None,
        };
        assert_eq!(
            compute_suspect_ranges_columns(&cols, &loss),
            compute_suspect_ranges(&t, &loss)
        );
    }

    #[test]
    fn gap_brackets_become_suspect_ranges() {
        use pdt::{DecodeGap, RecordError};
        let t = trace();
        let iv = build_intervals(&t);
        // A gap on SPE0 between its records 1 (t=20) and 2 (t=60).
        let loss = LossReport {
            streams: vec![crate::loss::StreamLoss {
                core: TraceCore::Spe(0),
                decoded_records: 4,
                tracer_dropped: 0,
                gaps: vec![DecodeGap {
                    offset: 32,
                    len: 16,
                    est_records: 1,
                    records_before: 2,
                    cause: RecordError::ZeroLength,
                }],
                unanchored: false,
            }],
            truncated: None,
        };
        let ranges = compute_suspect_ranges(&t, &loss);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].start_tb, ranges[0].end_tb), (20, 61));

        let idx = TraceIndex::build(&t, &iv, &loss);
        assert!(idx.window_suspect(0, 200));
        assert!(idx.window_suspect(25, 30), "inside the bracket");
        assert!(!idx.window_suspect(61, 200), "after the bracket");
        assert!(!idx.window_suspect(0, 20), "before the bracket");
        // Summaries over the bracket are flagged, clean windows not.
        let cols = ColumnarTrace::from_analyzed(&t);
        assert!(idx.summarize(&cols, 0, 200).suspect);
        assert!(!idx.summarize(&cols, 70, 200).suspect);
    }

    impl Span for Interval {
        fn span(&self) -> (u64, u64) {
            (self.start_tb, self.end_tb)
        }
    }

    #[test]
    fn interval_tree_handles_adversarial_sets() {
        // Overlapping and nested intervals (future-proofing: today's
        // lanes are disjoint, the tree does not assume it).
        let ivs = vec![
            Interval {
                start_tb: 0,
                end_tb: 100,
                kind: ActivityKind::Compute,
            },
            Interval {
                start_tb: 10,
                end_tb: 20,
                kind: ActivityKind::DmaWait,
            },
            Interval {
                start_tb: 15,
                end_tb: 95,
                kind: ActivityKind::MboxWait,
            },
            Interval {
                start_tb: 50,
                end_tb: 55,
                kind: ActivityKind::SignalWait,
            },
            Interval {
                start_tb: 90,
                end_tb: 130,
                kind: ActivityKind::Compute,
            },
        ];
        let tree = IntervalTree::new(ivs.clone());
        for (a, b) in [
            (0u64, 5),
            (12, 13),
            (55, 90),
            (0, 200),
            (129, 130),
            (130, 200),
        ] {
            let mut want: Vec<Interval> = ivs
                .iter()
                .copied()
                .filter(|i| i.end_tb > a && i.start_tb < b)
                .collect();
            want.sort_by_key(|i| (i.start_tb, i.end_tb));
            assert_eq!(tree.range(a, b), want, "range [{a},{b})");
        }
    }

    #[test]
    fn empty_trace_indexes_cleanly() {
        let t = AnalyzedTrace {
            header: header(),
            events: vec![],
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        };
        let (idx, _) = index_of(&t);
        assert_eq!(idx.cores().count(), 0);
        assert_eq!(
            idx.query(&t, &EventFilter::new()),
            Vec::<&GlobalEvent>::new()
        );
        let s = idx.summarize(&ColumnarTrace::from_analyzed(&t), 0, 100);
        assert!(s.events.is_empty() && s.activity.is_empty() && !s.suspect);
    }
}
