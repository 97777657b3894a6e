//! The indexed query engine: binary-searchable event offsets, an
//! interval tree over activity segments, and a zoom pyramid of
//! pre-aggregated time buckets.
//!
//! The Trace Analyzer's views are zoom-and-filter operations, and the
//! paper's tool answered them interactively. A linear rescan of the
//! merged event vector per view makes every interaction O(trace), so
//! [`TraceIndex`] is built once per [`Analysis`](crate::session::Analysis)
//! (in parallel, partitioned per stream/core) and answers the three
//! recurring query shapes sub-linearly:
//!
//! 1. **Window extraction** — per-core ascending offset lists into the
//!    globally sorted event vector. A half-open time window maps to an
//!    offset range by binary search (`partition_point`), so filtered
//!    event listings cost O(log n + matches).
//! 2. **Segment stabbing/range** — an augmented interval tree per SPE
//!    over the reconstructed [`ActivityKind`] segments, answering
//!    "what was SPE k doing at tick t / during `[t0,t1)`" in
//!    O(log n + k).
//! 3. **Window aggregation** — a zoom pyramid of power-of-two time
//!    buckets holding per-core event counts and per-SPE activity
//!    occupancy. Any `[t0,t1)` summary resolves from ~O(levels) bucket
//!    reads plus two exactly-computed partial edge buckets, so the
//!    result is *identical* to a full rescan, not an approximation.
//!
//! ## Gap suspicion
//!
//! Decode gaps destroy events, not time: the SPE decrementer keeps
//! counting through lost records, so reconstruction after a gap is not
//! skewed — but anything *derived* from the window bracketing a gap
//! (counts, occupancy) silently under-reports. The index therefore
//! maps every [`pdt::DecodeGap`] to the time range between the last
//! surviving record before it and the first after it
//! ([`DecodeGap::records_before`](pdt::DecodeGap::records_before)),
//! and every pyramid bucket overlapping such a range inherits a
//! suspect flag. Window summaries report suspicion from the exact
//! ranges, so a lossy trace never reports a clean aggregate over
//! damaged time.
//!
//! The pre-index scan paths survive behind the `scan-oracle` cargo
//! feature (enabled by default) as the differential oracles the golden
//! and property suites compare against.

use pdt::TraceCore;

use crate::analyze::{AnalyzedTrace, GlobalEvent};
use crate::columns::ColumnarTrace;
use crate::exec::{self, Parallelism};
use crate::intervals::{ActivityKind, Interval, SpeIntervals};
use crate::loss::LossReport;
use crate::query::EventFilter;

/// Upper bound on base-level pyramid buckets. The base bucket width is
/// the smallest power of two keeping the bucket count at or under this
/// cap, so index memory stays bounded for arbitrarily long traces.
pub const MAX_BASE_BUCKETS: usize = 1 << 14;

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
pub fn compute_suspect_ranges(trace: &AnalyzedTrace, loss: &LossReport) -> Vec<SuspectRange> {
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

/// [`compute_suspect_ranges`] over the columnar store: the same
/// bracketing rule, reading the core/seq/time columns directly. The
/// session's columnar index build uses this path; the row function
/// remains the differential oracle.
pub fn compute_suspect_ranges_columns(
    trace: &ColumnarTrace,
    loss: &LossReport,
) -> Vec<SuspectRange> {
    let tags = trace.events.tags();
    let times = trace.events.times();
    suspect_ranges_with(loss, trace.start_tb(), trace.end_tb(), |s, seq| {
        let core = loss.streams[s].core;
        (0..tags.len())
            .find(|&i| {
                let from_stream = match core {
                    TraceCore::Spe(_) => tags[i] == core.tag(),
                    TraceCore::Ppe(_) => !TraceCore::from_tag(tags[i]).is_spe(),
                };
                from_stream && trace.events.seq(i) == seq
            })
            .map(|i| times[i])
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
/// timebase axis. Lets [`IntervalTree`] index activity segments here
/// and DMA transfer lifetimes in `ta::lint` with one implementation.
pub(crate) trait Span: Copy {
    /// The half-open `(start_tb, end_tb)` extent.
    fn span(&self) -> (u64, u64);
}

impl Span for Interval {
    fn span(&self) -> (u64, u64) {
        (self.start_tb, self.end_tb)
    }
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

    /// Every span, in `(start, end)` order.
    pub(crate) fn spans(&self) -> &[T] {
        &self.nodes
    }

    /// The `(min start, max end)` hull of all spans, `None` when empty.
    pub(crate) fn extent(&self) -> Option<(u64, u64)> {
        let first = self.nodes.first()?;
        // The root of the implicit tree over `[0, n)` is `n / 2`.
        Some((first.span().0, self.max_end[self.nodes.len() / 2]))
    }

    /// Spans `i` with `i.end > t0 && i.start < t1`, in start order —
    /// the same overlap predicate as [`SpeIntervals::clip`].
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
// Zoom pyramid
// ---------------------------------------------------------------------------

/// One resolution level: `buckets` buckets of `1 << width_shift` ticks
/// each, flat-packed accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PyramidLevel {
    buckets: usize,
    /// `buckets * n_cores` event counts.
    counts: Vec<u64>,
    /// `buckets * n_lanes * 4` activity ticks (kind-major inner).
    activity: Vec<u64>,
    /// Per-bucket gap-suspicion flag.
    suspect: Vec<bool>,
}

/// The multi-resolution bucket stack. Level 0 has the base bucket
/// width; each level above merges bucket pairs, doubling the width,
/// until one bucket covers the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ZoomPyramid {
    base_tb: u64,
    shift: u32,
    n_cores: usize,
    n_lanes: usize,
    levels: Vec<PyramidLevel>,
}

impl ZoomPyramid {
    fn bucket_width(&self) -> u64 {
        1u64 << self.shift
    }

    fn n_base(&self) -> usize {
        self.levels.first().map_or(0, |l| l.buckets)
    }
}

// ---------------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------------

/// Per-core ascending offsets into the globally sorted event vector.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreOffsets {
    core: TraceCore,
    offsets: Vec<u32>,
}

/// One SPE's indexed activity lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpeLane {
    spe: u8,
    start_tb: u64,
    stop_tb: u64,
    tree: IntervalTree<Interval>,
}

/// Exact aggregate of a half-open window, resolved from the zoom
/// pyramid plus exactly-computed partial edge buckets. Equal to a full
/// rescan of the same window (the `scan-oracle` suites assert it).
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
/// products); all queries take the owning trace's event slice, which
/// must be the one the index was built from.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIndex {
    start_tb: u64,
    end_tb: u64,
    n_events: usize,
    per_core: Vec<CoreOffsets>,
    lanes: Vec<SpeLane>,
    pyramid: ZoomPyramid,
    suspects: Vec<SuspectRange>,
}

impl TraceIndex {
    /// Builds the index on the calling thread. Equivalent to
    /// [`build_parallel`](Self::build_parallel) with one worker.
    pub fn build(trace: &AnalyzedTrace, intervals: &[SpeIntervals], loss: &LossReport) -> Self {
        Self::build_parallel(trace, intervals, loss, 1)
    }

    /// Builds the index with up to `threads` workers: the event vector
    /// is partitioned into contiguous chunks for offset extraction,
    /// then cores (bucket counting) and SPE lanes (interval tree +
    /// occupancy distribution) are distributed round-robin. Output is
    /// identical for every worker count.
    pub fn build_parallel(
        trace: &AnalyzedTrace,
        intervals: &[SpeIntervals],
        loss: &LossReport,
        threads: usize,
    ) -> Self {
        assert!(
            trace.events.len() <= u32::MAX as usize,
            "trace exceeds u32 offset space"
        );
        let start_tb = trace.start_tb();
        let end_tb = trace.end_tb();
        let suspects = compute_suspect_ranges(trace, loss);

        // Stable core order: sorted by tag (PPE threads, then SPEs).
        let mut cores: Vec<TraceCore> = trace.events.iter().map(|e| e.core).collect();
        cores.sort_by_key(|c| c.tag());
        cores.dedup();
        let mut slot_of = [usize::MAX; 256];
        for (i, c) in cores.iter().enumerate() {
            slot_of[c.tag() as usize] = i;
        }

        let workers = threads.max(1);
        let per_core_offsets = extract_offsets(&trace.events, &cores, &slot_of, workers);
        let events = &trace.events;
        Self::finish_build(
            start_tb,
            end_tb,
            events.len(),
            cores,
            per_core_offsets,
            &|o| events[o as usize].time_tb,
            intervals,
            suspects,
            workers,
        )
    }

    /// Builds the index over the columnar store: per-core offsets come
    /// from the store's memoized shared pass and bucket counting reads
    /// the time column directly. Output is identical to
    /// [`build_parallel`](Self::build_parallel) on the materialized
    /// row trace (the differential suites assert it).
    pub fn build_columns(
        trace: &ColumnarTrace,
        intervals: &[SpeIntervals],
        loss: &LossReport,
        threads: usize,
    ) -> Self {
        assert!(
            trace.events.len() <= u32::MAX as usize,
            "trace exceeds u32 offset space"
        );
        let start_tb = trace.start_tb();
        let end_tb = trace.end_tb();
        let suspects = compute_suspect_ranges_columns(trace, loss);
        let workers = threads.max(1);
        let (cores, per_core_offsets): (Vec<TraceCore>, Vec<Vec<u32>>) = trace
            .core_offsets()
            .iter()
            .map(|(c, offs)| (*c, offs.to_vec()))
            .unzip();
        let times = trace.events.times();
        Self::finish_build(
            start_tb,
            end_tb,
            trace.events.len(),
            cores,
            per_core_offsets,
            &|o| times[o as usize],
            intervals,
            suspects,
            workers,
        )
    }

    /// The shared back half of index construction: pyramid geometry,
    /// bucket counting, lane building and level merging. `time_of`
    /// resolves a global offset to its timestamp, abstracting the row
    /// vector and the time column behind one lookup.
    #[allow(clippy::too_many_arguments)]
    fn finish_build(
        start_tb: u64,
        end_tb: u64,
        n_events: usize,
        cores: Vec<TraceCore>,
        per_core_offsets: Vec<Vec<u32>>,
        time_of: &(dyn Fn(u32) -> u64 + Sync),
        intervals: &[SpeIntervals],
        suspects: Vec<SuspectRange>,
        workers: usize,
    ) -> Self {
        // Pyramid geometry: smallest power-of-two bucket width keeping
        // the base level at or under the cap. Span covers the last
        // event inclusively.
        let span = end_tb.saturating_sub(start_tb).saturating_add(1);
        let mut shift = 0u32;
        while (span >> shift) as u128 + u128::from(span & ((1u64 << shift) - 1) != 0)
            > MAX_BASE_BUCKETS as u128
        {
            shift += 1;
        }
        let width = 1u64 << shift;
        let n_base = span.div_ceil(width).max(1) as usize;

        // Level-0 event counts: one pass per core, cores distributed
        // round-robin over the workers.
        let counts0 = count_buckets(
            time_of,
            &per_core_offsets,
            start_tb,
            shift,
            n_base,
            cores.len(),
            workers,
        );

        // Lanes: interval tree + level-0 activity distribution, lanes
        // distributed round-robin.
        let (lanes, activity0) = build_lanes(intervals, start_tb, shift, n_base, workers);

        // Level-0 suspicion: buckets overlapping any suspect range.
        let mut suspect0 = vec![false; n_base];
        for r in &suspects {
            if r.end_tb <= start_tb || r.start_tb >= start_tb + width * n_base as u64 {
                continue;
            }
            let lo = (r.start_tb.max(start_tb) - start_tb) >> shift;
            let hi = (r.end_tb.saturating_sub(1).max(r.start_tb.max(start_tb)) - start_tb) >> shift;
            for b in lo..=hi.min(n_base as u64 - 1) {
                suspect0[b as usize] = true;
            }
        }

        // Merge pairs upward until one bucket covers the span.
        let n_cores = cores.len();
        let n_lanes = intervals.len();
        let mut levels = vec![PyramidLevel {
            buckets: n_base,
            counts: counts0,
            activity: activity0,
            suspect: suspect0,
        }];
        while levels.last().unwrap().buckets > 1 {
            let prev = levels.last().unwrap();
            let nb = prev.buckets.div_ceil(2);
            let mut counts = vec![0u64; nb * n_cores];
            let mut activity = vec![0u64; nb * n_lanes * 4];
            let mut suspect = vec![false; nb];
            for b in 0..prev.buckets {
                let parent = b / 2;
                for c in 0..n_cores {
                    counts[parent * n_cores + c] += prev.counts[b * n_cores + c];
                }
                for k in 0..n_lanes * 4 {
                    activity[parent * n_lanes * 4 + k] += prev.activity[b * n_lanes * 4 + k];
                }
                suspect[parent] |= prev.suspect[b];
            }
            levels.push(PyramidLevel {
                buckets: nb,
                counts,
                activity,
                suspect,
            });
        }

        TraceIndex {
            start_tb,
            end_tb,
            n_events,
            per_core: cores
                .into_iter()
                .zip(per_core_offsets)
                .map(|(core, offsets)| CoreOffsets { core, offsets })
                .collect(),
            lanes,
            pyramid: ZoomPyramid {
                base_tb: start_tb,
                shift,
                n_cores,
                n_lanes,
                levels,
            },
            suspects,
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
        self.per_core.iter().map(|c| c.core)
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
    /// range — the window-level form of the bucket suspicion rule.
    pub fn window_suspect(&self, t0: u64, t1: u64) -> bool {
        self.suspects.iter().any(|r| r.overlaps(t0, t1))
    }

    fn check(&self, events: &[GlobalEvent]) {
        debug_assert_eq!(
            events.len(),
            self.n_events,
            "index queried with a different trace than it was built from"
        );
    }

    /// `core`'s events within `[t0, t1)`, in global order, by binary
    /// search over the core's offset list.
    pub fn core_events_in<'a>(
        &'a self,
        events: &'a [GlobalEvent],
        core: TraceCore,
        t0: u64,
        t1: u64,
    ) -> impl Iterator<Item = &'a GlobalEvent> + 'a {
        self.check(events);
        let range = self
            .per_core
            .iter()
            .find(|c| c.core == core)
            .map(|c| {
                let lo = c
                    .offsets
                    .partition_point(|&o| events[o as usize].time_tb < t0);
                let hi = c
                    .offsets
                    .partition_point(|&o| events[o as usize].time_tb < t1);
                &c.offsets[lo..hi.max(lo)]
            })
            .unwrap_or(&[]);
        range.iter().map(move |&o| &events[o as usize])
    }

    /// The global offset range of events with `t0 <= time_tb < t1`
    /// (the event vector is time-sorted).
    pub fn global_range(&self, events: &[GlobalEvent], t0: u64, t1: u64) -> std::ops::Range<usize> {
        self.check(events);
        let lo = events.partition_point(|e| e.time_tb < t0);
        let hi = events.partition_point(|e| e.time_tb < t1);
        lo..hi.max(lo)
    }

    /// Applies `filter`, returning matches in global order — the
    /// index-backed engine behind [`EventFilter::apply`]. Window
    /// bounds resolve by binary search; core restrictions iterate only
    /// the named cores' offset lists.
    pub fn query<'a>(
        &self,
        trace: &'a AnalyzedTrace,
        filter: &EventFilter,
    ) -> Vec<&'a GlobalEvent> {
        let events = &trace.events;
        self.check(events);
        let (t0, t1) = filter.window().unwrap_or((0, u64::MAX));
        match filter.cores() {
            Some(cores) => {
                // Walk only the selected cores' windows; merging the
                // ascending offset runs by offset value reproduces the
                // exact global scan order.
                let mut offs: Vec<u32> = Vec::new();
                for c in &self.per_core {
                    if !cores.contains(&c.core) {
                        continue;
                    }
                    let lo = c
                        .offsets
                        .partition_point(|&o| events[o as usize].time_tb < t0);
                    let hi = c
                        .offsets
                        .partition_point(|&o| events[o as usize].time_tb < t1);
                    offs.extend(
                        c.offsets[lo..hi.max(lo)]
                            .iter()
                            .copied()
                            .filter(|&o| filter.matches(&events[o as usize])),
                    );
                }
                offs.sort_unstable();
                offs.into_iter().map(|o| &events[o as usize]).collect()
            }
            None => self
                .global_range(events, t0, t1)
                .filter_map(|i| {
                    let e = &events[i];
                    filter.matches(e).then_some(e)
                })
                .collect(),
        }
    }

    /// The activity interval containing tick `t` on `spe`, if any —
    /// the interval tree's stabbing query.
    pub fn stab(&self, spe: u8, t: u64) -> Option<Interval> {
        let lane = self.lanes.iter().find(|l| l.spe == spe)?;
        lane.tree
            .range(t, t.saturating_add(1))
            .into_iter()
            .find(|i| i.start_tb <= t && t < i.end_tb)
    }

    /// Clips one SPE's interval set to `[t0, t1)` via the interval
    /// tree — identical to [`SpeIntervals::clip`] on the full set, in
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

    fn clip_lane(lane: &SpeLane, t0: u64, t1: u64) -> SpeIntervals {
        let s = t0.max(lane.start_tb);
        let e = t1.min(lane.stop_tb).max(s);
        SpeIntervals {
            spe: lane.spe,
            start_tb: s,
            stop_tb: e,
            intervals: lane
                .tree
                .range(s, e)
                .into_iter()
                .map(|i| Interval {
                    start_tb: i.start_tb.max(s),
                    end_tb: i.end_tb.min(e),
                    kind: i.kind,
                })
                .collect(),
        }
    }

    /// Exact aggregate of `[t0, t1)`: per-core event counts, per-SPE
    /// activity occupancy and the gap-suspicion flag. Interior base
    /// buckets resolve from ~O(levels) pyramid reads; the two partial
    /// edge buckets are computed exactly (binary-searched counts,
    /// tree-clipped activity), so the summary equals a full rescan.
    ///
    /// `times` is the time column of the trace the index was built
    /// from ([`crate::EventColumns::times`]).
    pub fn summarize(&self, times: &[u64], t0: u64, t1: u64) -> WindowSummary {
        debug_assert_eq!(
            times.len(),
            self.n_events,
            "index queried with a different trace than it was built from"
        );
        let p = &self.pyramid;
        let mut counts = vec![0u64; p.n_cores];
        let mut activity = vec![[0u64; 4]; p.n_lanes];

        // Clamp to the indexed span; nothing exists outside it.
        let c0 = t0.max(self.start_tb);
        let c1 = t1.min(self.end_tb.saturating_add(1));
        if c1 > c0 {
            let width = p.bucket_width();
            let b0 = ((c0 - p.base_tb) >> p.shift) as usize;
            let b1 = (((c1 - 1) - p.base_tb) >> p.shift) as usize;
            if b0 == b1 {
                self.add_exact(times, c0, c1, &mut counts, &mut activity);
            } else {
                let b0_end = p.base_tb + (b0 as u64 + 1) * width;
                let b1_start = p.base_tb + b1 as u64 * width;
                self.add_exact(times, c0, b0_end, &mut counts, &mut activity);
                self.add_exact(times, b1_start, c1, &mut counts, &mut activity);
                self.add_pyramid(b0 + 1, b1, &mut counts, &mut activity);
            }
        }

        WindowSummary {
            start_tb: t0,
            end_tb: t1,
            events: self
                .per_core
                .iter()
                .zip(&counts)
                .map(|(c, &n)| (c.core, n))
                .collect(),
            activity: self
                .lanes
                .iter()
                .zip(activity)
                .map(|(l, ticks)| WindowActivity { spe: l.spe, ticks })
                .collect(),
            suspect: self.window_suspect(t0, t1),
        }
    }

    /// Exact accumulation over a sub-bucket range.
    fn add_exact(
        &self,
        times: &[u64],
        a: u64,
        b: u64,
        counts: &mut [u64],
        activity: &mut [[u64; 4]],
    ) {
        for (ci, c) in self.per_core.iter().enumerate() {
            let lo = c.offsets.partition_point(|&o| times[o as usize] < a);
            let hi = c.offsets.partition_point(|&o| times[o as usize] < b);
            counts[ci] += (hi - lo) as u64;
        }
        for (li, lane) in self.lanes.iter().enumerate() {
            for iv in lane.tree.range(a, b) {
                let overlap = iv.end_tb.min(b).saturating_sub(iv.start_tb.max(a));
                activity[li][iv.kind.index()] += overlap;
            }
        }
    }

    /// Segment-tree-style aligned decomposition of whole base buckets
    /// `[lo, hi)` across the pyramid levels: O(levels) bucket reads.
    fn add_pyramid(&self, lo: usize, hi: usize, counts: &mut [u64], activity: &mut [[u64; 4]]) {
        let p = &self.pyramid;
        let (mut lo, mut hi, mut level) = (lo, hi, 0usize);
        while lo < hi {
            let l = &p.levels[level];
            let mut take = |b: usize| {
                for (c, count) in counts.iter_mut().enumerate().take(p.n_cores) {
                    *count += l.counts[b * p.n_cores + c];
                }
                for (li, lane) in activity.iter_mut().enumerate().take(p.n_lanes) {
                    for (k, ticks) in lane.iter_mut().enumerate() {
                        *ticks += l.activity[(b * p.n_lanes + li) * 4 + k];
                    }
                }
            };
            if lo & 1 == 1 {
                take(lo);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                take(hi);
            }
            lo >>= 1;
            hi >>= 1;
            level += 1;
        }
    }

    /// Whether base-level bucket `b` inherited the suspect flag — the
    /// bucket-granular suspicion the renderers consult.
    pub fn bucket_suspect(&self, b: usize) -> bool {
        self.pyramid.levels[0]
            .suspect
            .get(b)
            .copied()
            .unwrap_or(false)
    }

    /// Base-level bucket count and width in ticks, for callers mapping
    /// window positions to buckets.
    pub fn bucket_geometry(&self) -> (usize, u64) {
        (self.pyramid.n_base(), self.pyramid.bucket_width())
    }

    /// Total pyramid buckets across every level — the block count
    /// incremental updates are measured against.
    pub fn total_blocks(&self) -> usize {
        self.pyramid.levels.iter().map(|l| l.buckets).sum()
    }

    /// Grows the index in place to cover `trace`, which must extend the
    /// indexed event prefix by appending events at the tail (the
    /// streaming-ingestion contract). The result is identical to a
    /// fresh [`build_columns`](Self::build_columns) over the grown
    /// trace; only the work is incremental:
    ///
    /// - per-core offset lists get the appended offsets pushed,
    /// - appended events *add* into their base buckets (bucket counts
    ///   are sums, so the boundary bucket needs no recount),
    /// - upper pyramid levels recompute only the suffix reachable from
    ///   touched base buckets,
    /// - a span that outgrows [`MAX_BASE_BUCKETS`] coarsens by
    ///   *dropping* base levels (level `k` of the old pyramid is
    ///   exactly the base of the pyramid with `shift + k`), rewriting
    ///   nothing,
    /// - an SPE lane whose interval set is unchanged keeps its tree and
    ///   activity cells; a changed lane is rebuilt.
    ///
    /// Suspect ranges and flags are recomputed wholesale (loss
    /// bracketing can move *interior* ranges when a gap's "after"
    /// record arrives); they are cheap booleans and do not count as
    /// rebuilt blocks. Falls back to a full rebuild — reported in the
    /// returned [`IndexDelta`] — when the update is not a pure tail
    /// append (new first event, new core, or a changed lane set).
    pub fn extend_columns(
        &mut self,
        trace: &ColumnarTrace,
        intervals: &[SpeIntervals],
        loss: &LossReport,
        threads: usize,
    ) -> IndexDelta {
        assert!(
            trace.events.len() <= u32::MAX as usize,
            "trace exceeds u32 offset space"
        );
        let n_new = trace.events.len();
        let from_ev = self.n_events;
        assert!(n_new >= from_ev, "extend_columns requires an appended tail");
        let appended_events = n_new - from_ev;

        let full_rebuild = |slf: &mut Self| {
            *slf = Self::build_columns(trace, intervals, loss, threads);
            let blocks = slf.total_blocks();
            IndexDelta {
                appended_events,
                blocks_total: blocks,
                blocks_rebuilt: blocks,
                lanes_total: slf.lanes.len(),
                lanes_rebuilt: slf.lanes.len(),
                coarsened: false,
                full_rebuild: true,
            }
        };

        // A tail append never moves the first event; anything else
        // (first build, out-of-order splice repair) rebuilds.
        if from_ev == 0 || trace.start_tb() != self.start_tb {
            return full_rebuild(self);
        }
        // Appends can surface a brand-new core or SPE lane; both change
        // the flat accumulator strides, so rebuild.
        let same_cores = {
            let offs = trace.core_offsets();
            offs.len() == self.per_core.len()
                && offs
                    .iter()
                    .zip(&self.per_core)
                    .all(|((c, _), pc)| *c == pc.core)
        };
        let same_lanes = intervals.len() == self.lanes.len()
            && intervals
                .iter()
                .zip(&self.lanes)
                .all(|(iv, l)| iv.spe == l.spe);
        if !same_cores || !same_lanes {
            return full_rebuild(self);
        }

        let end_tb = trace.end_tb();
        let span = end_tb.saturating_sub(self.start_tb).saturating_add(1);

        // Coarsen: the span may need a wider base bucket. Level k of
        // the current pyramid *is* the base level of the pyramid with
        // `shift + k` (ceil-division composes), so coarsening is a
        // prefix drop, not a rebuild.
        let mut coarsened = false;
        {
            let p = &mut self.pyramid;
            let mut new_shift = p.shift;
            while (span >> new_shift) as u128 + u128::from(span & ((1u64 << new_shift) - 1) != 0)
                > MAX_BASE_BUCKETS as u128
            {
                new_shift += 1;
            }
            let k = (new_shift - p.shift) as usize;
            if k > 0 {
                if k >= p.levels.len() {
                    return full_rebuild(self);
                }
                p.levels.drain(..k);
                p.shift = new_shift;
                coarsened = true;
            }
        }

        let shift = self.pyramid.shift;
        let width = 1u64 << shift;
        let n_base = (span.div_ceil(width).max(1)) as usize;
        let n_cores = self.pyramid.n_cores;
        let n_lanes = self.pyramid.n_lanes;
        let old_n_base = self.pyramid.levels[0].buckets;

        // Grow the base level with zeroed buckets for the new span.
        {
            let base = &mut self.pyramid.levels[0];
            base.buckets = n_base;
            base.counts.resize(n_base * n_cores, 0);
            base.activity.resize(n_base * n_lanes * 4, 0);
            base.suspect.resize(n_base, false);
        }

        // Append per-core offsets and add the new events into their
        // base buckets.
        let mut slot_of = [usize::MAX; 256];
        for (i, pc) in self.per_core.iter().enumerate() {
            slot_of[pc.core.tag() as usize] = i;
        }
        let times = trace.events.times();
        let tags = trace.events.tags();
        let base_tb = self.pyramid.base_tb;
        {
            let counts = &mut self.pyramid.levels[0].counts;
            for i in from_ev..n_new {
                let slot = slot_of[tags[i] as usize];
                self.per_core[slot].offsets.push(i as u32);
                let b = ((times[i] - base_tb) >> shift) as usize;
                counts[b * n_cores + slot] += 1;
            }
        }

        // Lanes: reuse a lane whose interval set is unchanged (the
        // tree build is deterministic, so equal inputs mean an equal
        // tree); rebuild a changed lane's tree and redistribute its
        // activity cells from scratch.
        let mut lanes_rebuilt = 0usize;
        let mut lane_changed = false;
        for (li, (lane, iv)) in self.lanes.iter_mut().zip(intervals).enumerate() {
            let unchanged = lane.start_tb == iv.start_tb
                && lane.stop_tb == iv.stop_tb
                && lane.tree.nodes == iv.intervals;
            if unchanged {
                continue;
            }
            lane.start_tb = iv.start_tb;
            lane.stop_tb = iv.stop_tb;
            lane.tree = IntervalTree::new(iv.intervals.to_vec());
            let activity = &mut self.pyramid.levels[0].activity;
            for b in 0..n_base {
                for k in 0..4 {
                    activity[(b * n_lanes + li) * 4 + k] = 0;
                }
            }
            for i in &iv.intervals {
                if i.end_tb <= i.start_tb {
                    continue;
                }
                let b_from = ((i.start_tb - base_tb) >> shift) as usize;
                let b_to = ((i.end_tb - 1 - base_tb) >> shift) as usize;
                for b in b_from..=b_to {
                    let bs = base_tb + b as u64 * width;
                    let overlap = i.end_tb.min(bs + width) - i.start_tb.max(bs);
                    activity[(b * n_lanes + li) * 4 + i.kind.index()] += overlap;
                }
            }
            lanes_rebuilt += 1;
            lane_changed = true;
        }

        // Suspicion is recomputed wholesale: bracketing can move
        // interior ranges as a gap's "after" record arrives.
        self.suspects = compute_suspect_ranges_columns(trace, loss);
        {
            let base = &mut self.pyramid.levels[0];
            base.suspect.iter_mut().for_each(|s| *s = false);
            for r in &self.suspects {
                if r.end_tb <= self.start_tb || r.start_tb >= self.start_tb + width * n_base as u64
                {
                    continue;
                }
                let lo = (r.start_tb.max(self.start_tb) - self.start_tb) >> shift;
                let hi = (r
                    .end_tb
                    .saturating_sub(1)
                    .max(r.start_tb.max(self.start_tb))
                    - self.start_tb)
                    >> shift;
                for b in lo..=hi.min(n_base as u64 - 1) {
                    base.suspect[b as usize] = true;
                }
            }
        }

        // Upper levels: recompute only the suffix reachable from
        // touched base buckets (everything, when a lane changed).
        // Including the last *old* bucket covers the parent that gains
        // its first sibling child when the base grows.
        let first_touched = if lane_changed {
            0
        } else if appended_events > 0 {
            (((times[from_ev] - base_tb) >> shift) as usize).min(old_n_base.saturating_sub(1))
        } else {
            old_n_base.saturating_sub(1)
        };
        let mut blocks_rebuilt = n_base - first_touched;
        self.rebuild_upper_levels(first_touched, &mut blocks_rebuilt);

        self.end_tb = end_tb;
        self.n_events = n_new;

        IndexDelta {
            appended_events,
            blocks_total: self.total_blocks(),
            blocks_rebuilt,
            lanes_total: self.lanes.len(),
            lanes_rebuilt,
            coarsened,
            full_rebuild: false,
        }
    }

    /// Recomputes pyramid levels above the base from bucket
    /// `from >> 1` per level upward, resizing levels for a grown base
    /// and adding or dropping top levels as needed. Suspect flags are
    /// recomputed over whole levels (cheap booleans); counts and
    /// activity only over the suffix, whose rebuilt-bucket count is
    /// added to `blocks_rebuilt`.
    fn rebuild_upper_levels(&mut self, first_touched: usize, blocks_rebuilt: &mut usize) {
        let p = &mut self.pyramid;
        let n_cores = p.n_cores;
        let n_lanes = p.n_lanes;
        let mut from = first_touched;
        let mut li = 0usize;
        loop {
            let child_buckets = p.levels[li].buckets;
            if child_buckets <= 1 {
                p.levels.truncate(li + 1);
                break;
            }
            let nb = child_buckets.div_ceil(2);
            let pfrom = from >> 1;
            let mut counts_sfx = vec![0u64; (nb - pfrom) * n_cores];
            let mut act_sfx = vec![0u64; (nb - pfrom) * n_lanes * 4];
            let mut suspect = vec![false; nb];
            {
                let child = &p.levels[li];
                for b in 0..child_buckets {
                    let parent = b / 2;
                    suspect[parent] |= child.suspect[b];
                    if parent < pfrom {
                        continue;
                    }
                    let pp = parent - pfrom;
                    for c in 0..n_cores {
                        counts_sfx[pp * n_cores + c] += child.counts[b * n_cores + c];
                    }
                    for k in 0..n_lanes * 4 {
                        act_sfx[pp * n_lanes * 4 + k] += child.activity[b * n_lanes * 4 + k];
                    }
                }
            }
            if li + 1 >= p.levels.len() {
                p.levels.push(PyramidLevel {
                    buckets: 0,
                    counts: Vec::new(),
                    activity: Vec::new(),
                    suspect: Vec::new(),
                });
            }
            let parent = &mut p.levels[li + 1];
            parent.buckets = nb;
            parent.counts.resize(nb * n_cores, 0);
            parent.activity.resize(nb * n_lanes * 4, 0);
            parent.counts[pfrom * n_cores..].copy_from_slice(&counts_sfx);
            parent.activity[pfrom * n_lanes * 4..].copy_from_slice(&act_sfx);
            parent.suspect = suspect;
            *blocks_rebuilt += nb - pfrom;
            from = pfrom;
            li += 1;
        }
    }
}

/// What [`TraceIndex::extend_columns`] did: how much of the index the
/// update touched, for incremental-cost accounting and the
/// `stream_smoke` bound (appending a small tail must rebuild a
/// proportionally small share of blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexDelta {
    /// Events appended by this update.
    pub appended_events: usize,
    /// Total pyramid buckets across every level, after the update.
    pub blocks_total: usize,
    /// Buckets whose count/activity accumulators were written.
    pub blocks_rebuilt: usize,
    /// SPE lanes in the index.
    pub lanes_total: usize,
    /// Lanes whose interval set changed and were rebuilt.
    pub lanes_rebuilt: usize,
    /// Whether the span outgrew the bucket cap and the base coarsened
    /// (a level drop — no accumulators rewritten).
    pub coarsened: bool,
    /// Whether the update fell back to a full rebuild.
    pub full_rebuild: bool,
}

impl IndexDelta {
    /// Rebuilt share of the pyramid, `0.0..=1.0`.
    pub fn rebuilt_fraction(&self) -> f64 {
        if self.blocks_total == 0 {
            0.0
        } else {
            self.blocks_rebuilt as f64 / self.blocks_total as f64
        }
    }
}

/// Chunked per-core offset extraction: the event vector is split into
/// `workers` contiguous chunks scanned concurrently; concatenating the
/// per-chunk runs in chunk order preserves ascending offsets.
fn extract_offsets(
    events: &[GlobalEvent],
    cores: &[TraceCore],
    slot_of: &[usize; 256],
    workers: usize,
) -> Vec<Vec<u32>> {
    let n_cores = cores.len();
    let scan = |base: usize, chunk: &[GlobalEvent]| {
        let mut per: Vec<Vec<u32>> = vec![Vec::new(); n_cores];
        for (i, e) in chunk.iter().enumerate() {
            per[slot_of[e.core.tag() as usize]].push((base + i) as u32);
        }
        per
    };
    let chunk_runs: Vec<Vec<Vec<u32>>> = if workers <= 1 || events.len() < 4096 {
        vec![scan(0, events)]
    } else {
        let chunk_len = events.len().div_ceil(workers);
        let chunks: Vec<&[GlobalEvent]> = events.chunks(chunk_len).collect();
        exec::map_indexed(Parallelism::from_threads(workers), chunks.len(), |ci| {
            scan(ci * chunk_len, chunks[ci])
        })
    };
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n_cores];
    for run in chunk_runs {
        for (slot, mut offs) in run.into_iter().enumerate() {
            out[slot].append(&mut offs);
        }
    }
    out
}

/// Level-0 event-count buckets, one core per task, round-robin over
/// the workers. `time_of` resolves a global offset to its timestamp
/// (row vector or time column).
fn count_buckets(
    time_of: &(dyn Fn(u32) -> u64 + Sync),
    per_core: &[Vec<u32>],
    base_tb: u64,
    shift: u32,
    n_base: usize,
    n_cores: usize,
    workers: usize,
) -> Vec<u64> {
    let count_one = |offsets: &Vec<u32>| {
        let mut buckets = vec![0u64; n_base];
        for &o in offsets {
            buckets[((time_of(o) - base_tb) >> shift) as usize] += 1;
        }
        buckets
    };
    let per_core_buckets: Vec<Vec<u64>> =
        exec::map_indexed(Parallelism::from_threads(workers), n_cores, |i| {
            count_one(&per_core[i])
        });
    let mut counts = vec![0u64; n_base * n_cores];
    for (ci, buckets) in per_core_buckets.iter().enumerate() {
        for (b, &n) in buckets.iter().enumerate() {
            counts[b * n_cores + ci] = n;
        }
    }
    counts
}

/// Per-lane interval tree construction and level-0 activity
/// distribution, lanes round-robin over the workers.
fn build_lanes(
    intervals: &[SpeIntervals],
    base_tb: u64,
    shift: u32,
    n_base: usize,
    workers: usize,
) -> (Vec<SpeLane>, Vec<u64>) {
    let n_lanes = intervals.len();
    let width = 1u64 << shift;
    let build_one = |iv: &SpeIntervals| {
        let mut buckets = vec![[0u64; 4]; n_base];
        for i in &iv.intervals {
            if i.end_tb <= i.start_tb {
                continue;
            }
            let b_from = ((i.start_tb - base_tb) >> shift) as usize;
            let b_to = ((i.end_tb - 1 - base_tb) >> shift) as usize;
            for (b, bucket) in buckets.iter_mut().enumerate().take(b_to + 1).skip(b_from) {
                let bs = base_tb + b as u64 * width;
                let overlap = i.end_tb.min(bs + width) - i.start_tb.max(bs);
                bucket[i.kind.index()] += overlap;
            }
        }
        (
            SpeLane {
                spe: iv.spe,
                start_tb: iv.start_tb,
                stop_tb: iv.stop_tb,
                tree: IntervalTree::new(iv.intervals.to_vec()),
            },
            buckets,
        )
    };
    let built: Vec<(SpeLane, Vec<[u64; 4]>)> =
        exec::map_indexed(Parallelism::from_threads(workers), n_lanes, |i| {
            build_one(&intervals[i])
        });
    let mut activity = vec![0u64; n_base * n_lanes * 4];
    let mut lanes = Vec::with_capacity(n_lanes);
    for (li, (lane, buckets)) in built.into_iter().enumerate() {
        for (b, ticks) in buckets.iter().enumerate() {
            for (k, &t) in ticks.iter().enumerate() {
                activity[(b * n_lanes + li) * 4 + k] = t;
            }
        }
        lanes.push(lane);
    }
    (lanes, activity)
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

    fn times(t: &AnalyzedTrace) -> Vec<u64> {
        t.events.iter().map(|e| e.time_tb).collect()
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
        for core in [TraceCore::Ppe(0), TraceCore::Spe(0), TraceCore::Spe(1)] {
            for (a, b) in [(0, 200), (10, 100), (60, 60), (90, 10), (150, 400)] {
                let got: Vec<u64> = idx
                    .core_events_in(&t.events, core, a, b)
                    .map(|e| e.time_tb)
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
        let suspects = compute_suspect_ranges(&t, &LossReport::default());
        for a in (0..140).step_by(7) {
            for b in (0..150).step_by(11) {
                let fast = idx.summarize(&times(&t), a, b);
                let slow = oracle::window_summary(&t, &iv, &suspects, a, b);
                assert_eq!(fast, slow, "window [{a},{b})");
            }
        }
        // Degenerate and out-of-range windows.
        for (a, b) in [(0, 0), (50, 50), (200, 100), (1000, 2000), (0, u64::MAX)] {
            assert_eq!(
                idx.summarize(&times(&t), a, b),
                oracle::window_summary(&t, &iv, &suspects, a, b)
            );
        }
    }

    #[test]
    fn parallel_build_is_identical() {
        let t = trace();
        let iv = build_intervals(&t);
        let loss = LossReport::default();
        let one = TraceIndex::build_parallel(&t, &iv, &loss, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(one, TraceIndex::build_parallel(&t, &iv, &loss, threads));
        }
    }

    #[test]
    fn columnar_build_is_identical_to_row_build() {
        let t = trace();
        let iv = build_intervals(&t);
        let loss = LossReport::default();
        let cols = ColumnarTrace::from_analyzed(&t);
        let row = TraceIndex::build_parallel(&t, &iv, &loss, 1);
        for threads in [1usize, 2, 4] {
            assert_eq!(row, TraceIndex::build_columns(&cols, &iv, &loss, threads));
        }
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
        };
        assert_eq!(
            compute_suspect_ranges_columns(&cols, &loss),
            compute_suspect_ranges(&t, &loss)
        );
    }

    #[test]
    fn gap_brackets_become_suspect_ranges_and_buckets() {
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
        };
        let ranges = compute_suspect_ranges(&t, &loss);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].start_tb, ranges[0].end_tb), (20, 61));

        let idx = TraceIndex::build(&t, &iv, &loss);
        assert!(idx.window_suspect(0, 200));
        assert!(idx.window_suspect(25, 30), "inside the bracket");
        assert!(!idx.window_suspect(61, 200), "after the bracket");
        assert!(!idx.window_suspect(0, 20), "before the bracket");
        // Buckets covering the bracket inherit the flag; the span here
        // is small enough that bucket width is 1 tick.
        let (n, w) = idx.bucket_geometry();
        assert_eq!(w, 1);
        assert!(n >= 131);
        assert!(idx.bucket_suspect(25));
        assert!(!idx.bucket_suspect(100));
        // Summaries over the bracket are flagged, clean windows not.
        assert!(idx.summarize(&times(&t), 0, 200).suspect);
        assert!(!idx.summarize(&times(&t), 70, 200).suspect);
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
        // The hull is (min start, max end) at every size.
        for n in 0..=ivs.len() {
            let tree = IntervalTree::new(ivs[..n].to_vec());
            let hull = ivs[..n]
                .iter()
                .map(|i| (i.start_tb, i.end_tb))
                .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)));
            assert_eq!(tree.extent(), hull, "{n} spans");
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
        let s = idx.summarize(&times(&t), 0, 100);
        assert!(s.events.is_empty() && s.activity.is_empty() && !s.suspect);
    }
}
