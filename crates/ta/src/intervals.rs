//! Activity-interval reconstruction.
//!
//! The PDT records paired begin/end events around every potentially
//! blocking operation. The analyzer turns those pairs into *intervals*
//! — the colored segments of the Trace Analyzer's timeline view — and
//! classifies the gaps between them as compute.
//!
//! A known limitation inherited from the instrumentation points: an
//! SPU blocking on a *full outbound mailbox* records a single
//! `SpeMboxWrite` event (the write call), so that block is attributed
//! to compute. The paper's TA had the same blind spot; the machine's
//! ground-truth report exposes the residual as `mbox_wait` that the TA
//! does not see.
//!
//! Over the columnar store each SPE's lane is built from its segment of
//! the time and code columns alone, in one `LaneWalk` pass, into a
//! lane reserved at its `2 × waits + 1` bound
//! (`build_spe_intervals_columns`).

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;

/// What an SPE was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// Executing program work (including instrumentation overhead,
    /// which the trace cannot separate from user cycles).
    Compute,
    /// Blocked in a tag-group wait.
    DmaWait,
    /// Blocked reading the inbound mailbox.
    MboxWait,
    /// Blocked reading a signal register.
    SignalWait,
}

impl ActivityKind {
    /// Every kind, in a stable order (the index into
    /// [`ActivityKind::index`]-keyed tables).
    pub const ALL: [ActivityKind; 4] = [
        ActivityKind::Compute,
        ActivityKind::DmaWait,
        ActivityKind::MboxWait,
        ActivityKind::SignalWait,
    ];

    /// Position of this kind in [`ActivityKind::ALL`]; a stable small
    /// index for per-kind accumulator tables.
    pub fn index(self) -> usize {
        match self {
            ActivityKind::Compute => 0,
            ActivityKind::DmaWait => 1,
            ActivityKind::MboxWait => 2,
            ActivityKind::SignalWait => 3,
        }
    }

    /// Stable short label.
    pub fn label(self) -> &'static str {
        match self {
            ActivityKind::Compute => "compute",
            ActivityKind::DmaWait => "dma-wait",
            ActivityKind::MboxWait => "mbox-wait",
            ActivityKind::SignalWait => "sig-wait",
        }
    }
}

/// A half-open interval `[start_tb, end_tb)` on one SPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, in timebase ticks.
    pub start_tb: u64,
    /// End, in timebase ticks.
    pub end_tb: u64,
    /// Activity classification.
    pub kind: ActivityKind,
}

impl Interval {
    /// Interval length in ticks.
    pub fn ticks(&self) -> u64 {
        self.end_tb - self.start_tb
    }
}

/// All intervals reconstructed for one SPE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeIntervals {
    /// The SPE index.
    pub spe: u8,
    /// Context start time.
    pub start_tb: u64,
    /// Context stop time.
    pub stop_tb: u64,
    /// Intervals covering `[start_tb, stop_tb)` without gaps.
    pub intervals: Vec<Interval>,
}

impl SpeIntervals {
    /// Clips the interval set to the window `[start_tb, end_tb)` —
    /// the analyzer's zoom operation. Intervals partially inside the
    /// window are trimmed; the result tiles the intersection of the
    /// window with the SPE's active span.
    pub fn clip(&self, start_tb: u64, end_tb: u64) -> SpeIntervals {
        let s = start_tb.max(self.start_tb);
        let e = end_tb.min(self.stop_tb).max(s);
        SpeIntervals {
            spe: self.spe,
            start_tb: s,
            stop_tb: e,
            intervals: self
                .intervals
                .iter()
                .filter(|i| i.end_tb > s && i.start_tb < e)
                .map(|i| Interval {
                    start_tb: i.start_tb.max(s),
                    end_tb: i.end_tb.min(e),
                    kind: i.kind,
                })
                .collect(),
        }
    }

    /// The bounds `[s, e)` that [`clip`](Self::clip) cuts the lane to, and
    /// the run of intervals it keeps, uncut, found by binary search.
    pub(crate) fn window(&self, start_tb: u64, end_tb: u64) -> (u64, u64, &[Interval]) {
        let s = start_tb.max(self.start_tb);
        let e = end_tb.min(self.stop_tb).max(s);
        (s, e, overlapping(&self.intervals, s, e))
    }

    /// Total ticks attributed to `kind`.
    pub fn total(&self, kind: ActivityKind) -> u64 {
        self.intervals
            .iter()
            .filter(|i| i.kind == kind)
            .map(Interval::ticks)
            .sum()
    }

    /// Active ticks (start to stop).
    pub fn active(&self) -> u64 {
        self.stop_tb - self.start_tb
    }

    /// Compute fraction of active time (0..=1).
    pub fn utilization(&self) -> f64 {
        if self.active() == 0 {
            return 0.0;
        }
        self.total(ActivityKind::Compute) as f64 / self.active() as f64
    }
}

/// Intervals per lane checkpoint.
const CHECKPOINT_EVERY: usize = 64;

/// The intervals of a lane overlapping `[t0, t1)` (`end > t0 &&
/// start < t1`), by binary search. A lane's intervals tile its span in
/// time order (each starts where the previous one ends), so the
/// overlapping ones are one contiguous run.
pub(crate) fn overlapping(lane: &[Interval], t0: u64, t1: u64) -> &[Interval] {
    &lane[overlap_range(lane, t0, t1)]
}

fn overlap_range(lane: &[Interval], t0: u64, t1: u64) -> std::ops::Range<usize> {
    let lo = lane.partition_point(|i| i.end_tb <= t0);
    let hi = lane.partition_point(|i| i.start_tb < t1);
    lo..hi.max(lo)
}

/// Cumulative per-kind tick checkpoints over a lane's intervals, one
/// per [`CHECKPOINT_EVERY`] intervals, so a window's ticks are two
/// checkpoint differences trimmed at the window edges: two binary
/// searches plus at most `2 × 63` interval reads. The index's lanes
/// and the live-tail overlay's open lanes share it; the intervals
/// themselves stay with their owner and are passed in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LaneCheckpoints {
    /// `sums[j]` = per-kind ticks of the first
    /// `CHECKPOINT_EVERY * (j + 1)` intervals.
    sums: Vec<[u64; 4]>,
}

impl LaneCheckpoints {
    /// Checkpoints `lane`, whose intervals must tile in order (every
    /// lane [`LaneWalk`] produces does).
    pub(crate) fn new(lane: &[Interval]) -> Self {
        debug_assert!(
            lane.iter().all(|i| i.start_tb < i.end_tb)
                && lane.windows(2).all(|w| w[0].end_tb == w[1].start_tb),
            "lane intervals must tile in order"
        );
        let mut c = LaneCheckpoints::default();
        c.update(lane, 0);
        c
    }

    /// Checkpoints held.
    pub(crate) fn len(&self) -> usize {
        self.sums.len()
    }

    /// Heap bytes held.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.sums.capacity() * std::mem::size_of::<[u64; 4]>()
    }

    /// Brings the checkpoints up to date with `lane`, whose first
    /// `same` intervals are the ones last checkpointed: only the
    /// checkpoints past them are rewritten. Returns how many were.
    pub(crate) fn update(&mut self, lane: &[Interval], same: usize) -> usize {
        let j = (same / CHECKPOINT_EVERY).min(self.sums.len());
        self.sums.truncate(j);
        let mut acc = self.sums.last().copied().unwrap_or_default();
        let full = lane.len() / CHECKPOINT_EVERY;
        for chunk in
            lane[j * CHECKPOINT_EVERY..full * CHECKPOINT_EVERY].chunks_exact(CHECKPOINT_EVERY)
        {
            for iv in chunk {
                acc[iv.kind.index()] += iv.ticks();
            }
            self.sums.push(acc);
        }
        full - j
    }

    /// Per-kind ticks of the first `n` intervals of `lane`.
    fn prefix(&self, lane: &[Interval], n: usize) -> [u64; 4] {
        let j = n / CHECKPOINT_EVERY;
        let mut acc = j.checked_sub(1).map_or([0; 4], |c| self.sums[c]);
        for iv in &lane[j * CHECKPOINT_EVERY..n] {
            acc[iv.kind.index()] += iv.ticks();
        }
        acc
    }

    /// Per-kind ticks of `lane`'s overlap with `[t0, t1)`.
    pub(crate) fn ticks(&self, lane: &[Interval], t0: u64, t1: u64) -> [u64; 4] {
        let mut ticks = [0u64; 4];
        let r = overlap_range(lane, t0, t1);
        if t0 >= t1 || r.is_empty() {
            return ticks;
        }
        let (a, b) = (self.prefix(lane, r.start), self.prefix(lane, r.end));
        for (k, t) in ticks.iter_mut().enumerate() {
            *t = b[k] - a[k];
        }
        // The window cuts into the first and last interval only.
        let (first, last) = (lane[r.start], lane[r.end - 1]);
        ticks[first.kind.index()] -= t0.saturating_sub(first.start_tb);
        ticks[last.kind.index()] -= last.end_tb.saturating_sub(t1);
        ticks
    }
}

fn wait_kind(code: EventCode) -> Option<ActivityKind> {
    match code {
        EventCode::SpeTagWaitBegin => Some(ActivityKind::DmaWait),
        EventCode::SpeMboxReadBegin => Some(ActivityKind::MboxWait),
        EventCode::SpeSignalReadBegin => Some(ActivityKind::SignalWait),
        _ => None,
    }
}

fn wait_end(code: EventCode) -> bool {
    matches!(
        code,
        EventCode::SpeTagWaitEnd | EventCode::SpeMboxReadEnd | EventCode::SpeSignalReadEnd
    )
}

/// Reconstructs intervals for every SPE in the trace.
///
/// SPEs whose stream lacks a `SpeCtxStart` or `SpeStop` are skipped
/// (truncated traces); waits left open at stop are closed at the stop
/// timestamp.
pub fn build_intervals(trace: &AnalyzedTrace) -> Vec<SpeIntervals> {
    let mut out = Vec::new();
    for spe in trace.spes() {
        let events: Vec<_> = trace.core_events(TraceCore::Spe(spe)).collect();
        let Some(start) = events
            .iter()
            .find(|e| e.code == EventCode::SpeCtxStart)
            .map(|e| e.time_tb)
        else {
            continue;
        };
        let Some(stop) = events
            .iter()
            .find(|e| e.code == EventCode::SpeStop)
            .map(|e| e.time_tb)
        else {
            continue;
        };
        let mut intervals = Vec::new();
        let mut cursor = start;
        let mut open: Option<(u64, ActivityKind)> = None;
        for e in &events {
            if let Some(kind) = wait_kind(e.code) {
                if open.is_none() {
                    // Close the compute gap before the wait begins.
                    if e.time_tb > cursor {
                        intervals.push(Interval {
                            start_tb: cursor,
                            end_tb: e.time_tb,
                            kind: ActivityKind::Compute,
                        });
                    }
                    open = Some((e.time_tb, kind));
                }
            } else if wait_end(e.code) {
                if let Some((begin, kind)) = open.take() {
                    if e.time_tb > begin {
                        intervals.push(Interval {
                            start_tb: begin,
                            end_tb: e.time_tb,
                            kind,
                        });
                    }
                    cursor = e.time_tb.max(begin);
                }
            }
        }
        // A wait left open at stop (e.g. trace truncated by drops).
        if let Some((begin, kind)) = open.take() {
            if stop > begin {
                intervals.push(Interval {
                    start_tb: begin,
                    end_tb: stop,
                    kind,
                });
            }
            cursor = stop;
        }
        if stop > cursor {
            intervals.push(Interval {
                start_tb: cursor,
                end_tb: stop,
                kind: ActivityKind::Compute,
            });
        }
        out.push(SpeIntervals {
            spe,
            start_tb: start,
            stop_tb: stop,
            intervals,
        });
    }
    out
}

/// [`build_intervals`] over the columnar store: identical state
/// machine, one lane per SPE from `build_spe_intervals_columns`. The
/// session builds the lanes one shard per SPE; the row function
/// remains the differential oracle.
pub fn build_intervals_columns(trace: &ColumnarTrace) -> Vec<SpeIntervals> {
    trace
        .spes()
        .into_iter()
        .filter_map(|spe| build_spe_intervals_columns(trace, spe))
        .collect()
}

/// One SPE's lane of [`build_intervals_columns`]: the independent
/// shard unit the parallel product scheduler fans out per SPE. `None`
/// when the SPE lacks the `SpeCtxStart`/`SpeStop` lifecycle pair.
///
/// The lane reads only the SPE's segment of the time and code columns:
/// the context start and stop are the first `SpeCtxStart` and
/// `SpeStop` in the code slice, and one [`LaneWalk`] pass over both
/// slices builds the intervals. The lane is reserved at its bound,
/// `2 × waits + 1` intervals (each wait begin closes at most one
/// compute interval and opens at most one wait, and the stop closes
/// the trailing compute), so it never reallocates and the pages it
/// does not fill are never touched.
pub(crate) fn build_spe_intervals_columns(trace: &ColumnarTrace, spe: u8) -> Option<SpeIntervals> {
    let seg = trace.core_slice(TraceCore::Spe(spe));
    let (times, codes) = (
        &trace.events.times()[seg.clone()],
        &trace.events.codes()[seg],
    );
    let first = |code| codes.iter().position(|&c| c == code).map(|k| times[k]);
    let start = first(EventCode::SpeCtxStart)?;
    let stop = first(EventCode::SpeStop)?;
    let waits = codes.iter().filter(|&&c| wait_kind(c).is_some()).count();
    let mut intervals = Vec::with_capacity(2 * waits + 1);
    let mut walk = LaneWalk::new(start);
    for (&time_tb, &code) in times.iter().zip(codes) {
        walk.step(time_tb, code, &mut intervals);
    }
    walk.finish(stop, &mut intervals);
    Some(SpeIntervals {
        spe,
        start_tb: start,
        stop_tb: stop,
        intervals,
    })
}

/// The per-SPE interval state machine behind
/// [`build_spe_intervals_columns`], fed one event at a time in the
/// SPE's time order. The lane is a pure function of the SPE's event
/// sequence and its first `SpeCtxStart`, so a stream still being
/// appended can grow its intervals from the tail only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneWalk {
    cursor: u64,
    open: Option<(u64, ActivityKind)>,
}

impl LaneWalk {
    /// A walk whose first compute interval starts at the context start.
    pub(crate) fn new(start_tb: u64) -> Self {
        LaneWalk {
            cursor: start_tb,
            open: None,
        }
    }

    /// Consumes one event, pushing any interval it closes.
    pub(crate) fn step(&mut self, time_tb: u64, code: EventCode, out: &mut Vec<Interval>) {
        if let Some(kind) = wait_kind(code) {
            if self.open.is_none() {
                if time_tb > self.cursor {
                    out.push(Interval {
                        start_tb: self.cursor,
                        end_tb: time_tb,
                        kind: ActivityKind::Compute,
                    });
                }
                self.open = Some((time_tb, kind));
            }
        } else if wait_end(code) {
            if let Some((begin, kind)) = self.open.take() {
                if time_tb > begin {
                    out.push(Interval {
                        start_tb: begin,
                        end_tb: time_tb,
                        kind,
                    });
                }
                self.cursor = time_tb.max(begin);
            }
        }
    }

    /// Closes the lane at the context stop: a wait left open ends
    /// there, and the trailing compute runs up to it.
    pub(crate) fn finish(mut self, stop_tb: u64, out: &mut Vec<Interval>) {
        if let Some((begin, kind)) = self.open.take() {
            if stop_tb > begin {
                out.push(Interval {
                    start_tb: begin,
                    end_tb: stop_tb,
                    kind,
                });
            }
            self.cursor = stop_tb;
        }
        if stop_tb > self.cursor {
            out.push(Interval {
                start_tb: self.cursor,
                end_tb: stop_tb,
                kind: ActivityKind::Compute,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::GlobalEvent;
    use pdt::{TraceHeader, VERSION};

    fn trace_of(events: Vec<(u64, EventCode)>) -> AnalyzedTrace {
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
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (t, code))| GlobalEvent {
                    time_tb: t,
                    core: TraceCore::Spe(0),
                    code,
                    params: vec![0; 4],
                    stream_seq: i as u64,
                })
                .collect(),
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    #[test]
    fn waits_and_compute_partition_active_time() {
        use EventCode::*;
        let t = trace_of(vec![
            (100, SpeCtxStart),
            (100, SpeDmaGet),
            (110, SpeTagWaitBegin),
            (150, SpeTagWaitEnd),
            (180, SpeMboxReadBegin),
            (200, SpeMboxReadEnd),
            (300, SpeStop),
        ]);
        let iv = build_intervals(&t);
        assert_eq!(iv.len(), 1);
        let s = &iv[0];
        assert_eq!(s.active(), 200);
        assert_eq!(s.total(ActivityKind::DmaWait), 40);
        assert_eq!(s.total(ActivityKind::MboxWait), 20);
        assert_eq!(s.total(ActivityKind::Compute), 140);
        // Intervals tile [start, stop) without gaps or overlaps.
        let mut cursor = s.start_tb;
        for i in &s.intervals {
            assert_eq!(i.start_tb, cursor);
            cursor = i.end_tb;
        }
        assert_eq!(cursor, s.stop_tb);
        let u = s.utilization();
        assert!((u - 0.7).abs() < 1e-12, "utilization {u}");
    }

    #[test]
    fn zero_length_waits_vanish() {
        use EventCode::*;
        let t = trace_of(vec![
            (10, SpeCtxStart),
            (20, SpeTagWaitBegin),
            (20, SpeTagWaitEnd),
            (50, SpeStop),
        ]);
        let s = &build_intervals(&t)[0];
        assert_eq!(s.total(ActivityKind::DmaWait), 0);
        assert_eq!(s.total(ActivityKind::Compute), 40);
    }

    #[test]
    fn open_wait_is_closed_at_stop() {
        use EventCode::*;
        let t = trace_of(vec![
            (0, SpeCtxStart),
            (10, SpeSignalReadBegin),
            (90, SpeStop),
        ]);
        let s = &build_intervals(&t)[0];
        assert_eq!(s.total(ActivityKind::SignalWait), 80);
        assert_eq!(s.total(ActivityKind::Compute), 10);
    }

    #[test]
    fn stream_without_lifecycle_is_skipped() {
        use EventCode::*;
        let t = trace_of(vec![(10, SpeUser)]);
        assert!(build_intervals(&t).is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ActivityKind::DmaWait.label(), "dma-wait");
        assert_eq!(ActivityKind::Compute.label(), "compute");
    }

    #[test]
    fn columnar_intervals_match_row_intervals() {
        use EventCode::*;
        for events in [
            vec![
                (100, SpeCtxStart),
                (110, SpeTagWaitBegin),
                (150, SpeTagWaitEnd),
                (180, SpeMboxReadBegin),
                (200, SpeMboxReadEnd),
                (300, SpeStop),
            ],
            vec![(0, SpeCtxStart), (10, SpeSignalReadBegin), (90, SpeStop)],
            vec![(10, SpeUser)],
            vec![],
        ] {
            let t = trace_of(events);
            let cols = crate::columns::ColumnarTrace::from_analyzed(&t);
            assert_eq!(build_intervals_columns(&cols), build_intervals(&t));
        }
    }

    #[test]
    fn clip_trims_and_tiles() {
        use EventCode::*;
        let t = trace_of(vec![
            (100, SpeCtxStart),
            (110, SpeTagWaitBegin),
            (150, SpeTagWaitEnd),
            (300, SpeStop),
        ]);
        let s = &build_intervals(&t)[0];
        // Window straddling the wait and part of the compute tail.
        let c = s.clip(120, 200);
        assert_eq!(c.start_tb, 120);
        assert_eq!(c.stop_tb, 200);
        assert_eq!(c.total(ActivityKind::DmaWait), 30);
        assert_eq!(c.total(ActivityKind::Compute), 50);
        let mut cursor = c.start_tb;
        for i in &c.intervals {
            assert_eq!(i.start_tb, cursor);
            cursor = i.end_tb;
        }
        assert_eq!(cursor, c.stop_tb);
        // Window entirely outside the active span is empty.
        let empty = s.clip(400, 500);
        assert_eq!(empty.active(), 0);
        assert!(empty.intervals.is_empty());
    }
}
