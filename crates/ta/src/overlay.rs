//! Live-tail epochs: a closed *base* plus per-stream *overlays*.
//!
//! Both trace containers store their streams end to end, so while a
//! file is still being written exactly one stream is growing and every
//! stream before it is complete. [`IngestSession`](crate::IngestSession)
//! keeps the complete streams merged in a base store
//! with a full [`TraceIndex`], and each stream that is still open as a
//! [`StreamRun`]: its placed events in stream order, in columns, with
//! per-core offsets and its SPE lane grown from the tail only. The base
//! is core-major like every store, so folding runs into it merges only
//! the cores they share with it.
//!
//! An [`Overlay`] epoch is the base plus a frozen view of every run.
//! [`Overlay::summarize`] answers a window from the base index and a
//! binary search per overlay core, so a poll costs O(tail) instead of
//! O(trace). Every other product gets the merged store from
//! [`Overlay::columns`], one linear per-core merge memoized in the
//! epoch.
//!
//! The decomposition is exact only while every stream owns its events:
//! no two streams share an SPE core or both carry PPE threads, and
//! each core's times run forward within its stream. The session checks
//! both before it hands out an overlay epoch and otherwise merges the
//! epoch up front.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use pdt::{EventCode, TraceCore};

use crate::columns::{ColumnarTrace, EventColumns};
use crate::index::{SuspectRange, TraceIndex, WindowActivity, WindowSummary};
use crate::intervals::{Interval, LaneCheckpoints, LaneWalk};
use crate::oneshot::upper_bound;

/// One core's events within a run: offsets into the run's columns and
/// the core's latest time (carried into a continuation).
#[derive(Debug, Clone)]
struct RunCore {
    core: TraceCore,
    offsets: Vec<u32>,
    last_tb: u64,
}

/// One stream's placed events in stream order, as columns — the open
/// stream of a live-tail session, or the preview tail of one epoch.
#[derive(Debug, Clone)]
pub(crate) struct StreamRun {
    stream: usize,
    core: TraceCore,
    events: EventColumns,
    /// Tag-sorted cores with at least one event here (or, in a
    /// continuation, carried from the run it continues).
    cores: Vec<RunCore>,
    /// Every core's times are non-decreasing and every event belongs to
    /// the stream's own core class: the overlay decomposition holds.
    ordered: bool,
    span: Option<(u64, u64)>,
    lane: RunLane,
}

/// An SPE run's interval state: the lifecycle bounds seen so far and
/// the intervals the walk has closed, checkpointed as the index's
/// lanes are.
#[derive(Debug, Clone, Default)]
struct RunLane {
    track: bool,
    ctx_start: Option<u64>,
    stop: Option<u64>,
    /// Started at the first `SpeCtxStart`, over every event since the
    /// run's first.
    walk: Option<LaneWalk>,
    intervals: Vec<Interval>,
    checkpoints: LaneCheckpoints,
    /// Checkpoints written so far.
    writes: usize,
}

impl RunLane {
    fn push_interval(&mut self, iv: Interval) {
        self.intervals.push(iv);
        self.writes += self
            .checkpoints
            .update(&self.intervals, self.intervals.len() - 1);
    }
}

impl StreamRun {
    /// An empty run for stream `stream` recorded by `core`.
    pub(crate) fn new(stream: usize, core: TraceCore) -> Self {
        StreamRun {
            stream,
            core,
            events: EventColumns::with_capacity(0),
            cores: Vec::new(),
            ordered: true,
            span: None,
            lane: RunLane {
                track: core.is_spe(),
                ..RunLane::default()
            },
        }
    }

    /// An empty run continuing this one: the events an epoch places
    /// past it (its preview tail). Ordering checks continue across the
    /// boundary; the lane is combined by [`Part::new`].
    pub(crate) fn continuation(&self) -> Self {
        let mut tail = StreamRun::new(self.stream, self.core);
        tail.lane.track = false;
        tail.cores = self
            .cores
            .iter()
            .map(|c| RunCore {
                core: c.core,
                offsets: Vec::new(),
                last_tb: c.last_tb,
            })
            .collect();
        tail.ordered = self.ordered;
        tail
    }

    /// Events in the run.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends the stream's next placed event.
    pub(crate) fn push(
        &mut self,
        time_tb: u64,
        core: TraceCore,
        code: EventCode,
        params: &[u64],
        stream_seq: u64,
    ) {
        let i = self.events.len();
        self.events.push(time_tb, core, code, params, stream_seq);
        self.span = Some(self.span.map_or((time_tb, time_tb), |(lo, hi)| {
            (lo.min(time_tb), hi.max(time_tb))
        }));
        let own_class = match self.core {
            TraceCore::Spe(_) => core == self.core,
            TraceCore::Ppe(_) => !core.is_spe(),
        };
        let off = u32::try_from(i).unwrap_or(u32::MAX);
        self.ordered &= own_class && off != u32::MAX;
        match self
            .cores
            .binary_search_by_key(&core.tag(), |c| c.core.tag())
        {
            Ok(k) => {
                let c = &mut self.cores[k];
                self.ordered &= c.last_tb <= time_tb;
                c.offsets.push(off);
                c.last_tb = time_tb;
            }
            Err(k) => self.cores.insert(
                k,
                RunCore {
                    core,
                    offsets: vec![off],
                    last_tb: time_tb,
                },
            ),
        }
        if !self.lane.track {
            return;
        }
        let lane = &mut self.lane;
        if code == EventCode::SpeStop && lane.stop.is_none() {
            lane.stop = Some(time_tb);
        }
        if code == EventCode::SpeCtxStart && lane.ctx_start.is_none() {
            // The walk starts at the context start but covers every
            // event before it too, as the one-shot lane build does.
            lane.ctx_start = Some(time_tb);
            let mut walk = LaneWalk::new(time_tb);
            let mut closed = Vec::new();
            for k in 0..i {
                walk.step(self.events.times()[k], self.events.codes()[k], &mut closed);
            }
            lane.walk = Some(walk);
            for iv in closed {
                lane.push_interval(iv);
            }
        }
        let mut closed = Vec::new();
        if let Some(walk) = &mut lane.walk {
            walk.step(time_tb, code, &mut closed);
        }
        for iv in closed {
            lane.push_interval(iv);
        }
    }

    /// The SPE lane's checkpoints held and written so far, once the
    /// run has reached its context start.
    pub(crate) fn lane_checkpoints(&self) -> Option<(usize, usize)> {
        (self.lane.walk.is_some()).then(|| (self.lane.checkpoints.len(), self.lane.writes))
    }

    /// Time of the run's event with sequence number `seq`, if placed.
    /// Sequence numbers ascend in stream order.
    pub(crate) fn time_of_seq(&self, seq: u64) -> Option<u64> {
        let ev = &self.events;
        let at = upper_bound(0, ev.len(), |k| ev.seq(k) < seq);
        (at < ev.len() && ev.seq(at) == seq).then(|| ev.times()[at])
    }

    /// This run's events of `core` in `[t0, t1)`.
    fn count(&self, core: usize, t0: u64, t1: u64) -> u64 {
        let times = self.events.times();
        let offs = &self.cores[core].offsets;
        let lo = offs.partition_point(|&o| times[o as usize] < t0);
        let hi = offs.partition_point(|&o| times[o as usize] < t1);
        hi.saturating_sub(lo) as u64
    }

    /// Each core's run positions in `(time, stream_seq)` order, cores
    /// tag-sorted: the offsets as they stand unless a core's times went
    /// backwards.
    fn core_orders(&self) -> Vec<(u8, Cow<'_, [u32]>)> {
        let ev = &self.events;
        let key = |&k: &u32| (ev.times()[k as usize], ev.seq(k as usize));
        (self.cores.iter())
            .filter(|c| !c.offsets.is_empty())
            .map(|c| {
                let offs = &c.offsets;
                let order = if offs.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
                    Cow::Borrowed(offs.as_slice())
                } else {
                    let mut sorted = offs.clone();
                    sorted.sort_by_key(key);
                    Cow::Owned(sorted)
                };
                (c.core.tag(), order)
            })
            .collect()
    }
}

/// One stream's share of an epoch: the run as it stood at the
/// snapshot, the events the snapshot alone placed past it, and the
/// combined SPE lane when the stream has a complete lifecycle.
#[derive(Debug)]
pub(crate) struct Part {
    run: Arc<StreamRun>,
    tail: StreamRun,
    lane: Option<PartLane>,
}

/// A lane is the run's closed intervals followed by `extra`: what the
/// tail and the context stop close.
#[derive(Debug)]
struct PartLane {
    spe: u8,
    extra: Vec<Interval>,
}

impl Part {
    /// Combines `run` with its continuation `tail` (from
    /// [`StreamRun::continuation`]). Work is proportional to the tail,
    /// except once per stream when the context start itself is in the
    /// tail and the walk must cover the run from its first event.
    pub(crate) fn new(run: Arc<StreamRun>, tail: StreamRun) -> Self {
        let lane = match run.core {
            TraceCore::Spe(spe) => {
                let first = |code| {
                    (0..tail.len())
                        .find(|&k| tail.events.codes()[k] == code)
                        .map(|k| tail.events.times()[k])
                };
                let start = run.lane.ctx_start.or_else(|| first(EventCode::SpeCtxStart));
                let stop = run.lane.stop.or_else(|| first(EventCode::SpeStop));
                start.zip(stop).map(|(start, stop)| {
                    let mut extra = Vec::new();
                    let mut walk = run.lane.walk.unwrap_or_else(|| {
                        let mut w = LaneWalk::new(start);
                        for k in 0..run.len() {
                            w.step(run.events.times()[k], run.events.codes()[k], &mut extra);
                        }
                        w
                    });
                    for k in 0..tail.len() {
                        walk.step(tail.events.times()[k], tail.events.codes()[k], &mut extra);
                    }
                    walk.finish(stop, &mut extra);
                    PartLane { spe, extra }
                })
            }
            TraceCore::Ppe(_) => None,
        };
        Part { run, tail, lane }
    }

    /// The run and the tail, as merge sources.
    pub(crate) fn runs(&self) -> [&StreamRun; 2] {
        [&self.run, &self.tail]
    }

    /// Events in the part.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.tail.len()
    }

    /// The stream the part belongs to.
    pub(crate) fn stream(&self) -> usize {
        self.run.stream
    }

    /// Whether the overlay decomposition holds for the part.
    pub(crate) fn ordered(&self) -> bool {
        self.run.ordered && self.tail.ordered
    }

    /// `(first, last)` time over the part's events.
    pub(crate) fn span(&self) -> Option<(u64, u64)> {
        match (self.run.span, self.tail.span) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (a, b) => a.or(b),
        }
    }

    /// Time of the stream's event with sequence number `seq`.
    pub(crate) fn time_of_seq(&self, seq: u64) -> Option<u64> {
        self.run
            .time_of_seq(seq)
            .or_else(|| self.tail.time_of_seq(seq))
    }

    /// Per-core event counts in `[t0, t1)` over cores with events.
    fn counts(&self, t0: u64, t1: u64) -> impl Iterator<Item = (TraceCore, u64)> + '_ {
        // A continuation starts from a copy of the run's core list, so
        // the tail's list covers both.
        self.tail
            .cores
            .iter()
            .enumerate()
            .filter_map(move |(k, c)| {
                let in_run = self
                    .run
                    .cores
                    .binary_search_by_key(&c.core.tag(), |r| r.core.tag())
                    .ok();
                let events =
                    in_run.map_or(0, |r| self.run.cores[r].offsets.len()) + c.offsets.len();
                (events > 0).then(|| {
                    let n = in_run.map_or(0, |r| self.run.count(r, t0, t1));
                    (c.core, n + self.tail.count(k, t0, t1))
                })
            })
    }

    /// The lane's activity ticks in `[t0, t1)`, per kind.
    fn activity(&self, t0: u64, t1: u64) -> Option<WindowActivity> {
        let lane = self.lane.as_ref()?;
        let run = &self.run.lane;
        let mut ticks = run.checkpoints.ticks(&run.intervals, t0, t1);
        if t0 < t1 {
            for iv in &lane.extra {
                ticks[iv.kind.index()] += iv.end_tb.min(t1).saturating_sub(iv.start_tb.max(t0));
            }
        }
        Some(WindowActivity {
            spe: lane.spe,
            ticks,
        })
    }
}

/// A live-tail epoch: the closed base, its index, and one [`Part`] per
/// stream not yet merged into it. Built only when the decomposition is
/// exact (see the module docs).
#[derive(Debug)]
pub(crate) struct Overlay {
    /// Header, anchors, drop count and context names of the epoch; no
    /// events.
    pub(crate) meta: ColumnarTrace,
    pub(crate) base: Arc<ColumnarTrace>,
    /// `None` while the base is empty.
    pub(crate) base_index: Option<Arc<TraceIndex>>,
    pub(crate) parts: Vec<Part>,
    pub(crate) suspects: Vec<SuspectRange>,
    /// The merged store, built on first use.
    pub(crate) merged: OnceLock<ColumnarTrace>,
}

impl Overlay {
    /// Events in the epoch.
    pub(crate) fn len(&self) -> usize {
        self.base.events.len() + self.parts.iter().map(Part::len).sum::<usize>()
    }

    /// Exact aggregate of `[t0, t1)`, equal to
    /// [`TraceIndex::summarize`] over the merged epoch: base counts and
    /// lanes from the base index, each overlay core's count by binary
    /// search, each overlay lane's ticks from its lane checkpoints.
    pub(crate) fn summarize(&self, t0: u64, t1: u64) -> WindowSummary {
        let (mut events, mut activity) = match &self.base_index {
            Some(idx) => {
                let s = idx.summarize(&self.base, t0, t1);
                (s.events, s.activity)
            }
            None => (Vec::new(), Vec::new()),
        };
        for part in &self.parts {
            for (core, n) in part.counts(t0, t1) {
                let at = events.partition_point(|(c, _)| c.tag() < core.tag());
                events.insert(at, (core, n));
            }
            if let Some(a) = part.activity(t0, t1) {
                let at = activity.partition_point(|l| l.spe < a.spe);
                activity.insert(at, a);
            }
        }
        WindowSummary {
            start_tb: t0,
            end_tb: t1,
            events,
            activity,
            suspect: self.suspects.iter().any(|r| r.overlaps(t0, t1)),
        }
    }

    /// The epoch's merged store: base and overlays in global order,
    /// merged once, on first call.
    pub(crate) fn columns(&self) -> &ColumnarTrace {
        self.merged.get_or_init(|| {
            let runs: Vec<&StreamRun> = self.parts.iter().flat_map(Part::runs).collect();
            let (events, _) = merge(&self.base.events, None, &runs);
            self.meta.with_events(events)
        })
    }
}

/// A merge position within one core: `(time, stream_seq)`, then the
/// source stream.
type MergeKey = ((u64, u64), u32);

/// Merges the core-major `base` (whose event `i` came from stream
/// `src[i]`, or from a stream no run shares keys with when `src` is
/// `None`) with `runs` into fresh core-major columns: per core,
/// `(time, stream_seq)` order with ties broken by stream index, as the
/// one-shot placement orders them. Only a core that the base and a run
/// (or several runs) share is merged; the rest are copied. Base events
/// keep their dictionary ids; run tuples are interned once per distinct
/// id. Returns the columns and each event's source stream.
pub(crate) fn merge(
    base: &EventColumns,
    src: Option<&[u32]>,
    runs: &[&StreamRun],
) -> (EventColumns, Vec<u32>) {
    let total = base.len() + runs.iter().map(|r| r.len()).sum::<usize>();
    let mut out = base.with_dict_of(total);
    let mut out_src = Vec::with_capacity(total);
    let mut ids: Vec<Vec<u32>> = runs
        .iter()
        .map(|r| vec![u32::MAX; r.events.dict_len()])
        .collect();
    let orders: Vec<Vec<(u8, Cow<'_, [u32]>)>> = runs.iter().map(|r| r.core_orders()).collect();
    let btags = base.tags();
    let mut tags: Vec<u8> = orders.iter().flatten().map(|(t, _)| *t).collect();
    tags.extend(btags.first());
    for w in btags.windows(2).filter(|w| w[0] != w[1]) {
        tags.push(w[1]);
    }
    tags.sort_unstable();
    tags.dedup();

    let base_key = |i: usize| ((base.times()[i], base.seq(i)), src.map_or(0, |s| s[i]));
    for tag in tags {
        let lo = btags.partition_point(|&t| t < tag);
        let hi = lo + btags[lo..].partition_point(|&t| t == tag);
        // This core's positions in each run, and a cursor into each.
        let sources: Vec<(usize, &[u32])> = (orders.iter().enumerate())
            .filter_map(|(r, cores)| {
                let (_, order) = cores.iter().find(|(t, _)| *t == tag)?;
                Some((r, order.as_ref()))
            })
            .collect();
        let mut heads = vec![0usize; sources.len()];
        let run_key = |s: usize, h: usize| {
            let (r, order) = sources[s];
            let k = order[h] as usize;
            let ev = &runs[r].events;
            ((ev.times()[k], ev.seq(k)), runs[r].stream as u32)
        };
        let mut b = lo;
        loop {
            let mut best: Option<(MergeKey, usize)> = None;
            for s in 0..sources.len() {
                if heads[s] < sources[s].1.len() {
                    let k = run_key(s, heads[s]);
                    if best.is_none_or(|(bk, _)| k < bk) {
                        best = Some((k, s));
                    }
                }
            }
            // Bulk-copy base events sorting before the best run head.
            let stop = match best {
                None => hi,
                Some((lim, _)) => upper_bound(b, hi, |i| base_key(i) < lim),
            };
            for i in b..stop {
                out.push_with_id(
                    base.times()[i],
                    tag,
                    base.codes()[i],
                    base.params_id(i),
                    base.seq(i),
                );
                out_src.push(src.map_or(0, |s| s[i]));
            }
            b = stop;
            let Some((_, s)) = best else { break };
            let (r, order) = sources[s];
            let k = order[heads[s]] as usize;
            heads[s] += 1;
            let ev = &runs[r].events;
            let id = ev.params_id(k);
            let mapped = &mut ids[r][id as usize];
            if *mapped == u32::MAX {
                *mapped = out.intern_params(ev.dict_params(id));
            }
            out.push_with_id(ev.times()[k], tag, ev.codes()[k], *mapped, ev.seq(k));
            out_src.push(runs[r].stream as u32);
        }
    }
    (out, out_src)
}
