//! `ta::hb` — the happens-before race engine.
//!
//! The `dma-race` heuristic (half-open tag-wait windows, PR 4) is a
//! timing pattern-matcher: it misses races that coincidental timing
//! hides inside one wait window and flags overlaps that mailbox or
//! signal traffic actually orders. This module replaces it with a
//! sound ordering analysis in the ThreadSanitizer tradition: every
//! stream (SPE or PPE) gets an epoch-based [`VecClock`], clocks
//! advance along program order and join across the synchronization
//! edges [`sync_edges_columns`](crate::causality::sync_edges_columns)
//! proves (context starts, mailbox FIFO pairs, signal-notify pairs),
//! and two overlapping DMA accesses race exactly when neither is
//! ordered before the other.
//!
//! ## What orders what
//!
//! | mechanism | scope | effect |
//! |-----------|-------|--------|
//! | `SpeTagWaitEnd` covering a transfer's tag | own stream | the transfer is complete at the wait; later issues on any stream that *observes* the wait (via clocks) are ordered after it |
//! | `SpeDmaBarrier` | own MFC queue | every transfer issued before the barrier completes before any command issued after it |
//! | mailbox / signal / ctx-start edges | cross-stream | propagate completion knowledge between streams |
//!
//! Within one tag group the MFC orders *nothing* absent a wait or
//! barrier — two same-tag transfers on overlapping bytes race, which
//! the window heuristic can never report (it skips same-tag pairs).
//!
//! ## Conservatism
//!
//! The clock relation under-approximates true happens-before: a
//! completion witness is only a *direct* covering `SpeTagWaitEnd`
//! (barrier-transitive completion affects intra-stream ordering only),
//! and damaged traces drop sync edges rather than guess at pairings.
//! Losing an edge can only lose orderings, i.e. add findings, never
//! hide a true race. When clock-skewed streams force the propagation
//! to break a cycle, the index is marked [`degraded`](HbIndex::degraded)
//! and every finding downgrades to suspect.
//!
//! ## Access model
//!
//! A `GET` writes local store and reads main memory; a `PUT` reads
//! local store and writes main memory. Local-store pairs are per-SPE
//! (the simulator does not model cross-SPE LS-mapped DMA); effective-
//! address pairs are global. List DMAs scatter their EA side, so they
//! participate in the LS check only. PPE-side proxy DMA is not
//! reconstructed (matching the window heuristic).

use std::ops::Range;
use std::sync::OnceLock;

use pdt::{EventCode, EventGroup, TraceCore};

use crate::causality::{store_sync_edges, CausalEdge};
use crate::columns::ColumnarTrace;
use crate::index::{IntervalTree, Span};

/// An epoch-based vector clock: component `i` is the number of events
/// of stream `i` known to have happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecClock(Vec<u32>);

impl VecClock {
    /// The zero clock over `width` streams.
    pub fn new(width: usize) -> Self {
        VecClock(vec![0; width])
    }

    /// Number of stream components.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// Component `i` (0 when out of range, so narrower clocks compare
    /// as if zero-extended).
    pub fn get(&self, i: usize) -> u32 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// Sets component `i`.
    pub fn set(&mut self, i: usize, v: u32) {
        if i < self.0.len() {
            self.0[i] = v;
        }
    }

    /// Element-wise maximum, in place: afterwards `self` dominates both
    /// operands' prior values.
    pub fn join(&mut self, other: &VecClock) {
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }

    /// True when every component of `self` is ≥ the matching component
    /// of `other`.
    pub fn dominates(&self, other: &VecClock) -> bool {
        let w = self.width().max(other.width());
        (0..w).all(|i| self.get(i) >= other.get(i))
    }
}

/// Kahn-style worklist propagation of per-stream clocks over the sync
/// edges, whose endpoints are store positions. A single time-ordered
/// pass would be wrong — SPE decrementers skew, so an edge's `later`
/// endpoint can carry an *earlier* timestamp — so instead each stream
/// advances while the producers of its next stop's incoming edges have
/// been processed, round-robin until every stream drains.
///
/// Only the *stops* are stepped: the events with an incoming or an
/// outgoing edge. Between stops a stream's clock changes only in its
/// own component (an event at stream position `p` has own epoch
/// `p + 1`) and every other event is always ready, so the blocked
/// states, the cycle breaks and every clock are those of stepping each
/// event, at O(stops × streams) instead of O(events).
fn propagate(trace: &ColumnarTrace, edges: &[CausalEdge]) -> StopClocks {
    let mut p = Propagation::new(trace, edges);
    let streams = p.cursors.len();
    loop {
        let mut progressed = false;
        for si in 0..streams {
            while p.ready(si) {
                p.process(si);
                progressed = true;
            }
        }
        if progressed {
            continue;
        }
        // No stream can advance. When one is unfinished, every such
        // stream is blocked on an unprocessed producer: a cycle
        // through the edge set. Break it at the lowest-tag blocked
        // stream (deterministic), joining only the producers that
        // *have* released — losing a join loses orderings, which can
        // only add (suspect) findings.
        let Some(si) = (0..streams).find(|&s| p.cursors[s] < p.ends[s]) else {
            return p.clocks;
        };
        p.process(si);
        p.clocks.degraded = true;
    }
}

/// The clocks of one [`propagate`] run, kept only where they change:
/// one `width`-wide row per stop.
pub(crate) struct StopClocks {
    width: usize,
    /// Every edge endpoint's store position, ascending, so each
    /// stream's stops are one run of it, in stream order.
    stops: Vec<u32>,
    /// Row `k` is the clock of stop `k`'s stream right after stop `k`,
    /// its own epoch included.
    rows: Vec<u32>,
    /// A cycle in the edge set forced progress by ignoring an
    /// unprocessed producer.
    degraded: bool,
    /// Stops processed, each once.
    pub(crate) steps: usize,
}

impl StopClocks {
    /// Component `of` of the clock right after store event `i`, whose
    /// stream's segment starts at `seg_start`, for `of` another stream:
    /// the row of the stream's last stop at or before `i` (zero before
    /// its first stop).
    fn other(&self, seg_start: usize, i: usize, of: usize) -> u32 {
        match self.stops.partition_point(|&s| s as usize <= i) {
            k if k > 0 && self.stops[k - 1] as usize >= seg_start => {
                self.rows[(k - 1) * self.width + of]
            }
            _ => 0,
        }
    }
}

/// The state of one [`propagate`] run: the stops with their producers
/// in compressed-row form, and the rows they fill.
struct Propagation {
    /// Per stream: its segment's first store position.
    starts: Vec<usize>,
    /// Per stream: its next unprocessed stop, and the end of its stops.
    cursors: Vec<usize>,
    ends: Vec<usize>,
    /// The producers of stop `k` are the stops
    /// `producers[first[k]..first[k + 1]]`.
    first: Vec<u32>,
    producers: Vec<u32>,
    done: Vec<bool>,
    clocks: StopClocks,
}

impl Propagation {
    fn new(trace: &ColumnarTrace, edges: &[CausalEdge]) -> Self {
        let segs = trace.segments();
        let width = segs.len();
        let n = trace.events.len();
        let mut pairs: Vec<(u32, u32)> = edges
            .iter()
            .filter(|e| e.earlier < n && e.later < n)
            .map(|e| (e.later as u32, e.earlier as u32))
            .collect();
        pairs.sort_unstable();
        let mut stops: Vec<u32> = pairs.iter().flat_map(|&(l, e)| [l, e]).collect();
        stops.sort_unstable();
        stops.dedup();
        let stop = |p: u32| stops.partition_point(|&s| s < p);
        let mut first = vec![0u32; stops.len() + 1];
        for &(later, _) in &pairs {
            first[stop(later) + 1] += 1;
        }
        for k in 0..stops.len() {
            first[k + 1] += first[k];
        }
        let producers = pairs.iter().map(|&(_, e)| stop(e) as u32).collect();
        let (cursors, ends) = (segs.iter())
            .map(|(_, r)| (stop(r.start as u32), stop(r.end as u32)))
            .unzip();
        Propagation {
            starts: segs.iter().map(|(_, r)| r.start).collect(),
            cursors,
            ends,
            first,
            producers,
            done: vec![false; stops.len()],
            clocks: StopClocks {
                width,
                rows: vec![0; stops.len() * width],
                stops,
                degraded: false,
                steps: 0,
            },
        }
    }

    fn producers_of(&self, k: usize) -> &[u32] {
        &self.producers[self.first[k] as usize..self.first[k + 1] as usize]
    }

    /// Whether stream `si` has a next stop whose producers have all
    /// been processed.
    fn ready(&self, si: usize) -> bool {
        let k = self.cursors[si];
        k < self.ends[si] && self.producers_of(k).iter().all(|&j| self.done[j as usize])
    }

    /// Processes stream `si`'s next stop: the stream's clock so far
    /// (its previous stop's row), its own epoch, and the rows of the
    /// producers that have released.
    fn process(&mut self, si: usize) {
        let k = self.cursors[si];
        let c = &mut self.clocks;
        let w = c.width;
        if k > 0 && c.stops[k - 1] as usize >= self.starts[si] {
            c.rows.copy_within((k - 1) * w..k * w, k * w);
        }
        c.rows[k * w + si] = c.stops[k] - self.starts[si] as u32 + 1;
        for &j in &self.producers[self.first[k] as usize..self.first[k + 1] as usize] {
            // Only a processed producer has released its clock.
            if self.done[j as usize] {
                let j = j as usize;
                for x in 0..w {
                    c.rows[k * w + x] = c.rows[k * w + x].max(c.rows[j * w + x]);
                }
            }
        }
        c.steps += 1;
        self.done[k] = true;
        self.cursors[si] = k + 1;
    }
}

/// The full per-event clock table — the dense export the property
/// tests check the vector-clock laws (and the race enumeration)
/// against. The race engine itself reads clocks at stops only
/// ([`HbIndex::build`]).
#[derive(Debug)]
pub struct ClockTable {
    clocks: Vec<VecClock>,
    place: Vec<(usize, u32)>,
    streams: Vec<TraceCore>,
    degraded: bool,
}

/// Propagates clocks over `edges` (global-rank endpoints, as
/// [`sync_edges_columns`](crate::causality::sync_edges_columns) gives
/// them) and returns the dense table, indexed by global rank.
pub fn event_clocks(trace: &ColumnarTrace, edges: &[CausalEdge]) -> ClockTable {
    let clocks = propagate(trace, &store_sync_edges(trace, edges));
    let ranks = trace.order().ranks();
    let segs = trace.segments();
    let n = trace.events.len();
    let mut table = vec![VecClock::new(0); n];
    let mut place = vec![(0usize, 0u32); n];
    for (si, (_, seg)) in segs.iter().enumerate() {
        for (pos, i) in seg.clone().enumerate() {
            let mut vc: Vec<u32> = (0..segs.len())
                .map(|of| clocks.other(seg.start, i, of))
                .collect();
            vc[si] = pos as u32 + 1;
            let g = ranks[i] as usize;
            table[g] = VecClock(vc);
            place[g] = (si, pos as u32);
        }
    }
    ClockTable {
        clocks: table,
        place,
        streams: trace.cores(),
        degraded: clocks.degraded,
    }
}

impl ClockTable {
    /// The stream universe, tag-sorted — component `i` of every clock
    /// counts events of `streams()[i]`.
    pub fn streams(&self) -> &[TraceCore] {
        &self.streams
    }

    /// The clock after event `i` (its own epoch included).
    pub fn clock(&self, i: usize) -> &VecClock {
        &self.clocks[i]
    }

    /// `(stream index, stream position)` of event `i`.
    pub fn place(&self, i: usize) -> (usize, u32) {
        self.place[i]
    }

    /// Whether `a` happened before `b`: `b`'s clock has observed `a`'s
    /// epoch. Irreflexive by definition.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (sa, pa) = self.place[a];
        self.clocks[b].get(sa) > pa
    }

    /// True when a cycle in the edge set forced propagation to guess.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

/// Direction of a reconstructed DMA access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDir {
    /// Main storage → local store: writes LS, reads EA.
    Get,
    /// Local store → main storage: reads LS, writes EA.
    Put,
}

impl AccessDir {
    /// Uppercase mnemonic (`"GET"` / `"PUT"`).
    pub fn name(self) -> &'static str {
        match self {
            AccessDir::Get => "GET",
            AccessDir::Put => "PUT",
        }
    }
}

/// The address space a race witness collides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// One SPE's local store (the `lsa` side of both transfers).
    LocalStore,
    /// Main memory (the `ea` side of both transfers).
    MainMemory,
}

/// The half-open byte range `[lo, lo + bytes)` in `space`, its end
/// saturating at `u64::MAX`, so hostile params shorten a range
/// instead of wrapping it.
fn byte_range(space: Space, lsa: u64, ea: u64, bytes: u64) -> (u64, u64) {
    let lo = match space {
        Space::LocalStore => lsa,
        Space::MainMemory => ea,
    };
    (lo, lo.saturating_add(bytes))
}

/// One endpoint of a race: a reconstructed DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The issuing SPE.
    pub spe: u8,
    /// Transfer direction.
    pub dir: AccessDir,
    /// MFC tag group.
    pub tag: u8,
    /// Local-store address.
    pub lsa: u64,
    /// Effective (main-memory) address.
    pub ea: u64,
    /// Transfer length.
    pub bytes: u64,
    /// Issue tick.
    pub time_tb: u64,
    /// Per-stream sequence number of the issue event.
    pub seq: u64,
    /// Index of the issue event in the global order.
    pub global: usize,
}

impl Access {
    /// The half-open byte range `[lo, hi)` the access touches in
    /// `space`. The end saturates at `u64::MAX`, so hostile params
    /// shorten a range instead of wrapping it.
    pub fn range(&self, space: Space) -> (u64, u64) {
        byte_range(space, self.lsa, self.ea, self.bytes)
    }
}

/// A race the engine proved: two overlapping accesses with no ordering
/// path, plus the exact byte intersection. `first`/`second` follow the
/// global event order, so `second` is the natural diagnostic anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// Which address space the bytes collide in.
    pub space: Space,
    /// The earlier access (by global event order).
    pub first: Access,
    /// The later access.
    pub second: Access,
    /// Start of the byte intersection (in `space` addresses).
    pub lo: u64,
    /// End (exclusive) of the byte intersection.
    pub hi: u64,
    /// Both accesses share one tag group — the class of race the
    /// window heuristic structurally cannot report.
    pub same_tag: bool,
}

/// One reconstructed transfer: its stream position, the fields the
/// sweeps read and its ordering state. The full [`Access`] (issue
/// tick, sequence number, global rank) is built only for a witness.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    pub(crate) lsa: u64,
    ea: u64,
    pub(crate) bytes: u64,
    /// Position of the issue in its SPE's stream.
    pub(crate) pos: u32,
    /// First position that orders later same-queue issues after this
    /// transfer: the first covering `SpeTagWaitEnd` or the first
    /// `SpeDmaBarrier` after issue (`u32::MAX` when neither exists).
    order_pos: u32,
    /// First covering `SpeTagWaitEnd` — the only completion witness
    /// other streams can observe (`u32::MAX` when never waited).
    pub(crate) wait_pos: u32,
    pub(crate) tag: u8,
    pub(crate) dir: AccessDir,
    /// List DMA: the EA side scatters, so it joins the LS check only.
    list: bool,
}

impl Transfer {
    pub(crate) fn range(&self, space: Space) -> (u64, u64) {
        byte_range(space, self.lsa, self.ea, self.bytes)
    }

    /// Whether the transfer takes part in the `space` check: it moves
    /// bytes, and (main memory only) its EA side is one range.
    fn checked_in(&self, space: Space) -> bool {
        self.bytes > 0 && (space == Space::LocalStore || !self.list)
    }

    /// Whether a tag wait ever covered the transfer.
    pub(crate) fn waited(&self) -> bool {
        self.wait_pos != u32::MAX
    }
}

/// The direction of a DMA issue code; `None` for every other code.
fn issue_dir(code: EventCode) -> Option<AccessDir> {
    match code {
        EventCode::SpeDmaGet => Some(AccessDir::Get),
        EventCode::SpeDmaPut => Some(AccessDir::Put),
        _ => None,
    }
}

/// One SPE's DMA state, replayed once from its stream: the transfers
/// with their ordering positions, and the tag waits that covered
/// nothing. The one definition of transfer lifetimes over the columns:
/// `dma-race` (through [`HbIndex`]), `unwaited-tag-group` and
/// `wait-without-dma` read it, and the DMA statistics
/// ([`crate::stats`], [`Analysis::dma_window`]) and the occupancy
/// series ([`crate::occupancy`]) are folds over its transfers.
///
/// [`Analysis::dma_window`]: crate::session::Analysis::dma_window
#[derive(Debug, Default)]
pub(crate) struct SpeDma {
    pub(crate) spe: u8,
    /// Stream index of the SPE in the clock universe.
    stream: usize,
    /// The SPE's segment of the store: stream position `p` is store
    /// position `seg.start + p`.
    pub(crate) seg: Range<usize>,
    pub(crate) transfers: Vec<Transfer>,
    /// The transfers some wait or barrier ordered, in `order_pos`
    /// order: the sweep's expiry list.
    expiry: Vec<u32>,
    /// `SpeTagWaitBegin` events whose mask covered zero outstanding
    /// transfers: `(stream position, mask)`.
    pub(crate) vacuous_waits: Vec<(u32, u32)>,
}

impl SpeDma {
    /// Replays the SPE's DMA events in `seg` (its whole segment, or a
    /// window of it): issues, tag waits and barriers. Every other event
    /// is skipped on the code column, without reading its params.
    pub(crate) fn replay(trace: &ColumnarTrace, spe: u8, stream: usize, seg: Range<usize>) -> Self {
        let mut rec = SpeDma {
            spe,
            stream,
            seg: seg.clone(),
            ..SpeDma::default()
        };
        // The group mask knows whether this SPE recorded any DMA or
        // tag-wait event at all.
        if !trace.core_has_group(TraceCore::Spe(spe), EventGroup::SpeDma) {
            return rec;
        }
        let cols = &trace.events;
        let codes = cols.codes();
        // Unwaited transfers per tag group, with bit `t` of
        // `outstanding` set while group `t` has any. A wait mask has
        // one bit per group, so a wider tag, which only damaged params
        // produce, is never waited. `unbarriered` is the first transfer
        // no barrier has ordered yet.
        let mut pending: [Vec<u32>; 32] = Default::default();
        let mut outstanding = 0u32;
        let mut unbarriered = 0usize;
        let ts = &mut rec.transfers;
        for (pos, i) in seg.enumerate() {
            let pos = pos as u32;
            if let Some(dir) = issue_dir(codes[i]) {
                // `[ea, lsa, size, tag]`; damaged params may be short.
                let p = cols.params(i);
                if p.len() < 4 {
                    continue;
                }
                let tag = (p[3] & 0xff) as u8;
                if let Some(q) = pending.get_mut(usize::from(tag)) {
                    q.push(ts.len() as u32);
                    outstanding |= 1 << tag;
                }
                ts.push(Transfer {
                    lsa: p[1],
                    ea: p[0],
                    bytes: p[2],
                    pos,
                    order_pos: u32::MAX,
                    wait_pos: u32::MAX,
                    tag,
                    dir,
                    list: p[3] >> 8 != 0,
                });
                continue;
            }
            match codes[i] {
                EventCode::SpeTagWaitBegin => {
                    let mask = cols.params(i).first().copied().unwrap_or(0) as u32;
                    if mask & outstanding == 0 {
                        rec.vacuous_waits.push((pos, mask));
                    }
                }
                EventCode::SpeTagWaitEnd => {
                    let completed = cols.params(i).first().copied().unwrap_or(0) as u32;
                    let mut groups = completed & outstanding;
                    outstanding &= !completed;
                    while groups != 0 {
                        let tag = groups.trailing_zeros() as usize;
                        groups &= groups - 1;
                        for k in pending[tag].drain(..) {
                            let t = &mut ts[k as usize];
                            t.wait_pos = pos;
                            // Positions only grow, so the first order
                            // set is the earliest.
                            if t.order_pos == u32::MAX {
                                t.order_pos = pos;
                                rec.expiry.push(k);
                            }
                        }
                    }
                }
                EventCode::SpeDmaBarrier => {
                    // The barrier command holds the MFC queue until
                    // every earlier command completes: all still-
                    // open transfers become ordered before anything
                    // issued after this position. Transfers already
                    // waited keep their (earlier) wait position.
                    for (k, t) in ts.iter_mut().enumerate().skip(unbarriered) {
                        if t.order_pos == u32::MAX {
                            t.order_pos = pos;
                            rec.expiry.push(k as u32);
                        }
                    }
                    unbarriered = ts.len();
                }
                _ => {}
            }
        }
        rec
    }

    /// Transfer `k` as a race endpoint, its global rank computed over
    /// the segments `segs` without the order.
    fn access(
        &self,
        trace: &ColumnarTrace,
        segs: &[(TraceCore, Range<usize>)],
        k: usize,
    ) -> Access {
        let t = &self.transfers[k];
        let i = self.seg.start + t.pos as usize;
        Access {
            spe: self.spe,
            dir: t.dir,
            tag: t.tag,
            lsa: t.lsa,
            ea: t.ea,
            bytes: t.bytes,
            time_tb: trace.events.times()[i],
            seq: trace.events.seq(i),
            global: trace.rank_of(segs, i),
        }
    }
}

/// Every SPE's segment of the store as `(spe, stream index, segment)`,
/// in stream order: the per-SPE shards of a DMA replay.
pub(crate) fn spe_segments(trace: &ColumnarTrace) -> Vec<(u8, usize, Range<usize>)> {
    (trace.segments().into_iter().enumerate())
        .filter_map(|(stream, (core, seg))| match core {
            TraceCore::Spe(spe) => Some((spe, stream, seg)),
            TraceCore::Ppe(_) => None,
        })
        .collect()
}

/// The per-SPE memo cells of one DMA replay: cell `k` holds the
/// [`SpeDma`] record of the trace's `k`-th SPE (the per-SPE lint shard
/// `k`), replayed on first use by whichever reader asks first. A lint
/// run keeps one for all its rules, so every SPE is replayed once.
#[derive(Debug)]
pub(crate) struct DmaReplay<'t> {
    trace: &'t ColumnarTrace,
    /// Per SPE, in stream order: `(spe, stream index, segment, cell)`.
    cells: Vec<(u8, usize, Range<usize>, OnceLock<SpeDma>)>,
}

impl<'t> DmaReplay<'t> {
    /// Empty cells, one per SPE that recorded events.
    pub(crate) fn new(trace: &'t ColumnarTrace) -> Self {
        let cells = (spe_segments(trace).into_iter())
            .map(|(spe, stream, seg)| (spe, stream, seg, OnceLock::new()))
            .collect();
        DmaReplay { trace, cells }
    }

    /// The number of SPEs, the per-SPE shard count.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// The `k`-th SPE's record, replayed on first use (`None` past the
    /// last SPE).
    pub(crate) fn spe(&self, k: usize) -> Option<&SpeDma> {
        let (spe, stream, seg, cell) = self.cells.get(k)?;
        Some(cell.get_or_init(|| SpeDma::replay(self.trace, *spe, *stream, seg.clone())))
    }

    /// Every SPE's record, in SPE order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &SpeDma> {
        (0..self.len()).filter_map(|k| self.spe(k))
    }
}

/// The direction whose transfers write `space`: GETs write local
/// store, PUTs write main memory.
fn writer(space: Space) -> AccessDir {
    match space {
        Space::LocalStore => AccessDir::Get,
        Space::MainMemory => AccessDir::Put,
    }
}

/// Whether a pair of the given directions races in `space` when the
/// bytes overlap: at least one side writes them.
fn conflicts(space: Space, a: AccessDir, b: AccessDir) -> bool {
    a == writer(space) || b == writer(space)
}

/// Whether transfer `a`'s completion is ordered before transfer `b`'s
/// issue across streams, each given as `(record, index)`: `a` has a
/// completion witness (first covering wait-end at `wait_pos` on its own
/// stream) and `b`'s clock at its issue has observed that position.
fn completes_before(clocks: &StopClocks, a: (&SpeDma, usize), b: (&SpeDma, usize)) -> bool {
    let wait = a.0.transfers[a.1].wait_pos;
    let issue = b.0.seg.start + b.0.transfers[b.1].pos as usize;
    wait != u32::MAX && clocks.other(b.0.seg.start, issue, a.0.stream) > wait
}

/// Most keys one run of an [`OpenSet`] holds before it splits.
const RUN: usize = 64;

/// One direction's open set in a sweep: `(start, index)` keys in
/// order, as consecutive sorted runs of at most [`RUN`] keys. An open
/// set is usually a few keys in one flat run. A large one (a
/// never-waited storm) spreads over many runs, so an insert or a
/// removal moves at most one run's keys, plus the list of runs when a
/// run splits or empties.
struct OpenSet {
    /// Never empty; only a sole run may be empty.
    runs: Vec<Vec<(u64, u32)>>,
}

impl OpenSet {
    fn new() -> Self {
        OpenSet {
            runs: vec![Vec::new()],
        }
    }

    /// The run `key` belongs in: the first whose last key is not below
    /// it, else the last run.
    fn run_of(&self, key: (u64, u32)) -> usize {
        let r = (self.runs).partition_point(|run| run.last().is_some_and(|&last| last < key));
        r.min(self.runs.len() - 1)
    }

    fn insert(&mut self, key: (u64, u32)) {
        let r = self.run_of(key);
        let run = &mut self.runs[r];
        run.insert(run.partition_point(|&k| k < key), key);
        if run.len() > RUN {
            let tail = run.split_off(RUN / 2);
            self.runs.insert(r + 1, tail);
        }
    }

    fn remove(&mut self, key: (u64, u32)) {
        let r = self.run_of(key);
        let run = &mut self.runs[r];
        if let Ok(at) = run.binary_search(&key) {
            run.remove(at);
            if run.is_empty() && self.runs.len() > 1 {
                self.runs.remove(r);
            }
        }
    }

    /// The indices of the keys whose start lies in `[from, to)`, in
    /// key order.
    fn starting_in(&self, from: u64, to: u64) -> impl Iterator<Item = usize> + '_ {
        let first = (self.runs).partition_point(|run| run.last().is_some_and(|&(s, _)| s < from));
        let mut runs = self.runs[first..].iter();
        let head = runs
            .next()
            .map(|run| &run[run.partition_point(|&(s, _)| s < from)..]);
        (head.into_iter().flatten().chain(runs.flatten()))
            .take_while(move |&&(s, _)| s < to)
            .map(|&(_, j)| j as usize)
    }
}

/// The two address spaces, indexable as `space as usize`.
const SPACES: [Space; 2] = [Space::LocalStore, Space::MainMemory];

/// Walks one SPE's transfers in issue order and calls
/// `pair(space, j, i)` for every earlier transfer `j` still unordered
/// at `i`'s issue (`t.pos < order_pos`) whose `space` range overlaps
/// `i`'s, where at least one of the two writes `space`. Pairs come per
/// space and direction in `(start, index)` order of the earlier
/// transfer. Returns the number of open entries examined: the pairs
/// reported, plus per lookup the entries that start within the longest
/// range below `i` without reaching it.
fn sweep_stream(rec: &SpeDma, mut pair: impl FnMut(Space, usize, usize)) -> u64 {
    let ts = &rec.transfers;
    // The open sets: earlier transfers nothing has ordered yet, per
    // space and direction (`Get` = 0, `Put` = 1) in address order, so a
    // lookup visits only nearby entries. They leave in the record's
    // expiry order. No open range in a space is longer than its
    // `max_len`, so one starting further below a query's start cannot
    // reach it.
    let mut open = SPACES.map(|_| [OpenSet::new(), OpenSet::new()]);
    let mut expiry = rec.expiry.iter().map(|&k| k as usize).peekable();
    let mut max_len = [0u64; 2];
    let mut examined = 0u64;
    for (i, t) in ts.iter().enumerate() {
        while let Some(j) = expiry.next_if(|&j| ts[j].order_pos <= t.pos) {
            let a = &ts[j];
            for space in SPACES.into_iter().filter(|&s| a.checked_in(s)) {
                open[space as usize][a.dir as usize].remove((a.range(space).0, j as u32));
            }
        }
        for space in SPACES.into_iter().filter(|&s| t.checked_in(s)) {
            let (lo, hi) = t.range(space);
            let sets = &mut open[space as usize];
            let from = lo.saturating_sub(max_len[space as usize]);
            for dir in [AccessDir::Get, AccessDir::Put] {
                if !conflicts(space, dir, t.dir) {
                    continue;
                }
                for j in sets[dir as usize].starting_in(from, hi) {
                    examined += 1;
                    if ts[j].range(space).1 > lo {
                        pair(space, j, i);
                    }
                }
            }
            sets[t.dir as usize].insert((lo, i as u32));
            max_len[space as usize] = max_len[space as usize].max(hi - lo);
        }
    }
    examined
}

/// A half-open span an [`IntervalTree`] carries (an address range, or
/// a time window), with the index of the transfer it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeSpan {
    pub(crate) lo: u64,
    pub(crate) hi: u64,
    pub(crate) idx: u32,
}

impl Span for TreeSpan {
    fn span(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// The built race index: every proven [`RaceWitness`], grouped into
/// per-`(spe, tag)` shards of its anchor access (the order `dma-race`
/// reports them in).
#[derive(Debug, Default)]
pub struct HbIndex {
    /// Sorted distinct `(spe, tag)` pairs over *all* transfers — the
    /// shard universe. A race lands in the shard of its `second`
    /// (anchor) access.
    shards: Vec<(u8, u8)>,
    /// All races, sorted by `(shard, second.global, first.global)`.
    races: Vec<RaceWitness>,
    /// `races` range per shard.
    ranges: Vec<(usize, usize)>,
    degraded: bool,
    /// Transfer pairs the enumeration examined.
    candidates: u64,
}

impl HbIndex {
    /// Reconstructs transfers, propagates clocks over `edges` (use
    /// [`sync_edges_columns`](crate::causality::sync_edges_columns))
    /// and enumerates every unordered overlapping pair.
    ///
    /// Enumeration is output-sensitive. Pairs within one SPE (local
    /// store, and main memory on one MFC queue) come from a per-stream
    /// sweep over the transfers still unordered at each issue, so an
    /// address reused for the whole run costs nothing once its
    /// transfers are waited. Pairs across SPEs query per-stream
    /// main-memory trees of the opposite or writing direction only.
    ///
    /// `edges` have global-rank endpoints, so this builds the global
    /// order to map them to store positions; lint builds none.
    pub fn build(trace: &ColumnarTrace, edges: &[CausalEdge]) -> Self {
        Self::from_replay(&DmaReplay::new(trace), &store_sync_edges(trace, edges))
    }

    /// [`HbIndex::build`] over a lint run's shared per-SPE replay, with
    /// store-position `edges`.
    pub(crate) fn from_replay(replay: &DmaReplay<'_>, edges: &[CausalEdge]) -> Self {
        let trace = replay.trace;
        // Propagation steps the sync stops only, so it costs little
        // even on a DMA-free trace. It needs no replay and runs first,
        // while other lint shards replay the SPEs.
        let clocks = propagate(trace, edges);
        let recs: Vec<&SpeDma> = replay
            .records()
            .filter(|r| !r.transfers.is_empty())
            .collect();
        if recs.is_empty() {
            return HbIndex::default();
        }

        // Witness endpoints take their global ranks from the segments.
        let segs = trace.segments();
        let mut races: Vec<RaceWitness> = Vec::new();
        let mut candidates = 0u64;
        for rec in &recs {
            let ts = &rec.transfers;
            // Local-store pairs race when the bytes overlap, at least
            // one writes LS (a GET), and the later was issued before
            // anything ordered the earlier's completion (no covering
            // wait-end or barrier in between). Same-tag pairs are *not*
            // exempt. Main-memory pairs on one MFC queue: the same
            // position rule decides, and a pair already racing in local
            // store is one finding, not two: keep the LS witness.
            candidates += sweep_stream(rec, |space, j, k| {
                let (a, t) = (&ts[j], &ts[k]);
                let (alo, ahi) = a.range(Space::LocalStore);
                let (tlo, thi) = t.range(Space::LocalStore);
                let ls_race = alo < thi && tlo < ahi && conflicts(Space::LocalStore, a.dir, t.dir);
                if space == Space::LocalStore || !ls_race {
                    let (a, b) = (rec.access(trace, &segs, j), rec.access(trace, &segs, k));
                    races.push(witness(space, a, b));
                }
            });
        }

        // Main-memory pairs across streams: ordered only when one
        // side's completion witness is inside the other's issue clock.
        // Each stream's transfers, per direction, query the trees of
        // the streams before it, for conflicting direction pairs only
        // (never GET–GET) whose hulls meet. A tree is built on its
        // first such query, so streams on disjoint memory build none.
        let spans: Vec<[Vec<TreeSpan>; 2]> = (recs.iter())
            .map(|rec| {
                let mut spans: [Vec<TreeSpan>; 2] = Default::default();
                for (k, t) in rec.transfers.iter().enumerate() {
                    if t.checked_in(Space::MainMemory) {
                        let (lo, hi) = t.range(Space::MainMemory);
                        let idx = k as u32;
                        spans[t.dir as usize].push(TreeSpan { lo, hi, idx });
                    }
                }
                spans
            })
            .collect();
        let hull = |v: &Vec<TreeSpan>| {
            Some((v.iter().map(|x| x.lo).min()?, v.iter().map(|x| x.hi).max()?))
        };
        let hulls: Vec<[Option<(u64, u64)>; 2]> =
            spans.iter().map(|d| d.each_ref().map(hull)).collect();
        let mut trees: Vec<[Option<IntervalTree<TreeSpan>>; 2]> =
            spans.iter().map(|_| [None, None]).collect();
        let dirs = [AccessDir::Get, AccessDir::Put];
        for s in 0..recs.len() {
            for o in 0..s {
                for (my, their) in dirs.iter().flat_map(|&m| dirs.map(|t| (m, t))) {
                    let hulls_meet = match (hulls[s][my as usize], hulls[o][their as usize]) {
                        (Some((qlo, qhi)), Some((tlo, thi))) => qlo < thi && tlo < qhi,
                        _ => false,
                    };
                    if !conflicts(Space::MainMemory, my, their) || !hulls_meet {
                        continue;
                    }
                    let theirs = &spans[o][their as usize];
                    let tree = trees[o][their as usize]
                        .get_or_insert_with(|| IntervalTree::new(theirs.clone()));
                    for q in &spans[s][my as usize] {
                        for span in tree.range(q.lo, q.hi) {
                            candidates += 1;
                            let a = (recs[o], span.idx as usize);
                            let b = (recs[s], q.idx as usize);
                            if completes_before(&clocks, a, b) || completes_before(&clocks, b, a) {
                                continue;
                            }
                            let (x, y) =
                                (a.0.access(trace, &segs, a.1), b.0.access(trace, &segs, b.1));
                            let (first, second) = if x.global < y.global { (x, y) } else { (y, x) };
                            races.push(witness(Space::MainMemory, first, second));
                        }
                    }
                }
            }
        }

        // Shard universe: every (spe, tag) with at least one transfer,
        // sorted, since the records come in SPE order.
        let mut shards = Vec::new();
        for rec in &recs {
            let mut seen = [false; 256];
            for t in &rec.transfers {
                seen[usize::from(t.tag)] = true;
            }
            shards.extend(
                (0..=255u8)
                    .filter(|&tag| seen[usize::from(tag)])
                    .map(|tag| (rec.spe, tag)),
            );
        }
        // Sorting by `(spe, tag)` sorts by shard. A race's anchor is a
        // transfer, so its `(spe, tag)` is a shard and the per-shard
        // ranges cover every race.
        let shard_of = |r: &RaceWitness| (r.second.spe, r.second.tag);
        races.sort_by_key(|r| (shard_of(r), r.second.global, r.first.global));
        let ranges = (shards.iter())
            .map(|&s| {
                let lo = races.partition_point(|r| shard_of(r) < s);
                (lo, lo + races[lo..].partition_point(|r| shard_of(r) == s))
            })
            .collect();

        HbIndex {
            shards,
            races,
            ranges,
            degraded: clocks.degraded,
            candidates,
        }
    }

    /// The shard universe: sorted distinct `(spe, tag)` pairs.
    pub fn shards(&self) -> &[(u8, u8)] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The races of shard `i`, in `(second.global, first.global)`
    /// order; none past the last shard.
    pub fn races_in_shard(&self, i: usize) -> &[RaceWitness] {
        self.ranges
            .get(i)
            .map_or(&[], |&(lo, hi)| &self.races[lo..hi])
    }

    /// Every race, grouped by shard.
    pub fn races(&self) -> &[RaceWitness] {
        &self.races
    }

    /// True when propagation had to break a cycle (clock-skewed or
    /// damaged trace): verdicts are conservative, findings suspect.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The number of transfer pairs the enumeration examined: open-set
    /// entries visited by the per-stream sweeps plus cross-stream tree
    /// hits. A deterministic cost measure — it tracks transfers plus
    /// races, not how often an address is reused.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }
}

/// Builds the witness for an unordered overlapping pair; `a` precedes
/// `b` in global event order.
fn witness(space: Space, a: Access, b: Access) -> RaceWitness {
    let (alo, ahi) = a.range(space);
    let (blo, bhi) = b.range(space);
    RaceWitness {
        space,
        first: a,
        second: b,
        lo: alo.max(blo),
        hi: ahi.min(bhi),
        same_tag: a.tag == b.tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use crate::causality::sync_edges_columns;
    use crate::loss::LossReport;
    use pdt::{TraceHeader, VERSION};

    fn header(spes: u8) -> TraceHeader {
        TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: spes,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        }
    }

    fn ev(t: u64, core: TraceCore, code: EventCode, params: Vec<u64>, seq: u64) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core,
            code,
            params,
            stream_seq: seq,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dma(
        t: u64,
        core: TraceCore,
        code: EventCode,
        ea: u64,
        lsa: u64,
        size: u64,
        tag: u64,
        seq: u64,
    ) -> GlobalEvent {
        ev(t, core, code, vec![ea, lsa, size, tag], seq)
    }

    fn cols(events: Vec<GlobalEvent>, spes: u8) -> ColumnarTrace {
        ColumnarTrace::from_analyzed(&AnalyzedTrace {
            header: header(spes),
            events,
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        })
    }

    fn build(c: &ColumnarTrace) -> HbIndex {
        HbIndex::build(c, &sync_edges_columns(c, &LossReport::default()))
    }

    #[test]
    fn same_tag_overlap_without_wait_races() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        let c = cols(
            vec![
                dma(10, s, SpeDmaGet, 0x100000, 0x1000, 4096, 0, 0),
                dma(20, s, SpeDmaGet, 0x200000, 0x1000, 4096, 0, 1),
                ev(30, s, SpeTagWaitBegin, vec![1, 0], 2),
                ev(40, s, SpeTagWaitEnd, vec![1], 3),
            ],
            1,
        );
        let idx = build(&c);
        assert_eq!(idx.races().len(), 1, "{:?}", idx.races());
        let r = &idx.races()[0];
        assert!(r.same_tag);
        assert_eq!(r.space, Space::LocalStore);
        assert_eq!((r.lo, r.hi), (0x1000, 0x2000));
        assert_eq!(r.second.seq, 1);
        assert!(!idx.degraded());
    }

    #[test]
    fn wait_between_same_tag_transfers_orders_them() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        let c = cols(
            vec![
                dma(10, s, SpeDmaGet, 0x100000, 0x1000, 4096, 0, 0),
                ev(20, s, SpeTagWaitBegin, vec![1, 0], 1),
                ev(30, s, SpeTagWaitEnd, vec![1], 2),
                dma(40, s, SpeDmaGet, 0x200000, 0x1000, 4096, 0, 3),
                ev(50, s, SpeTagWaitBegin, vec![1, 0], 4),
                ev(60, s, SpeTagWaitEnd, vec![1], 5),
            ],
            1,
        );
        assert!(build(&c).races().is_empty());
    }

    #[test]
    fn dma_barrier_orders_across_tags() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        // PUT tag 0, barrier, GET tag 1 into the same buffer: the
        // window heuristic (no barrier knowledge) flags this; the
        // engine sees the queue ordering.
        let c = cols(
            vec![
                dma(10, s, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 0),
                ev(20, s, SpeDmaBarrier, vec![], 1),
                dma(30, s, SpeDmaGet, 0x200000, 0x1000, 4096, 1, 2),
                ev(40, s, SpeTagWaitBegin, vec![0b11, 0], 3),
                ev(50, s, SpeTagWaitEnd, vec![0b11], 4),
            ],
            1,
        );
        assert!(build(&c).races().is_empty());
        // Without the barrier the same shape races.
        let c = cols(
            vec![
                dma(10, s, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 0),
                dma(30, s, SpeDmaGet, 0x200000, 0x1000, 4096, 1, 1),
                ev(40, s, SpeTagWaitBegin, vec![0b11, 0], 2),
                ev(50, s, SpeTagWaitEnd, vec![0b11], 3),
            ],
            1,
        );
        assert_eq!(build(&c).races().len(), 1);
    }

    #[test]
    fn cross_spe_ea_writes_race_without_sync_path() {
        use EventCode::*;
        let s0 = TraceCore::Spe(0);
        let s1 = TraceCore::Spe(1);
        let c = cols(
            vec![
                dma(10, s0, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 0),
                ev(20, s0, SpeTagWaitBegin, vec![1, 0], 1),
                ev(30, s0, SpeTagWaitEnd, vec![1], 2),
                dma(40, s1, SpeDmaPut, 0x100800, 0x1000, 4096, 0, 0),
                ev(50, s1, SpeTagWaitBegin, vec![1, 0], 1),
                ev(60, s1, SpeTagWaitEnd, vec![1], 2),
            ],
            2,
        );
        let idx = build(&c);
        assert_eq!(idx.races().len(), 1, "{:?}", idx.races());
        let r = &idx.races()[0];
        assert_eq!(r.space, Space::MainMemory);
        assert_eq!((r.lo, r.hi), (0x100800, 0x101000));
        assert_eq!((r.first.spe, r.second.spe), (0, 1));
    }

    #[test]
    fn mailbox_edge_orders_cross_spe_ea_overlap() {
        use EventCode::*;
        let p = TraceCore::Ppe(0);
        let s0 = TraceCore::Spe(0);
        let s1 = TraceCore::Spe(1);
        // SPE0 PUTs and waits, tells the PPE; the PPE forwards to
        // SPE1, which only then PUTs the same range: ordered.
        let c = cols(
            vec![
                dma(10, s0, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 0),
                ev(20, s0, SpeTagWaitBegin, vec![1, 0], 1),
                ev(30, s0, SpeTagWaitEnd, vec![1], 2),
                ev(40, s0, SpeMboxWrite, vec![1], 3),
                ev(50, p, PpeMboxRead, vec![0, 1], 0),
                ev(60, p, PpeMboxWrite, vec![1, 1], 1),
                ev(70, s1, SpeMboxReadBegin, vec![], 0),
                ev(80, s1, SpeMboxReadEnd, vec![1], 1),
                dma(90, s1, SpeDmaPut, 0x100800, 0x1000, 4096, 0, 2),
                ev(100, s1, SpeTagWaitBegin, vec![1, 0], 3),
                ev(110, s1, SpeTagWaitEnd, vec![1], 4),
            ],
            2,
        );
        let mut c = c;
        c.set_anchors(vec![
            crate::analyze::SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 0,
                dec_start: u32::MAX,
            },
            crate::analyze::SpeAnchor {
                spe: 1,
                ctx: 1,
                run_tb: 0,
                dec_start: u32::MAX,
            },
        ]);
        let idx = build(&c);
        assert!(idx.races().is_empty(), "{:?}", idx.races());
        // Drop SPE0's wait (no completion witness): the same mailbox
        // hop no longer orders the *transfer*, only the issue.
        let c2 = cols(
            vec![
                dma(10, s0, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 0),
                ev(40, s0, SpeMboxWrite, vec![1], 1),
                ev(50, p, PpeMboxRead, vec![0, 1], 0),
                ev(60, p, PpeMboxWrite, vec![1, 1], 1),
                ev(70, s1, SpeMboxReadBegin, vec![], 0),
                ev(80, s1, SpeMboxReadEnd, vec![1], 1),
                dma(90, s1, SpeDmaPut, 0x100800, 0x1000, 4096, 0, 2),
                ev(100, s1, SpeTagWaitBegin, vec![1, 0], 3),
                ev(110, s1, SpeTagWaitEnd, vec![1], 4),
            ],
            2,
        );
        let mut c2 = c2;
        c2.set_anchors(vec![
            crate::analyze::SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 0,
                dec_start: u32::MAX,
            },
            crate::analyze::SpeAnchor {
                spe: 1,
                ctx: 1,
                run_tb: 0,
                dec_start: u32::MAX,
            },
        ]);
        assert_eq!(build(&c2).races().len(), 1);
    }

    #[test]
    fn short_params_keep_their_issue_clock_rows() {
        use EventCode::*;
        let p = TraceCore::Ppe(0);
        let s0 = TraceCore::Spe(0);
        let s1 = TraceCore::Spe(1);
        // As the mailbox case: SPE0's waited PUT is ordered before
        // SPE1's PUT of the same range. SPE1 also issues a PUT with
        // damaged (short) params before the mailbox read; it is no
        // transfer, but its issue clock row comes first, so reading
        // the real PUT's clock from the wrong row would report a race.
        let mut c = cols(
            vec![
                dma(10, s0, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 0),
                ev(20, s0, SpeTagWaitBegin, vec![1, 0], 1),
                ev(30, s0, SpeTagWaitEnd, vec![1], 2),
                ev(40, s0, SpeMboxWrite, vec![1], 3),
                ev(50, p, PpeMboxRead, vec![0, 1], 0),
                ev(60, p, PpeMboxWrite, vec![1, 1], 1),
                ev(65, s1, SpeDmaPut, vec![0x100800, 0x1000], 0),
                ev(70, s1, SpeMboxReadBegin, vec![], 1),
                ev(80, s1, SpeMboxReadEnd, vec![1], 2),
                dma(90, s1, SpeDmaPut, 0x100800, 0x1000, 4096, 0, 3),
                ev(100, s1, SpeTagWaitBegin, vec![1, 0], 4),
                ev(110, s1, SpeTagWaitEnd, vec![1], 5),
            ],
            2,
        );
        c.set_anchors(
            (0..2)
                .map(|spe| crate::analyze::SpeAnchor {
                    spe,
                    ctx: u32::from(spe),
                    run_tb: 0,
                    dec_start: u32::MAX,
                })
                .collect(),
        );
        let idx = build(&c);
        assert!(idx.races().is_empty(), "{:?}", idx.races());
    }

    #[test]
    fn list_dma_skips_ea_check_but_keeps_ls_check() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        // params[3] high bits mark a list DMA: its EA side scatters.
        let c = cols(
            vec![
                dma(10, s, SpeDmaPut, 0x100000, 0x1000, 4096, 0x100, 0),
                dma(20, s, SpeDmaPut, 0x100000, 0x3000, 4096, 1, 1),
                ev(30, s, SpeTagWaitBegin, vec![0b11, 0], 2),
                ev(40, s, SpeTagWaitEnd, vec![0b11], 3),
            ],
            1,
        );
        // Disjoint LS, overlapping EA, but the first is a list DMA:
        // nothing to report.
        assert!(build(&c).races().is_empty());
        // Overlapping LS still checks (GET writes LS).
        let c = cols(
            vec![
                dma(10, s, SpeDmaGet, 0x100000, 0x1000, 4096, 0x100, 0),
                dma(20, s, SpeDmaGet, 0x200000, 0x1000, 4096, 1, 1),
                ev(30, s, SpeTagWaitBegin, vec![0b11, 0], 2),
                ev(40, s, SpeTagWaitEnd, vec![0b11], 3),
            ],
            1,
        );
        assert_eq!(build(&c).races().len(), 1);
    }

    #[test]
    fn shard_grouping_concatenates_to_all_races() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        let c = cols(
            vec![
                dma(10, s, SpeDmaGet, 0x100000, 0x1000, 4096, 0, 0),
                dma(20, s, SpeDmaGet, 0x200000, 0x1800, 4096, 1, 1),
                dma(30, s, SpeDmaGet, 0x300000, 0x2000, 4096, 2, 2),
                ev(40, s, SpeTagWaitBegin, vec![0b111, 0], 3),
                ev(50, s, SpeTagWaitEnd, vec![0b111], 4),
            ],
            1,
        );
        let idx = build(&c);
        assert_eq!(idx.shards(), &[(0, 0), (0, 1), (0, 2)]);
        let concat: Vec<RaceWitness> = (0..idx.shard_count())
            .flat_map(|i| idx.races_in_shard(i).iter().copied())
            .collect();
        assert_eq!(concat, idx.races());
        // Pairs (tag0, tag1) and (tag1, tag2) overlap; tag0/tag2 are
        // adjacent. Each race lands in its second access's shard.
        assert_eq!(idx.races().len(), 2, "{:?}", idx.races());
        assert_eq!(idx.races_in_shard(0).len(), 0);
        assert_eq!(idx.races_in_shard(1).len(), 1);
        assert_eq!(idx.races_in_shard(2).len(), 1);
    }

    #[test]
    fn clock_table_orders_mailbox_chain() {
        use EventCode::*;
        let p = TraceCore::Ppe(0);
        let s = TraceCore::Spe(0);
        let mut c = cols(
            vec![
                ev(10, p, PpeCtxRun, vec![0, 0, u32::MAX as u64], 0),
                ev(20, s, SpeCtxStart, vec![0], 0),
                ev(30, p, PpeMboxWrite, vec![0, 7], 1),
                ev(40, s, SpeMboxReadBegin, vec![], 1),
                ev(50, s, SpeMboxReadEnd, vec![7], 2),
            ],
            1,
        );
        c.set_anchors(vec![crate::analyze::SpeAnchor {
            spe: 0,
            ctx: 0,
            run_tb: 10,
            dec_start: u32::MAX,
        }]);
        let t = assert_clocks_match_dense(&c);
        assert!(!t.degraded());
        // Two edges, four endpoints: four stops, each stepped once.
        let store = crate::causality::sync_edges_store(&c, &LossReport::default());
        assert_eq!(propagate(&c, &store).steps, 4);
        // Write (global 2) happens before read-end (global 4), not the
        // reverse; read-begin (3) is unordered with the write.
        assert!(t.happens_before(2, 4));
        assert!(!t.happens_before(4, 2));
        assert!(!t.happens_before(2, 3));
        assert!(t.happens_before(0, 1), "ctx-run precedes ctx-start");
        assert!(!t.happens_before(2, 2), "irreflexive");
    }

    #[test]
    fn hostile_params_saturate_instead_of_overflowing() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        let near = u64::MAX - 8;
        let c = cols(
            vec![
                dma(10, s, SpeDmaGet, near, near, 4096, 0, 0),
                // Tag 33 is outside the 32 MFC groups: no mask covers it.
                dma(20, s, SpeDmaGet, near, near, 4096, 33, 1),
                // Both ranges start at the top: empty once saturated.
                dma(30, s, SpeDmaPut, u64::MAX, u64::MAX, u64::MAX, 1, 2),
                ev(40, s, SpeTagWaitBegin, vec![u64::MAX, 0], 3),
                ev(50, s, SpeTagWaitEnd, vec![u64::MAX], 4),
            ],
            1,
        );
        let idx = build(&c);
        assert_eq!(idx.races().len(), 1, "{:?}", idx.races());
        let r = &idx.races()[0];
        assert_eq!(r.space, Space::LocalStore);
        assert_eq!((r.lo, r.hi), (near, u64::MAX));
        assert_eq!(r.first.range(Space::MainMemory), (near, u64::MAX));
    }

    /// Sorts per-stream event lists into one globally ordered trace.
    fn merged(mut events: Vec<GlobalEvent>, spes: u8) -> ColumnarTrace {
        events.sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
        cols(events, spes)
    }

    /// The complexity guard: the pairs examined stay within a constant
    /// factor of transfers plus races.
    fn assert_output_sensitive(idx: &HbIndex, transfers: usize) {
        let bound = 4 * (transfers + idx.races().len()) as u64;
        assert!(
            idx.candidates() <= bound,
            "{} candidates for {transfers} transfers and {} races",
            idx.candidates(),
            idx.races().len()
        );
    }

    #[test]
    fn double_buffered_spe_costs_linear_candidates() {
        use EventCode::*;
        // Two reused LS buffers for the whole run, every reuse waited:
        // the address is shared by 10K transfers per buffer, none race.
        let s = TraceCore::Spe(0);
        let buf = |b: u64| 0x4000 + 0x4000 * b;
        let ea_in = |k: u64| 0x1000_0000 + (k % 256) * 0x4000;
        let ea_out = |k: u64| 0x8000_0000 + (k % 256) * 0x4000;
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut push = |code, params: Vec<u64>| {
            events.push(ev(10 * seq, s, code, params, seq));
            seq += 1;
        };
        push(SpeDmaGet, vec![ea_in(0), buf(0), 0x4000, 0]);
        let iterations = 10_000u64;
        for i in 0..iterations {
            let (cur, nxt) = (i & 1, 1 - (i & 1));
            if i >= 1 {
                push(SpeTagWaitEnd, vec![1 << nxt]);
            }
            push(SpeDmaGet, vec![ea_in(i + 1), buf(nxt), 0x4000, nxt]);
            push(SpeTagWaitEnd, vec![1 << cur]);
            push(SpeDmaPut, vec![ea_out(i), buf(cur), 0x4000, cur]);
        }
        push(SpeTagWaitEnd, vec![0b11]);
        let idx = build(&merged(events, 1));
        assert!(idx.races().is_empty(), "{:?}", &idx.races()[..1]);
        assert_output_sensitive(&idx, 1 + 2 * iterations as usize);
    }

    #[test]
    fn never_waited_storm_into_disjoint_buffers_costs_linear_candidates() {
        use EventCode::*;
        // Nothing is ever ordered, so every transfer stays open: only
        // the address order keeps each lookup local.
        let s = TraceCore::Spe(0);
        let transfers = 20_000u64;
        let events = (0..transfers)
            .map(|k| {
                let code = if k % 2 == 0 { SpeDmaGet } else { SpeDmaPut };
                let (ea, lsa) = (0x1000_0000 + 0x100 * k, 0x100 * k);
                dma(10 * k, s, code, ea, lsa, 0x100, k % 32, k)
            })
            .collect();
        let idx = build(&merged(events, 1));
        assert!(idx.races().is_empty());
        assert_output_sensitive(&idx, transfers as usize);
    }

    #[test]
    fn shared_ea_gets_across_spes_cost_linear_candidates() {
        use EventCode::*;
        // Four SPEs read one shared input range over and over: GET-GET
        // overlaps in main memory never race and are never visited.
        let per_spe = 5_000u64;
        let mut events = Vec::new();
        for spe in 0..4u8 {
            let s = TraceCore::Spe(spe);
            for i in 0..per_spe {
                let (t, b) = (20 * i + u64::from(spe), i & 1);
                events.push(dma(
                    t,
                    s,
                    SpeDmaGet,
                    0x10_0000,
                    0x4000 * (b + 1),
                    4096,
                    b,
                    2 * i,
                ));
                events.push(ev(t + 10, s, SpeTagWaitEnd, vec![1 << b], 2 * i + 1));
            }
        }
        let idx = build(&merged(events, 4));
        assert!(idx.races().is_empty());
        assert_output_sensitive(&idx, 4 * per_spe as usize);
    }

    #[test]
    fn never_waited_storm_at_descending_addresses_costs_linear_candidates() {
        use EventCode::*;
        // Every transfer stays open and each lands below all earlier
        // ones: the worst insertion order for an address-ordered set.
        let s = TraceCore::Spe(0);
        let transfers = 100_000u64;
        let events = (0..transfers)
            .map(|k| {
                let code = if k % 2 == 0 { SpeDmaGet } else { SpeDmaPut };
                let at = 0x100 * (transfers - 1 - k);
                dma(10 * k, s, code, 0x1000_0000 + at, at, 0x100, k % 32, k)
            })
            .collect();
        let idx = build(&merged(events, 1));
        assert!(idx.races().is_empty());
        assert_output_sensitive(&idx, transfers as usize);
    }

    #[test]
    fn staggered_expiry_storm_costs_linear_candidates() {
        use EventCode::*;
        // Never-waited GETs on tag 1 pile up in the open set while a
        // GET on tag 0 between each pair of them is waited at once. The
        // waited ones land below every open key, so each is inserted
        // and removed at the front of a set of thousands.
        let s = TraceCore::Spe(0);
        let open = 30_000u64;
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut push = |code, params: Vec<u64>| {
            events.push(ev(10 * seq, s, code, params, seq));
            seq += 1;
        };
        for k in 0..open {
            let (kept, waited) = (0x100 * (open + k), 0x100 * (open - 1 - k));
            push(SpeDmaGet, vec![0x1000_0000 + kept, kept, 0x100, 1]);
            push(SpeDmaGet, vec![0x1000_0000 + waited, waited, 0x100, 0]);
            push(SpeTagWaitEnd, vec![1]);
        }
        let idx = build(&merged(events, 1));
        assert!(idx.races().is_empty());
        assert_output_sensitive(&idx, 2 * open as usize);
    }

    #[test]
    fn computed_ranks_match_the_order() {
        use crate::exec::Parallelism;
        let check = |c: &ColumnarTrace, what: &str| {
            let segs = c.segments();
            let computed: Vec<u32> = (0..c.events.len())
                .map(|i| c.rank_of(&segs, i) as u32)
                .collect();
            assert_eq!(computed, c.order().ranks(), "{what}");
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut paths: Vec<_> = (std::fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        assert!(paths.len() >= 14, "goldens under {}", dir.display());
        for path in paths {
            let a = match path.extension().and_then(|x| x.to_str()) {
                Some("pdt") => std::sync::Arc::new(
                    (crate::session::Analysis::of(&pdt::TraceFile::read_from(&path).unwrap()))
                        .run()
                        .unwrap(),
                ),
                Some("pdt2") => {
                    let bytes = std::fs::read(&path).unwrap();
                    crate::analyze_v2(&bytes, Parallelism::Serial).unwrap().0
                }
                _ => continue,
            };
            check(a.columns(), &path.display().to_string());
        }
        // Equal timestamps across every core: the tag breaks the ties,
        // and a core's own ties keep their stream order. Placed
        // core-major with no order, so the order is the loser tree's.
        use EventCode::*;
        let cores = [
            TraceCore::Ppe(0),
            TraceCore::Ppe(1),
            TraceCore::Spe(0),
            TraceCore::Spe(3),
        ];
        let mut events = Vec::new();
        for (k, &core) in cores.iter().enumerate() {
            for seq in 0..6u64 {
                let t = [10, 10, 20, 20, 20, 30][seq as usize] + 10 * (k as u64 % 2);
                events.push(ev(t, core, SpeUser, vec![seq], seq));
            }
        }
        let placed = merged(events, 4);
        let c = ColumnarTrace::empty(placed.header).with_events(placed.events.clone());
        check(&c, "equal timestamps");
        assert_eq!(c.order(), placed.order());
    }

    #[test]
    fn a_stream_without_sync_edges_steps_no_stops() {
        use EventCode::*;
        let s = TraceCore::Spe(0);
        let issues = 100_000u64;
        let events = (0..issues)
            .map(|k| {
                let code = if k % 2 == 0 { SpeDmaGet } else { SpeDmaPut };
                dma(
                    10 * k,
                    s,
                    code,
                    0x1000_0000 + 0x100 * k,
                    0x100 * k,
                    0x100,
                    k % 32,
                    k,
                )
            })
            .collect();
        let c = merged(events, 1);
        let edges = crate::causality::sync_edges_store(&c, &LossReport::default());
        assert!(edges.is_empty());
        assert_eq!(propagate(&c, &edges).steps, 0);
        assert!(build(&c).races().is_empty());
        assert_eq!(c.order_builds(), 0, "no edges to map: no order");
    }

    /// Every event stepped, as the propagation did before it stepped
    /// stops only: per store position, the clock right after it, and
    /// whether a cycle was broken. The oracle for [`propagate`].
    fn dense_clocks(c: &ColumnarTrace, edges: &[CausalEdge]) -> (Vec<Vec<u32>>, bool) {
        let segs = c.segments();
        let w = segs.len();
        let mut producers = vec![Vec::new(); c.events.len()];
        for e in edges {
            producers[e.later].push(e.earlier);
        }
        let mut after: Vec<Vec<u32>> = vec![Vec::new(); c.events.len()];
        let mut running = vec![vec![0u32; w]; w];
        let mut next: Vec<usize> = segs.iter().map(|(_, r)| r.start).collect();
        let mut degraded = false;
        let mut step = |si: usize, next: &mut [usize], after: &mut [Vec<u32>]| {
            let i = next[si];
            running[si][si] = (i - segs[si].1.start + 1) as u32;
            for &p in &producers[i] {
                // An unprocessed producer has no clock yet: nothing joins.
                for (a, &b) in running[si].iter_mut().zip(&after[p]) {
                    *a = (*a).max(b);
                }
            }
            after[i] = running[si].clone();
            next[si] += 1;
        };
        loop {
            let mut progressed = false;
            for si in 0..w {
                while next[si] < segs[si].1.end
                    && producers[next[si]].iter().all(|&p| !after[p].is_empty())
                {
                    step(si, &mut next, &mut after);
                    progressed = true;
                }
            }
            if progressed {
                continue;
            }
            match (0..w).find(|&s| next[s] < segs[s].1.end) {
                Some(si) => {
                    step(si, &mut next, &mut after);
                    degraded = true;
                }
                None => return (after, degraded),
            }
        }
    }

    /// Asserts that [`event_clocks`] equals the dense oracle on `c`.
    fn assert_clocks_match_dense(c: &ColumnarTrace) -> ClockTable {
        let store = crate::causality::sync_edges_store(c, &LossReport::default());
        let (dense, degraded) = dense_clocks(c, &store);
        let table = event_clocks(c, &sync_edges_columns(c, &LossReport::default()));
        assert_eq!(table.degraded(), degraded);
        for (i, want) in dense.into_iter().enumerate() {
            let rank = c.order().ranks()[i] as usize;
            assert_eq!(table.clock(rank), &VecClock(want), "store event {i}");
        }
        table
    }

    #[test]
    fn a_two_spe_mailbox_cycle_degrades_and_keeps_its_races() {
        use EventCode::*;
        let (p, s0, s1) = (TraceCore::Ppe(0), TraceCore::Spe(0), TraceCore::Spe(1));
        // The PPE relays SPE0's word to SPE1 and SPE1's to SPE0, but
        // each SPE consumes its inbound word before it writes its own:
        // SPE0's read waits on the PPE's last write, which follows the
        // PPE's read of SPE1's word, written after SPE1's read, which
        // waits on the PPE's write after its read of SPE0's word,
        // written after SPE0's read. Both SPEs PUT overlapping bytes.
        let mut c = merged(
            vec![
                ev(1, p, PpeCtxRun, vec![0, 0, u64::from(u32::MAX)], 0),
                ev(2, p, PpeCtxRun, vec![1, 1, u64::from(u32::MAX)], 1),
                ev(30, p, PpeMboxRead, vec![0, 1], 2),
                ev(31, p, PpeMboxWrite, vec![1, 1], 3),
                ev(32, p, PpeMboxRead, vec![1, 2], 4),
                ev(33, p, PpeMboxWrite, vec![0, 2], 5),
                ev(3, s0, SpeCtxStart, vec![0], 0),
                dma(4, s0, SpeDmaPut, 0x100000, 0x1000, 4096, 0, 1),
                ev(5, s0, SpeTagWaitBegin, vec![1, 0], 2),
                ev(6, s0, SpeTagWaitEnd, vec![1], 3),
                ev(10, s0, SpeMboxReadBegin, vec![], 4),
                ev(11, s0, SpeMboxReadEnd, vec![2], 5),
                ev(12, s0, SpeMboxWrite, vec![1], 6),
                ev(3, s1, SpeCtxStart, vec![1], 0),
                ev(10, s1, SpeMboxReadBegin, vec![], 1),
                ev(11, s1, SpeMboxReadEnd, vec![1], 2),
                ev(13, s1, SpeMboxWrite, vec![2], 3),
                dma(14, s1, SpeDmaPut, 0x100800, 0x1000, 4096, 0, 4),
                ev(15, s1, SpeTagWaitBegin, vec![1, 0], 5),
                ev(16, s1, SpeTagWaitEnd, vec![1], 6),
            ],
            2,
        );
        c.set_anchors(
            (0..2)
                .map(|spe| crate::analyze::SpeAnchor {
                    spe,
                    ctx: u32::from(spe),
                    run_tb: 0,
                    dec_start: u32::MAX,
                })
                .collect(),
        );
        let table = assert_clocks_match_dense(&c);
        assert!(table.degraded());
        let idx = build(&c);
        assert!(idx.degraded());
        assert_eq!(idx.races().len(), 1, "{:?}", idx.races());
        let r = &idx.races()[0];
        assert_eq!(r.space, Space::MainMemory);
        assert_eq!((r.lo, r.hi), (0x100800, 0x101000));
        assert_eq!((r.first.spe, r.second.spe), (0, 1));
        assert_eq!((r.first.global, r.second.global), (4, 13));
    }

    #[test]
    fn open_set_matches_a_sorted_model() {
        // Dense keys from a small address range, so runs split, empty
        // and merge back into the list; every lookup must return the
        // model's keys in order.
        let mut set = OpenSet::new();
        let mut model: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 0..20_000u32 {
            let r = next();
            let key = (r % 512, step);
            if r % 5 < 3 || model.is_empty() {
                set.insert(key);
                let at = model.partition_point(|&k| k < key);
                model.insert(at, key);
            } else {
                let gone = model.remove((r >> 32) as usize % model.len());
                set.remove(gone);
            }
            let (from, to) = (next() % 512, next() % 600);
            let got: Vec<usize> = set.starting_in(from, to).collect();
            let want: Vec<usize> = (model.iter())
                .filter(|&&(s, _)| from <= s && s < to)
                .map(|&(_, j)| j as usize)
                .collect();
            assert_eq!(got, want, "step {step}");
        }
        assert!(set.runs.len() > 1, "the model run never split");
    }
}
