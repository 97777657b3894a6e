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

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Range;

use pdt::{EventCode, EventGroup, TraceCore};

use crate::causality::CausalEdge;
use crate::columns::ColumnarTrace;
use crate::index::{IntervalTree, Span};

/// "No slot" marker in the dense per-event slot vectors.
const NO_SLOT: u32 = u32::MAX;

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
/// edges. A single time-ordered pass would be wrong — SPE decrementers
/// skew, so an edge's `later` endpoint can carry an *earlier*
/// timestamp — so instead each stream advances while the producers of
/// its next event's incoming edges have been processed, round-robin
/// until the trace drains.
///
/// `on_event(global, stream, pos, clock)` fires once per event with
/// the stream's clock *after* the event (own epoch `pos + 1` set,
/// incoming edges joined), as one `u32` per stream. Returns `true`
/// when a cross-edge cycle (possible only in clock-skewed or damaged
/// traces) forced progress by ignoring an unprocessed producer.
fn propagate<F>(trace: &ColumnarTrace, edges: &[CausalEdge], mut on_event: F) -> bool
where
    F: FnMut(usize, usize, u32, &[u32]),
{
    let mut p = Propagation::new(trace, edges);
    let streams = p.ranks.len();
    let mut remaining = trace.events.len();
    let mut degraded = false;
    while remaining > 0 {
        let mut progressed = false;
        for si in 0..streams {
            while p.ready(si) {
                p.process(si, &mut on_event);
                remaining -= 1;
                progressed = true;
            }
        }
        if !progressed {
            // Every stream is blocked on an unprocessed producer: a
            // cycle through the edge set. Break it at the lowest-tag
            // blocked stream (deterministic), joining only the
            // producers that *have* released — losing a join loses
            // orderings, which can only add (suspect) findings.
            let si = (0..streams)
                .find(|&s| p.cursors[s] < p.ranks[s].len())
                .expect("remaining > 0 implies an unfinished stream");
            p.process(si, &mut on_event);
            remaining -= 1;
            degraded = true;
        }
    }
    degraded
}

/// The state of one [`propagate`] run, in dense per-event vectors and
/// flat clock arenas (one `width`-wide row per clock) rather than
/// per-event maps and heap-allocated clocks.
struct Propagation<'t> {
    /// Per stream (core, tag-sorted): its events' global ranks.
    ranks: Vec<&'t [u32]>,
    width: usize,
    /// Incoming sync edges in compressed-row form: the producers of
    /// event `g` are `producers[first[g]..first[g + 1]]`.
    first: Vec<u32>,
    producers: Vec<u32>,
    /// Per event: its row in `released` when some edge leaves it.
    release_slot: Vec<u32>,
    /// The clock each producer released, written when it is processed.
    released: Vec<u32>,
    done: Vec<bool>,
    /// Row `si` is stream `si`'s running clock.
    clocks: Vec<u32>,
    cursors: Vec<usize>,
}

impl<'t> Propagation<'t> {
    fn new(trace: &'t ColumnarTrace, edges: &[CausalEdge]) -> Self {
        let order = trace.order().ranks();
        let ranks: Vec<&[u32]> = (trace.segments().into_iter())
            .map(|(_, r)| &order[r])
            .collect();
        let width = ranks.len();
        let n = trace.events.len();
        let mut pairs: Vec<(u32, u32)> = edges
            .iter()
            .filter(|e| e.earlier < n && e.later < n)
            .map(|e| (e.later as u32, e.earlier as u32))
            .collect();
        pairs.sort_unstable();
        let mut first = vec![0u32; n + 1];
        for &(later, _) in &pairs {
            first[later as usize + 1] += 1;
        }
        for g in 0..n {
            first[g + 1] += first[g];
        }
        let producers: Vec<u32> = pairs.into_iter().map(|(_, earlier)| earlier).collect();
        let mut release_slot = vec![NO_SLOT; n];
        let mut slots = 0usize;
        for &p in &producers {
            if release_slot[p as usize] == NO_SLOT {
                release_slot[p as usize] = slots as u32;
                slots += 1;
            }
        }
        Propagation {
            ranks,
            width,
            first,
            producers,
            release_slot,
            released: vec![0; slots * width],
            done: vec![false; n],
            clocks: vec![0; width * width],
            cursors: vec![0; width],
        }
    }

    fn producers_of(&self, g: usize) -> &[u32] {
        &self.producers[self.first[g] as usize..self.first[g + 1] as usize]
    }

    /// Whether stream `si` has a next event whose producers have all
    /// been processed.
    fn ready(&self, si: usize) -> bool {
        self.ranks[si].get(self.cursors[si]).is_some_and(|&g| {
            self.producers_of(g as usize)
                .iter()
                .all(|&p| self.done[p as usize])
        })
    }

    /// Processes stream `si`'s next event.
    fn process<F>(&mut self, si: usize, on_event: &mut F)
    where
        F: FnMut(usize, usize, u32, &[u32]),
    {
        let w = self.width;
        let pos = self.cursors[si];
        let g = self.ranks[si][pos] as usize;
        let clock = &mut self.clocks[si * w..(si + 1) * w];
        clock[si] = pos as u32 + 1;
        let producers = &self.producers[self.first[g] as usize..self.first[g + 1] as usize];
        for &p in producers {
            // Only a processed producer has released its clock.
            if self.done[p as usize] {
                let at = self.release_slot[p as usize] as usize * w;
                for (a, &b) in clock.iter_mut().zip(&self.released[at..at + w]) {
                    *a = (*a).max(b);
                }
            }
        }
        if self.release_slot[g] != NO_SLOT {
            let at = self.release_slot[g] as usize * w;
            self.released[at..at + w].copy_from_slice(clock);
        }
        on_event(g, si, pos as u32, clock);
        self.done[g] = true;
        self.cursors[si] = pos + 1;
    }
}

/// The full per-event clock table — the dense export the property
/// tests check the vector-clock laws (and the race enumeration)
/// against. The race engine itself only snapshots clocks at DMA
/// issues ([`HbIndex::build`]).
#[derive(Debug)]
pub struct ClockTable {
    clocks: Vec<VecClock>,
    place: Vec<(usize, u32)>,
    streams: Vec<TraceCore>,
    degraded: bool,
}

/// Propagates clocks over every event and returns the dense table.
pub fn event_clocks(trace: &ColumnarTrace, edges: &[CausalEdge]) -> ClockTable {
    let n = trace.events.len();
    let mut clocks = vec![VecClock::new(0); n];
    let mut place = vec![(0usize, 0u32); n];
    let degraded = propagate(trace, edges, |g, si, pos, vc| {
        clocks[g] = VecClock(vc.to_vec());
        place[g] = (si, pos);
    });
    ClockTable {
        clocks,
        place,
        streams: trace.cores(),
        degraded,
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
        let lo = match space {
            Space::LocalStore => self.lsa,
            Space::MainMemory => self.ea,
        };
        (lo, lo.saturating_add(self.bytes))
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

/// One reconstructed transfer with its ordering state.
struct Transfer {
    acc: Access,
    /// List DMA: the EA side scatters, so it joins the LS check only.
    list: bool,
    /// Position of the issue in its SPE's stream.
    pos: u32,
    /// First position that orders later same-queue issues after this
    /// transfer: the first covering `SpeTagWaitEnd` or the first
    /// `SpeDmaBarrier` after issue (`u32::MAX` when neither exists).
    order_pos: u32,
    /// First covering `SpeTagWaitEnd` — the only completion witness
    /// other streams can observe (`u32::MAX` when never waited).
    wait_pos: u32,
    /// Stream index of the issuing SPE in the clock universe.
    stream: usize,
}

impl Transfer {
    /// Whether the transfer takes part in the `space` check: it moves
    /// bytes, and (main memory only) its EA side is one range.
    fn checked_in(&self, space: Space) -> bool {
        self.acc.bytes > 0 && (space == Space::LocalStore || !self.list)
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

/// Every SPE's transfers in one flat list, stream-major in clock
/// order (so flat order is the global order within each stream), with
/// each SPE's run and the issue clocks.
struct Transfers {
    all: Vec<Transfer>,
    runs: Vec<Range<usize>>,
    /// Stream width of the clock universe.
    width: usize,
    /// Transfer `k`'s issue clock is `issue[k * width..(k + 1) * width]`.
    issue: Vec<u32>,
}

impl Transfers {
    /// Replays every SPE stream's DMA events: issues, covering waits
    /// and barriers. Every other event is skipped on the code column,
    /// without reading its params.
    fn reconstruct(trace: &ColumnarTrace) -> Self {
        let cols = &trace.events;
        let codes = cols.codes();
        let segments = trace.segments();
        let mut all: Vec<Transfer> = Vec::new();
        let mut runs = Vec::new();
        for (stream, (core, seg)) in segments.iter().enumerate() {
            let TraceCore::Spe(spe) = *core else {
                continue;
            };
            if !trace.core_has_group(*core, EventGroup::SpeDma) {
                continue;
            }
            let ranks = &trace.order().ranks()[seg.clone()];
            let base = all.len();
            // Unwaited transfers per tag group (a wait mask has one bit
            // per group, so a wider tag, which only damaged params
            // produce, is never waited), and the first transfer no
            // barrier has ordered yet.
            let mut pending: [Vec<usize>; 32] = Default::default();
            let mut unbarriered = base;
            for (pos, (i, &g)) in seg.clone().zip(ranks).enumerate() {
                let pos = pos as u32;
                match codes[i] {
                    code @ (EventCode::SpeDmaGet | EventCode::SpeDmaPut) => {
                        let p = cols.params(i);
                        if p.len() < 4 {
                            continue;
                        }
                        let tag = (p[3] & 0xff) as u8;
                        if let Some(q) = pending.get_mut(usize::from(tag)) {
                            q.push(all.len());
                        }
                        all.push(Transfer {
                            acc: Access {
                                spe,
                                dir: if code == EventCode::SpeDmaGet {
                                    AccessDir::Get
                                } else {
                                    AccessDir::Put
                                },
                                tag,
                                lsa: p[1],
                                ea: p[0],
                                bytes: p[2],
                                time_tb: cols.times()[i],
                                seq: cols.seq(i),
                                global: g as usize,
                            },
                            list: p[3] >> 8 != 0,
                            pos,
                            order_pos: u32::MAX,
                            wait_pos: u32::MAX,
                            stream,
                        });
                    }
                    EventCode::SpeTagWaitEnd => {
                        let mut completed = cols.params(i).first().copied().unwrap_or(0) as u32;
                        while completed != 0 {
                            let tag = completed.trailing_zeros() as usize;
                            completed &= completed - 1;
                            for i in pending[tag].drain(..) {
                                all[i].wait_pos = pos;
                                all[i].order_pos = all[i].order_pos.min(pos);
                            }
                        }
                    }
                    EventCode::SpeDmaBarrier => {
                        // The barrier command holds the MFC queue until
                        // every earlier command completes: all still-
                        // open transfers become ordered before anything
                        // issued after this position. Transfers already
                        // waited keep their (earlier) wait position.
                        for t in &mut all[unbarriered..] {
                            t.order_pos = t.order_pos.min(pos);
                        }
                        unbarriered = all.len();
                    }
                    _ => {}
                }
            }
            runs.push(base..all.len());
        }
        Transfers {
            all,
            runs,
            width: segments.len(),
            issue: Vec::new(),
        }
    }

    /// Propagates clocks over `edges` and snapshots each transfer's
    /// issue clock. Returns the propagation's degraded flag.
    fn snapshot_clocks(&mut self, trace: &ColumnarTrace, edges: &[CausalEdge]) -> bool {
        let w = self.width;
        let mut issue = vec![0u32; self.all.len() * w];
        // Per stream, the next transfer whose issue is still ahead;
        // `propagate` visits each stream's events in position order.
        let mut next: Vec<Range<usize>> = vec![0..0; w];
        for run in &self.runs {
            if let Some(t) = self.all.get(run.start) {
                next[t.stream] = run.clone();
            }
        }
        let all = &self.all;
        let degraded = propagate(trace, edges, |_, si, pos, clock| {
            let k = next[si].start;
            if k < next[si].end && all[k].pos == pos {
                issue[k * w..(k + 1) * w].copy_from_slice(clock);
                next[si].start += 1;
            }
        });
        self.issue = issue;
        degraded
    }

    /// Whether transfer `a`'s completion is ordered before transfer
    /// `b`'s issue across streams: `a` has a completion witness (first
    /// covering wait-end at `wait_pos` on its own stream) and `b`'s
    /// issue clock has observed that position.
    fn completes_before(&self, a: usize, b: usize) -> bool {
        let a = &self.all[a];
        a.wait_pos != u32::MAX && self.issue[b * self.width + a.stream] > a.wait_pos
    }
}

/// Walks one stream's transfers in issue order and calls `pair(a, t)`
/// for every earlier transfer `a` still unordered at `t`'s issue
/// (`t.pos < a.order_pos`) whose `space` range overlaps `t`'s, where
/// at least one of the two writes `space`. Returns the number of open
/// entries examined: the pairs reported, plus per lookup the entries
/// that start within the longest range below `t` without reaching it.
fn sweep_stream(ts: &[Transfer], space: Space, mut pair: impl FnMut(&Transfer, &Transfer)) -> u64 {
    // The open set: earlier transfers nothing has ordered yet, as
    // `(lo, index)` per direction (`Get` = 0, `Put` = 1) so a lookup
    // visits only nearby entries, with an expiry heap on `order_pos`.
    // No open range is longer than `max_len`, so one starting further
    // below a query's start cannot reach it.
    let mut open: [BTreeSet<(u64, u32)>; 2] = Default::default();
    let mut expiry: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut max_len = 0u64;
    let mut examined = 0u64;
    for (i, t) in ts.iter().enumerate() {
        if !t.checked_in(space) {
            continue;
        }
        while let Some(&Reverse((at, j))) = expiry.peek() {
            if at > t.pos {
                break;
            }
            expiry.pop();
            let a = &ts[j as usize];
            open[a.acc.dir as usize].remove(&(a.acc.range(space).0, j));
        }
        let (lo, hi) = t.acc.range(space);
        for dir in [AccessDir::Get, AccessDir::Put] {
            if !conflicts(space, dir, t.acc.dir) {
                continue;
            }
            let from = (lo.saturating_sub(max_len), 0);
            for &(_, j) in open[dir as usize].range(from..(hi, 0)) {
                examined += 1;
                let a = &ts[j as usize];
                if a.acc.range(space).1 > lo {
                    pair(a, t);
                }
            }
        }
        open[t.acc.dir as usize].insert((lo, i as u32));
        if t.order_pos != u32::MAX {
            expiry.push(Reverse((t.order_pos, i as u32)));
        }
        max_len = max_len.max(hi - lo);
    }
    examined
}

/// An address-space span carried by the overlap tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AddrSpan {
    lo: u64,
    hi: u64,
    idx: u32,
}

impl Span for AddrSpan {
    fn span(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// The built race index: every proven [`RaceWitness`], grouped into
/// per-`(spe, tag)` shards for the parallel lint runner.
#[derive(Debug)]
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
    pub fn build(trace: &ColumnarTrace, edges: &[CausalEdge]) -> Self {
        let mut ts = Transfers::reconstruct(trace);

        // No transfers, no races: skip clock propagation entirely, so
        // DMA-free traces (all-user-event storms, pure compute) pay
        // nothing for the engine.
        if ts.all.is_empty() {
            return HbIndex {
                shards: Vec::new(),
                races: Vec::new(),
                ranges: Vec::new(),
                degraded: false,
                candidates: 0,
            };
        }
        let degraded = ts.snapshot_clocks(trace, edges);

        let mut races: Vec<RaceWitness> = Vec::new();
        let mut candidates = 0u64;
        for run in &ts.runs {
            let stream = &ts.all[run.clone()];
            // Local-store pairs: they race when the bytes overlap, at
            // least one writes LS (a GET), and the later was issued
            // before anything ordered the earlier's completion (no
            // covering wait-end or barrier in between). Same-tag pairs
            // are *not* exempt.
            candidates += sweep_stream(stream, Space::LocalStore, |a, t| {
                races.push(witness(Space::LocalStore, a, t));
            });
            // Main-memory pairs on one MFC queue: the same position
            // rule decides. A pair already racing in local store is
            // one finding, not two: keep the LS witness.
            candidates += sweep_stream(stream, Space::MainMemory, |a, t| {
                let (alo, ahi) = a.acc.range(Space::LocalStore);
                let (tlo, thi) = t.acc.range(Space::LocalStore);
                let ls_race =
                    alo < thi && tlo < ahi && conflicts(Space::LocalStore, a.acc.dir, t.acc.dir);
                if !ls_race {
                    races.push(witness(Space::MainMemory, a, t));
                }
            });
        }

        // Main-memory pairs across streams: ordered only when one
        // side's completion witness is inside the other's issue clock.
        // Each stream's transfers query the trees of the streams before
        // it, one per direction, for conflicting direction pairs only
        // (never GET–GET), and skip a tree whose hull misses theirs.
        let trees: Vec<[IntervalTree<AddrSpan>; 2]> = ts
            .runs
            .iter()
            .map(|run| {
                let mut spans: [Vec<AddrSpan>; 2] = Default::default();
                for k in run.clone() {
                    let t = &ts.all[k];
                    if t.checked_in(Space::MainMemory) {
                        let (lo, hi) = t.acc.range(Space::MainMemory);
                        spans[t.acc.dir as usize].push(AddrSpan {
                            lo,
                            hi,
                            idx: k as u32,
                        });
                    }
                }
                spans.map(IntervalTree::new)
            })
            .collect();
        let dirs = [AccessDir::Get, AccessDir::Put];
        for (s, mine) in trees.iter().enumerate() {
            for theirs in &trees[..s] {
                for (my, their) in dirs.iter().flat_map(|&m| dirs.map(|t| (m, t))) {
                    let (queries, tree) = (&mine[my as usize], &theirs[their as usize]);
                    let hulls_meet = match (queries.extent(), tree.extent()) {
                        (Some((qlo, qhi)), Some((tlo, thi))) => qlo < thi && tlo < qhi,
                        _ => false,
                    };
                    if !conflicts(Space::MainMemory, my, their) || !hulls_meet {
                        continue;
                    }
                    for q in queries.spans() {
                        for span in tree.range(q.lo, q.hi) {
                            candidates += 1;
                            let (j, k) = (span.idx as usize, q.idx as usize);
                            if ts.completes_before(j, k) || ts.completes_before(k, j) {
                                continue;
                            }
                            let (a, t) = (&ts.all[j], &ts.all[k]);
                            let (first, second) = if a.acc.global < t.acc.global {
                                (a, t)
                            } else {
                                (t, a)
                            };
                            races.push(witness(Space::MainMemory, first, second));
                        }
                    }
                }
            }
        }

        // Shard universe: every (spe, tag) with at least one transfer.
        let mut shards: Vec<(u8, u8)> = ts.all.iter().map(|t| (t.acc.spe, t.acc.tag)).collect();
        shards.sort_unstable();
        shards.dedup();
        let shard_rank = |a: &Access| {
            shards
                .binary_search(&(a.spe, a.tag))
                .expect("every transfer's (spe, tag) is a shard")
        };
        races.sort_by_key(|r| (shard_rank(&r.second), r.second.global, r.first.global));
        let mut ranges = vec![(0usize, 0usize); shards.len()];
        let mut at = 0;
        for (i, &shard) in shards.iter().enumerate() {
            let start = at;
            while at < races.len() && (races[at].second.spe, races[at].second.tag) == shard {
                at += 1;
            }
            ranges[i] = (start, at);
        }
        debug_assert_eq!(at, races.len(), "every race belongs to a shard");

        HbIndex {
            shards,
            races,
            ranges,
            degraded,
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
    /// order.
    pub fn races_in_shard(&self, i: usize) -> &[RaceWitness] {
        let (lo, hi) = self.ranges[i];
        &self.races[lo..hi]
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
fn witness(space: Space, a: &Transfer, b: &Transfer) -> RaceWitness {
    let (alo, ahi) = a.acc.range(space);
    let (blo, bhi) = b.acc.range(space);
    RaceWitness {
        space,
        first: a.acc,
        second: b.acc,
        lo: alo.max(blo),
        hi: ahi.min(bhi),
        same_tag: a.acc.tag == b.acc.tag,
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
        let edges = sync_edges_columns(&c, &LossReport::default());
        let t = event_clocks(&c, &edges);
        assert!(!t.degraded());
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
}
