//! Incremental streaming ingestion behind snapshot epochs.
//!
//! [`IngestSession`] accepts a trace as appended byte chunks — one
//! [`LossyCursor`] per stream survives chunk boundaries, including
//! resync scans across torn records — and [`IngestSession::snapshot`]
//! returns an immutable [`Analysis`] epoch behind an [`Arc`]: readers
//! query it concurrently while ingestion continues, and a snapshot
//! taken after [`finish`](IngestSession::finish) is byte-identical to
//! the one-shot [`Analysis::of`] over the same trace, no matter how the
//! bytes were chunked. A session runs in one of two modes, chosen by
//! how its streams arrive.
//!
//! ## Sequential mode: base plus overlays
//!
//! A `.pdt` v1 image stores its streams end to end, so a growing file
//! has complete streams, at most one open stream, and streams not yet
//! announced — whose events may sort anywhere in the ones already
//! seen. [`ImageIngest`] therefore declares the stream count up front
//! ([`expect_streams`](IngestSession::expect_streams)), which puts the
//! session in sequential mode: nothing is committed under a watermark. Each open stream places its events into an
//! append-only columnar run (see the `overlay` module); once a stream is
//! closed and placed, one linear merge folds it into the *base* store
//! and the base index is rebuilt — one full rebuild per stream
//! directory entry, and no splice ever. A snapshot is the base plus a
//! frozen view of each run, so `summarize` and the event count cost
//! O(tail); products that need the global order merge once per epoch,
//! on first use.
//!
//! ## Commit watermark
//!
//! With every stream registered up front and appended side by side
//! (the default mode, used by the v2 replay path), events enter a
//! per-stream pending list as their records decode and are committed
//! to the shared store only once no open stream can still produce an
//! event that sorts before them. Each stream exposes a lower bound on
//! its future sort keys — a PPE stream's last timestamp, an anchored
//! SPE stream's reconstructed frontier — and the global watermark is
//! the minimum `(bound, stream)` pair. An SPE stream whose sync anchor
//! is not yet final bounds at zero and parks its records until every
//! earlier PPE stream closes, because a future `PpeCtxRun` record
//! could place its events anywhere. Only corrupt input that breaks a
//! bound (a PPE timestamp running backwards) commits out of order: it
//! falls back to a sorted splice ([`IngestSession::splices`]) and a
//! one-time index rebuild; the committed order is always exact.
//!
//! ## Epoch semantics
//!
//! Stores sit behind `Arc`s and are mutated via [`Arc::make_mut`]: a
//! snapshot pins its epoch, and the first write after a snapshot that
//! a reader still holds copies the store once, leaving the epoch
//! frozen. In watermark mode the maintained [`TraceIndex`] grows by
//! [`extend_columns`](TraceIndex::extend_columns) — appended offsets,
//! and lane checkpoints rewritten only from a lane's first changed
//! interval — and each snapshot's index is the committed
//! index extended over the snapshot's uncommitted tail. In sequential
//! mode an epoch with open streams shares the base index and answers
//! windows without building one; an epoch without open streams shares
//! the base store and index outright. [`IngestSession::last_delta`],
//! [`splices`](IngestSession::splices) and
//! [`full_rebuilds`](IngestSession::full_rebuilds) account for the
//! work.
//!
//! [`ImageIngest`] layers an incremental parser of the serialized
//! `.pdt` image (header, stream directory, record bytes, name table)
//! on top, so a growing trace file can be followed as it is written —
//! the transport behind `ta-serve` and `ta-cli follow`.

use std::sync::{Arc, OnceLock};

use pdt::{
    DecodeGap, EventCode, FormatError, LossyCursor, TraceCore, TraceHeader, TraceRecord, MAGIC,
    VERSION,
};

use crate::analyze::{GlobalEvent, SpeAnchor};
use crate::columns::{ColumnarTrace, EventColumns};
use crate::exec::Parallelism;
use crate::index::{suspect_ranges_with, IndexDelta, TraceIndex};
use crate::intervals::{build_intervals_columns, SpeIntervals};
use crate::loss::{LossReport, StreamLoss};
use crate::overlay::{merge, Overlay, Part, StreamRun};
use crate::session::Analysis;

/// The global sort key: `(time_tb, core tag, stream_seq)`, ties across
/// streams broken by stream index — the order the one-shot merge
/// produces.
type SortKey = (u64, u8, u64);

fn key(e: &GlobalEvent) -> SortKey {
    (e.time_tb, e.core.tag(), e.stream_seq)
}

/// Identifies a stream registered with [`IngestSession::add_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

/// A sync-anchor candidate: a `PpeCtxRun` record at `(stream, rec)`.
/// The winner for an SPE is the candidate with the smallest position,
/// which is exactly the first one the one-shot harvest encounters.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    stream: usize,
    rec: u64,
    anchor: SpeAnchor,
}

/// Timestamp-reconstruction state for one stream.
#[derive(Debug, Clone)]
enum Placement {
    /// PPE records carry timebase timestamps directly; `last_time` is
    /// the monotone lower bound on future keys.
    Ppe { last_time: Option<u64> },
    /// SPE records parked until the stream's sync anchor is final.
    SpeWaiting { held: Vec<TraceRecord> },
    /// SPE stream with a final anchor: wrap-safe decrementer
    /// accumulation, exactly the one-shot per-stream loop.
    SpeAnchored {
        run_tb: u64,
        elapsed: u64,
        prev_dec: u32,
    },
    /// SPE stream that can never be anchored (every PPE stream closed
    /// without a candidate): records decode but place no events.
    SpeUnanchored,
}

/// Per-stream ingestion state.
#[derive(Debug)]
struct StreamState {
    core: TraceCore,
    dropped: u64,
    closed: bool,
    cursor: LossyCursor,
    /// Decode gaps emitted so far (the cursor's output is drained).
    gaps: Vec<DecodeGap>,
    /// Records consumed from the cursor; doubles as the next
    /// `stream_seq`.
    rec_idx: u64,
    place: Placement,
    /// Watermark mode: placed events not yet committed, in arrival
    /// order.
    pending: Vec<GlobalEvent>,
    pending_sorted: bool,
    /// Sequential mode: placed events not yet merged into the base.
    run: Arc<StreamRun>,
    /// Sequential mode: set once the run is merged into the base, to
    /// the times of the events the stream's gaps are bracketed by, as
    /// `(stream_seq, time)` pairs sorted by sequence.
    in_base: Option<Vec<(u64, u64)>>,
    bytes_in: u64,
}

impl StreamState {
    /// Lower bound on the sort key of any event this stream has not
    /// yet placed into `pending`, or `None` when no more can come.
    fn future_bound(&self) -> Option<SortKey> {
        match &self.place {
            Placement::SpeUnanchored => None,
            Placement::SpeWaiting { held } => {
                if self.closed && held.is_empty() {
                    None
                } else {
                    // A future anchor could place held/coming records
                    // anywhere on the timeline.
                    Some((0, 0, 0))
                }
            }
            Placement::Ppe { last_time } => {
                if self.closed {
                    None
                } else {
                    Some((last_time.unwrap_or(0), 0, 0))
                }
            }
            Placement::SpeAnchored {
                run_tb, elapsed, ..
            } => {
                if self.closed {
                    None
                } else {
                    Some((run_tb.wrapping_add(*elapsed), self.core.tag(), self.rec_idx))
                }
            }
        }
    }

    /// Records a placed event: into the run in sequential mode,
    /// otherwise into the pending list (tracking sortedness).
    fn place(&mut self, ev: GlobalEvent, sequential: bool) {
        if sequential {
            Arc::make_mut(&mut self.run).push(
                ev.time_tb,
                ev.core,
                ev.code,
                &ev.params,
                ev.stream_seq,
            );
            return;
        }
        if let Some(last) = self.pending.last() {
            if key(&ev) < key(last) {
                self.pending_sorted = false;
            }
        }
        self.pending.push(ev);
    }

    /// Sequential mode: the stream can place no more events, so its run
    /// may join the base.
    fn settled(&self) -> bool {
        self.closed && !matches!(self.place, Placement::SpeWaiting { .. })
    }

    /// The class of cores whose events count as this stream's for gap
    /// bracketing: its own SPE, or every PPE thread.
    fn class(&self) -> Option<u8> {
        self.core.is_spe().then(|| self.core.tag())
    }
}

/// What a snapshot adds beyond the placed events: each open stream's
/// preview (its undecoded carry, finished on a clone of the cursor),
/// placed through cloned state, with the epoch's anchors and loss.
struct Preview {
    anchors: Vec<SpeAnchor>,
    loss: LossReport,
    /// Per stream, the events only this epoch places.
    placed: Vec<Vec<GlobalEvent>>,
}

/// An incremental ingestion session: feed record bytes per stream in
/// arbitrary chunks, take [`Analysis`] snapshots at any point.
///
/// Construction mirrors the trace-file layout: declare the header,
/// register streams in directory order, append each stream's record
/// bytes as they arrive, and supply the context-name table whenever it
/// is known (it arrives last in a streamed image). After
/// [`finish`](Self::finish), a snapshot equals the one-shot analysis
/// of the assembled trace exactly.
#[derive(Debug)]
pub struct IngestSession {
    header: TraceHeader,
    par: Parallelism,
    /// Streams the trace declares, when they are registered one after
    /// another (sequential mode).
    expected: Option<usize>,
    streams: Vec<StreamState>,
    /// Best anchor candidate per SPE seen so far (minimal position) —
    /// the incremental form of the one-shot harvest.
    best: Vec<Candidate>,
    ctx_names: Vec<(u32, String)>,
    /// Watermark mode: the events committed since the last snapshot,
    /// in global order, appended to `committed` at the next one.
    /// Empty in sequential mode.
    batch: EventColumns,
    /// Watermark mode: the committed prefix placed so far. Sequential
    /// mode: the base, every settled stream merged. Shared with
    /// snapshot epochs.
    committed: Arc<ColumnarTrace>,
    /// Source stream of each committed event, in global order
    /// (watermark mode: `committed`, then `batch`) or in base order
    /// (sequential mode); enables exact splices and merges.
    committed_src: Vec<u32>,
    /// Index over the committed store, shared with epochs.
    index: Option<Arc<TraceIndex>>,
    /// Watermark mode: set when a splice invalidated the index.
    /// Sequential mode: set when the base changed.
    index_dirty: bool,
    /// Sequential mode: the loss report the base index's suspect
    /// ranges were computed from.
    index_loss: LossReport,
    /// Cumulative delta of the last committed-index update.
    last_delta: Option<IndexDelta>,
    /// Events in the last epoch (sequential-mode deltas).
    last_events: usize,
    splices: u64,
    full_rebuilds: u64,
    finished: bool,
    dirty: bool,
    cache: Option<Arc<Analysis>>,
    epochs: u64,
}

impl IngestSession {
    /// Starts a session for a trace with `header`.
    pub fn new(header: TraceHeader) -> Self {
        IngestSession {
            header,
            par: Parallelism::Serial,
            expected: None,
            streams: Vec::new(),
            best: Vec::new(),
            ctx_names: Vec::new(),
            batch: EventColumns::with_capacity(0),
            committed: Arc::new(ColumnarTrace::empty(header)),
            committed_src: Vec::new(),
            index: None,
            index_dirty: false,
            index_loss: LossReport::default(),
            last_delta: None,
            last_events: 0,
            splices: 0,
            full_rebuilds: 0,
            finished: false,
            dirty: true,
            cache: None,
            epochs: 0,
        }
    }

    /// Sets the [`Parallelism`] used for index builds in snapshots.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Declares that the trace has `n` streams, registered one after
    /// another as they arrive — the `.pdt` v1 image layout, which
    /// [`ImageIngest`] feeds this way. The session then runs in
    /// sequential mode: it keeps open streams as overlays and merges
    /// each into the base once it closes, instead of committing under
    /// the watermark (see the module docs), and it gives up on
    /// anchoring an SPE stream only once every stream is registered,
    /// since one not yet seen may be a PPE stream. Any arrival order
    /// stays correct.
    pub fn expect_streams(mut self, n: usize) -> Self {
        self.expected = Some(n);
        self
    }

    /// Whether [`expect_streams`](Self::expect_streams) put the session
    /// in sequential mode.
    fn sequential(&self) -> bool {
        self.expected.is_some()
    }

    /// Registers the next stream in directory order. `dropped` is the
    /// tracer-side drop count from the stream directory.
    ///
    /// # Panics
    ///
    /// Panics if the session is finished.
    pub fn add_stream(&mut self, core: TraceCore, dropped: u64) -> StreamId {
        // Caller contract (see Panics): a finished session is sealed.
        assert!(!self.finished, "add_stream after finish");
        self.touch();
        let place = if core.is_spe() {
            Placement::SpeWaiting { held: Vec::new() }
        } else {
            Placement::Ppe { last_time: None }
        };
        let id = self.streams.len();
        self.streams.push(StreamState {
            core,
            dropped,
            closed: false,
            cursor: LossyCursor::new(Some(core)),
            gaps: Vec::new(),
            rec_idx: 0,
            place,
            pending: Vec::new(),
            pending_sorted: true,
            run: Arc::new(StreamRun::new(id, core)),
            in_base: None,
            bytes_in: 0,
        });
        StreamId(id)
    }

    /// Appends record bytes to `id`'s stream. Chunks may split records,
    /// corrupt regions, even the resync scan itself, at any byte.
    ///
    /// # Panics
    ///
    /// Panics if the stream is closed or the session finished.
    pub fn append(&mut self, id: StreamId, chunk: &[u8]) {
        // Caller contract (see Panics): a finished session is sealed.
        assert!(!self.finished, "append after finish");
        // Caller contract (see Panics): a closed stream's bytes are final.
        assert!(!self.streams[id.0].closed, "append to closed stream");
        if chunk.is_empty() {
            return;
        }
        self.touch();
        let s = &mut self.streams[id.0];
        s.bytes_in += chunk.len() as u64;
        s.cursor.push(chunk);
        self.drain_stream(id.0);
        self.resolve_anchors();
    }

    /// Marks `id`'s stream complete: a trailing partial record becomes
    /// a decode gap, and the stream stops bounding the commit
    /// watermark.
    pub fn close_stream(&mut self, id: StreamId) {
        if self.streams[id.0].closed {
            return;
        }
        self.touch();
        let s = &mut self.streams[id.0];
        s.cursor.finish();
        s.closed = true;
        self.drain_stream(id.0);
        self.resolve_anchors();
    }

    /// Replaces the context-name table (it arrives at the end of a
    /// streamed image, but may be set at any time).
    pub fn set_ctx_names(&mut self, names: Vec<(u32, String)>) {
        self.touch();
        self.ctx_names = names;
    }

    /// Updates the tracer-dropped count for `id`'s stream.
    pub fn set_dropped(&mut self, id: StreamId, dropped: u64) {
        self.touch();
        self.streams[id.0].dropped = dropped;
    }

    /// Closes every stream and seals the session. Snapshots taken
    /// afterwards share the fully committed store — no per-epoch copy.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        for i in 0..self.streams.len() {
            self.close_stream(StreamId(i));
        }
        self.touch();
        self.finished = true;
    }

    /// Marks the cached epoch stale and drops the session's reference
    /// to it, so a store no reader holds is mutated in place.
    fn touch(&mut self) {
        self.dirty = true;
        self.cache = None;
    }

    /// Whether [`finish`](Self::finish) ran.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Streams registered so far.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Total record bytes appended over all streams.
    pub fn bytes_ingested(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes_in).sum()
    }

    /// Events committed so far: the committed prefix (placed, or
    /// batched for the next snapshot), or in sequential mode the base.
    pub fn committed_events(&self) -> usize {
        self.committed.events.len() + self.batch.len()
    }

    /// Placed events still awaiting the commit watermark, or in
    /// sequential mode the merge into the base.
    pub fn pending_events(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.pending.len() + s.run.len())
            .sum()
    }

    /// Snapshot epochs taken so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The incremental work of the last committed-index update: how
    /// many index blocks the most recent snapshot's commits rebuilt.
    /// In sequential mode an epoch that only grew the overlays
    /// rebuilds no blocks. `None` until a snapshot has built an index.
    pub fn last_delta(&self) -> Option<IndexDelta> {
        self.last_delta
    }

    /// Events committed out of order by an exact sorted splice — only
    /// corrupt input that breaks a watermark bound does this.
    pub fn splices(&self) -> u64 {
        self.splices
    }

    /// Indexes built from scratch over the whole committed store (or,
    /// for an epoch whose overlays cannot be answered apart, over the
    /// merged epoch).
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Pulls newly decoded records out of stream `i`'s cursor and
    /// places them.
    fn drain_stream(&mut self, i: usize) {
        let out = self.streams[i].cursor.take_output();
        self.streams[i].gaps.extend(out.gaps);
        for r in out.records {
            self.place_record(i, r);
        }
    }

    /// Places one decoded record: PPE records become events (and offer
    /// anchor candidates); SPE records accumulate decrementer time or
    /// park until their anchor is final.
    fn place_record(&mut self, i: usize, r: TraceRecord) {
        let sequential = self.sequential();
        let s = &mut self.streams[i];
        let seq = s.rec_idx;
        s.rec_idx += 1;
        let ev = match &mut s.place {
            Placement::Ppe { last_time } => {
                if let Some(anchor) = anchor_of(&r) {
                    let cand = Candidate {
                        stream: i,
                        rec: seq,
                        anchor,
                    };
                    offer(&mut self.best, cand);
                }
                *last_time = Some(r.timestamp);
                GlobalEvent {
                    time_tb: r.timestamp,
                    core: r.core, // records carry per-thread tags
                    code: r.code,
                    params: r.params,
                    stream_seq: seq,
                }
            }
            Placement::SpeWaiting { held } => return held.push(r),
            Placement::SpeAnchored {
                run_tb,
                elapsed,
                prev_dec,
            } => {
                let dec = r.timestamp as u32;
                *elapsed += prev_dec.wrapping_sub(dec) as u64;
                *prev_dec = dec;
                GlobalEvent {
                    time_tb: run_tb.wrapping_add(*elapsed),
                    core: s.core,
                    code: r.code,
                    params: r.params,
                    stream_seq: seq,
                }
            }
            Placement::SpeUnanchored => return, // decoded but unusable
        };
        s.place(ev, sequential);
    }

    /// Promotes waiting SPE streams whose anchor became final: the best
    /// candidate wins once every PPE stream before it has closed (no
    /// earlier candidate can appear), matching the one-shot
    /// first-candidate harvest. With every PPE stream closed and no
    /// candidate, the stream is unanchored and its records discarded —
    /// also the one-shot rule.
    fn resolve_anchors(&mut self) {
        let all_ppe_closed = self.expected.is_none_or(|n| self.streams.len() >= n)
            && self.streams.iter().all(|s| s.core.is_spe() || s.closed);
        for i in 0..self.streams.len() {
            let TraceCore::Spe(spe) = self.streams[i].core else {
                continue;
            };
            if !matches!(self.streams[i].place, Placement::SpeWaiting { .. }) {
                continue;
            }
            let winner = self.best.iter().find(|c| c.anchor.spe == spe).copied();
            match winner {
                Some(c)
                    if self.streams[..c.stream]
                        .iter()
                        .all(|s| s.core.is_spe() || s.closed) =>
                {
                    let anchored = Placement::SpeAnchored {
                        run_tb: c.anchor.run_tb,
                        elapsed: 0,
                        prev_dec: c.anchor.dec_start,
                    };
                    let held = match std::mem::replace(&mut self.streams[i].place, anchored) {
                        Placement::SpeWaiting { held } => held,
                        _ => Vec::new(), // not reached: the stream was waiting
                    };
                    // Replay parked records through the now-final
                    // anchor; their sequence numbers were assigned on
                    // arrival, so reset the counter and let it advance
                    // back through them.
                    self.streams[i].rec_idx = 0;
                    for r in held {
                        self.place_record(i, r);
                    }
                }
                None if all_ppe_closed => {
                    self.streams[i].place = Placement::SpeUnanchored;
                }
                _ => {}
            }
        }
    }

    /// Commits every pending event below the watermark into the shared
    /// store. A key below the last committed one can only come from
    /// corrupt input that broke a bound: it is spliced into its exact
    /// position, and the index is rebuilt at the next snapshot.
    fn flush_commits(&mut self) {
        let threshold: Option<(SortKey, usize)> = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.future_bound().map(|b| (b, j)))
            .min();
        for s in &mut self.streams {
            if !s.pending_sorted {
                s.pending.sort_unstable_by_key(key);
                s.pending_sorted = true;
            }
        }
        let mut heads: Vec<usize> = vec![0; self.streams.len()];
        loop {
            let mut min: Option<((SortKey, usize), usize)> = None;
            for (j, s) in self.streams.iter().enumerate() {
                if let Some(e) = s.pending.get(heads[j]) {
                    let pair = (key(e), j);
                    if min.is_none_or(|(m, _)| pair < m) {
                        min = Some((pair, j));
                    }
                }
            }
            let Some((pair, j)) = min else { break };
            if threshold.is_some_and(|t| pair >= t) {
                break;
            }
            let e = &self.streams[j].pending[heads[j]];
            heads[j] += 1;
            let (base, batch, src) = (&self.committed, &self.batch, &self.committed_src);
            let placed = base.events.len();
            let key_at = |i: usize| {
                let (ev, at) = match i.checked_sub(placed) {
                    Some(b) => (batch, b),
                    None => (&base.events, base.order().by_rank()[i] as usize),
                };
                ((ev.times()[at], ev.tags()[at], ev.seq(at)), src[i] as usize)
            };
            let n = src.len();
            let pos = match n == 0 || pair >= key_at(n - 1) {
                true => n,
                false => crate::oneshot::upper_bound(0, n, |i| key_at(i) < pair),
            };
            if pos < n {
                self.splices += 1;
                self.index_dirty = true;
            }
            if pos < placed {
                // The placed prefix is closed to inserts: return it to
                // the batch in global order, to be placed again.
                let mut all = base.events.gather(base.order().by_rank());
                for v in self.batch.iter() {
                    all.push(v.time_tb, v.core, v.code, v.params, v.stream_seq);
                }
                self.batch = all;
                self.committed = Arc::new(ColumnarTrace::empty(self.header));
            }
            let at = pos - self.committed.events.len();
            (self.batch).insert(at, e.time_tb, e.core, e.code, &e.params, e.stream_seq);
            self.committed_src.insert(pos, j as u32);
        }
        for (j, s) in self.streams.iter_mut().enumerate() {
            if heads[j] > 0 {
                s.pending.drain(..heads[j]);
            }
        }
    }

    /// Takes an immutable snapshot epoch: everything placed so far plus
    /// a preview of every open stream's undecoded carry, exactly what
    /// the one-shot analysis of all bytes appended so far would
    /// produce. Cheap when nothing changed (returns the cached epoch)
    /// and after [`finish`](Self::finish) (shares the committed store).
    pub fn snapshot(&mut self) -> Arc<Analysis> {
        if !self.dirty {
            if let Some(cached) = &self.cache {
                return Arc::clone(cached);
            }
        }
        if !self.sequential() {
            self.flush_commits();
        }
        let preview = self.preview();
        let epoch = Arc::new(if self.sequential() {
            self.overlay_epoch(preview)
        } else {
            self.watermark_epoch(preview)
        });
        self.cache = Some(Arc::clone(&epoch));
        self.dirty = false;
        self.epochs += 1;
        epoch
    }

    /// Finishes a clone of each open cursor (cheap — only the undecoded
    /// carry bytes are cloned) and runs the preview records through
    /// cloned placement state. Preview PPE candidates can anchor
    /// still-waiting SPE streams for this snapshot only.
    fn preview(&self) -> Preview {
        let mut prev_records: Vec<Vec<TraceRecord>> = Vec::with_capacity(self.streams.len());
        let mut prev_gaps: Vec<Vec<DecodeGap>> = Vec::with_capacity(self.streams.len());
        for s in &self.streams {
            let p = s.cursor.finish_preview();
            prev_records.push(p.records);
            prev_gaps.push(p.gaps);
        }
        let mut merged: Vec<Candidate> = self.best.clone();
        for (i, s) in self.streams.iter().enumerate() {
            if s.core.is_spe() {
                continue;
            }
            for (k, r) in prev_records[i].iter().enumerate() {
                if let Some(anchor) = anchor_of(r) {
                    let rec = s.rec_idx + k as u64;
                    offer(
                        &mut merged,
                        Candidate {
                            stream: i,
                            rec,
                            anchor,
                        },
                    );
                }
            }
        }
        // Winners per SPE in discovery (candidate-position) order —
        // the list the one-shot harvest builds.
        let anchors: Vec<SpeAnchor> = {
            let mut ordered = merged.clone();
            ordered.sort_unstable_by_key(|c| (c.stream, c.rec));
            ordered.into_iter().map(|c| c.anchor).collect()
        };

        let mut placed: Vec<Vec<GlobalEvent>> = Vec::with_capacity(self.streams.len());
        let mut losses: Vec<StreamLoss> = Vec::with_capacity(self.streams.len());
        for (i, s) in self.streams.iter().enumerate() {
            let records = &prev_records[i];
            let total_records = s.cursor.decoded_total() + records.len() as u64;
            let spe_event = |time_tb, r: &TraceRecord, stream_seq| GlobalEvent {
                time_tb,
                core: s.core,
                code: r.code,
                params: r.params.clone(),
                stream_seq,
            };
            let mut events = Vec::new();
            let mut unanchored = false;
            match &s.place {
                Placement::Ppe { .. } => {
                    for (seq, r) in (s.rec_idx..).zip(records) {
                        events.push(GlobalEvent {
                            time_tb: r.timestamp,
                            core: r.core,
                            code: r.code,
                            params: r.params.clone(),
                            stream_seq: seq,
                        });
                    }
                }
                Placement::SpeAnchored {
                    run_tb,
                    elapsed,
                    prev_dec,
                } => {
                    let (mut elapsed, mut prev_dec) = (*elapsed, *prev_dec);
                    for (seq, r) in (s.rec_idx..).zip(records) {
                        let dec = r.timestamp as u32;
                        elapsed += prev_dec.wrapping_sub(dec) as u64;
                        prev_dec = dec;
                        events.push(spe_event(run_tb.wrapping_add(elapsed), r, seq));
                    }
                }
                Placement::SpeWaiting { held } => {
                    let winner = merged
                        .iter()
                        .find(|c| TraceCore::Spe(c.anchor.spe) == s.core);
                    match winner {
                        Some(c) => {
                            let a = c.anchor;
                            let (mut elapsed, mut prev_dec) = (0u64, a.dec_start);
                            for (seq, r) in (0..).zip(held.iter().chain(records)) {
                                let dec = r.timestamp as u32;
                                elapsed += prev_dec.wrapping_sub(dec) as u64;
                                prev_dec = dec;
                                events.push(spe_event(a.run_tb.wrapping_add(elapsed), r, seq));
                            }
                        }
                        None => unanchored = total_records > 0,
                    }
                }
                Placement::SpeUnanchored => unanchored = total_records > 0,
            }
            placed.push(events);
            let mut gaps = s.gaps.clone();
            gaps.append(&mut prev_gaps[i]);
            losses.push(StreamLoss {
                core: s.core,
                decoded_records: total_records,
                tracer_dropped: s.dropped,
                gaps,
                unanchored,
            });
        }
        Preview {
            anchors,
            loss: LossReport { streams: losses },
            placed,
        }
    }

    /// The epoch's metadata: header, anchors, drop total and names.
    fn meta(&self, anchors: Vec<SpeAnchor>) -> ColumnarTrace {
        let mut meta = ColumnarTrace::empty(self.header);
        meta.set_anchors(anchors);
        meta.set_dropped(self.streams.iter().map(|s| s.dropped).sum());
        meta.set_ctx_names(&self.ctx_names);
        meta
    }

    /// Watermark mode: the committed store plus the sorted uncommitted
    /// tail (pending and preview events), with the committed index
    /// extended over it.
    fn watermark_epoch(&mut self, preview: Preview) -> Analysis {
        let Preview {
            anchors,
            loss,
            placed,
        } = preview;
        let mut tail: Vec<(SortKey, usize, GlobalEvent)> = Vec::new();
        for (i, (s, events)) in self.streams.iter().zip(placed).enumerate() {
            tail.extend(s.pending.iter().map(|e| (key(e), i, e.clone())));
            tail.extend(events.into_iter().map(|e| (key(&e), i, e)));
        }
        tail.sort_unstable_by_key(|&(k, src, _)| (k, src));

        // Append the batch to the committed store if there is one, else
        // refresh its metadata, and grow its index incrementally; the
        // delta is this epoch's incremental cost.
        let meta = self.meta(anchors);
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            self.committed = Arc::new(meta.with_appended(&self.committed, &batch));
        } else {
            let cols = Arc::make_mut(&mut self.committed);
            cols.set_anchors(meta.anchors.clone());
            cols.set_dropped(meta.dropped);
            cols.set_ctx_names(&self.ctx_names);
        }
        let committed_intervals: Arc<[SpeIntervals]> =
            build_intervals_columns(&self.committed).into();
        if std::mem::take(&mut self.index_dirty) {
            self.index = None;
        }
        let (index, delta) = match self.index.take() {
            Some(mut idx) => {
                let d = Arc::make_mut(&mut idx).extend_columns(
                    &self.committed,
                    Arc::clone(&committed_intervals),
                    &loss,
                );
                (idx, d)
            }
            None => {
                let idx = TraceIndex::build_columns(
                    &self.committed,
                    Arc::clone(&committed_intervals),
                    &loss,
                );
                let d = IndexDelta::rebuilt(&idx, self.committed.events.len());
                (Arc::new(idx), d)
            }
        };
        if delta.full_rebuild {
            self.full_rebuilds += 1;
        }
        self.last_delta = Some(delta);

        // Share the committed store outright when there is no tail;
        // otherwise append the tail to a copy, or — for corrupt
        // non-monotone input whose tail interleaves with committed
        // events — merge from scratch and leave the index to the epoch.
        let n = self.committed.events.len();
        let fast = n == 0 || {
            let ev = &self.committed.events;
            let p = self.committed.order().by_rank()[n - 1] as usize;
            tail.first().is_none_or(|t| {
                let last = (ev.times()[p], ev.tags()[p], ev.seq(p));
                (t.0, t.1) >= (last, self.committed_src[n - 1] as usize)
            })
        };
        let analysis = if tail.is_empty() {
            let a = Analysis::from_shared(Arc::clone(&self.committed), loss, self.par);
            a.preset_intervals(committed_intervals);
            a.preset_index(Arc::clone(&index));
            a
        } else if fast {
            let mut grown = EventColumns::with_capacity(tail.len());
            for (_, _, e) in &tail {
                grown.push(e.time_tb, e.core, e.code, &e.params, e.stream_seq);
            }
            let c = meta.with_appended(&self.committed, &grown);
            let snap_intervals: Arc<[SpeIntervals]> = build_intervals_columns(&c).into();
            let mut idx = (*index).clone();
            let _ = idx.extend_columns(&c, Arc::clone(&snap_intervals), &loss);
            let a = Analysis::from_shared(Arc::new(c), loss, self.par);
            a.preset_intervals(snap_intervals);
            a.preset_index(Arc::new(idx));
            a
        } else {
            let mut runs: Vec<StreamRun> = (self.streams.iter().enumerate())
                .map(|(i, s)| StreamRun::new(i, s.core))
                .collect();
            for (_, i, e) in &tail {
                runs[*i].push(e.time_tb, e.core, e.code, &e.params, e.stream_seq);
            }
            let runs: Vec<&StreamRun> = runs.iter().collect();
            // The merge reads the base core-major, sources included.
            let ranks = self.committed.order().ranks();
            let src: Vec<u32> = ranks
                .iter()
                .map(|&g| self.committed_src[g as usize])
                .collect();
            let (events, _) = merge(&self.committed.events, Some(&src), &runs);
            self.full_rebuilds += 1;
            Analysis::from_shared(Arc::new(meta.with_events(events)), loss, self.par)
        };
        self.index = Some(index);
        analysis
    }

    /// Sequential mode: merges settled streams into the base, then
    /// builds the epoch — the base alone when no stream is open, the
    /// base plus one overlay part per open stream when the parts can
    /// be answered apart, else the merged epoch.
    fn overlay_epoch(&mut self, preview: Preview) -> Analysis {
        let Preview {
            anchors,
            loss,
            placed,
        } = preview;
        self.merge_settled();
        let meta = self.meta(anchors);
        let mut parts = Vec::new();
        for (s, events) in self.streams.iter().zip(placed) {
            if s.run.len() == 0 && events.is_empty() {
                continue;
            }
            let mut tail = s.run.continuation();
            for e in &events {
                tail.push(e.time_tb, e.core, e.code, &e.params, e.stream_seq);
            }
            parts.push(Part::new(Arc::clone(&s.run), tail));
        }
        let base_events = self.committed.events.len();
        let total = base_events + parts.iter().map(Part::len).sum::<usize>();

        let rebuilt = self.index_dirty;
        if rebuilt {
            self.rebuild_base_index(&loss);
        }
        if parts.is_empty() && (self.index.is_none() || self.index_loss == loss) {
            // Every stream is in the base and the base index is current:
            // share both, refreshing the metadata the epoch changed.
            let base = &self.committed;
            if base.anchors != meta.anchors
                || base.dropped != meta.dropped
                || !base.ctx_entries().eq(meta.ctx_entries())
            {
                let base = Arc::make_mut(&mut self.committed);
                base.set_anchors(meta.anchors.clone());
                base.set_dropped(meta.dropped);
                base.set_ctx_names(&self.ctx_names);
            }
            let a = Analysis::from_shared(Arc::clone(&self.committed), loss, self.par);
            if let Some(idx) = &self.index {
                a.preset_index(Arc::clone(idx));
            }
            self.last_events = total;
            return a;
        }
        if let Some(idx) = self.index.as_ref().filter(|_| !rebuilt) {
            self.last_delta = Some(IndexDelta {
                appended_events: total.saturating_sub(self.last_events),
                blocks_total: idx.lane_checkpoints(),
                blocks_rebuilt: 0,
                lanes_total: idx.spes().count(),
                lanes_rebuilt: 0,
                full_rebuild: false,
            });
        }
        self.last_events = total;

        // The parts answer apart only if each stream owns its cores and
        // each core's times run forward (see `crate::overlay`).
        let mut classes: Vec<Option<u8>> = self.streams.iter().map(StreamState::class).collect();
        classes.sort_unstable();
        let owned = classes.windows(2).all(|w| w[0] != w[1]);
        if !(owned && parts.iter().all(Part::ordered)) {
            let runs: Vec<&StreamRun> = parts.iter().flat_map(Part::runs).collect();
            let (events, _) = merge(&self.committed.events, Some(&self.committed_src), &runs);
            self.full_rebuilds += 1;
            return Analysis::from_shared(Arc::new(meta.with_events(events)), loss, self.par);
        }

        let span = parts
            .iter()
            .filter_map(Part::span)
            .chain((base_events > 0).then(|| (self.committed.start_tb(), self.committed.end_tb())))
            .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))
            .unwrap_or((0, 0));
        let suspects = suspect_ranges_with(&loss, span.0, span.1, |si, seq| {
            if let Some(known) = &self.streams[si].in_base {
                let at = known.partition_point(|&(s, _)| s < seq);
                return known.get(at).filter(|&&(s, _)| s == seq).map(|&(_, t)| t);
            }
            parts
                .iter()
                .find(|p| p.stream() == si)
                .and_then(|p| p.time_of_seq(seq))
        });
        let overlay = Overlay {
            meta,
            base: Arc::clone(&self.committed),
            base_index: self.index.clone(),
            parts,
            suspects,
            merged: OnceLock::new(),
        };
        Analysis::from_overlay(overlay, loss, self.par)
    }

    /// Sequential mode: folds every settled stream's run into the base
    /// with one linear merge, remembering the event times its gaps are
    /// bracketed by, and marks the base index for a rebuild.
    fn merge_settled(&mut self) {
        let ready: Vec<usize> = (0..self.streams.len())
            .filter(|&i| self.streams[i].settled() && self.streams[i].in_base.is_none())
            .collect();
        if ready.is_empty() {
            return;
        }
        let runs: Vec<&StreamRun> = ready
            .iter()
            .map(|&i| self.streams[i].run.as_ref())
            .filter(|r| r.len() > 0)
            .collect();
        if !runs.is_empty() {
            let (events, src) = merge(&self.committed.events, Some(&self.committed_src), &runs);
            self.committed = Arc::new(self.committed.with_events(events));
            self.committed_src = src;
            self.index_dirty = true;
        }
        for i in ready {
            let s = &mut self.streams[i];
            let mut known: Vec<(u64, u64)> = (s.gaps.iter())
                .flat_map(|g| [g.records_before.checked_sub(1), Some(g.records_before)])
                .flatten()
                .filter_map(|seq| s.run.time_of_seq(seq).map(|t| (seq, t)))
                .collect();
            known.sort_unstable();
            known.dedup();
            s.in_base = Some(known);
            s.run = Arc::new(StreamRun::new(i, s.core));
        }
    }

    /// Rebuilds the base index from scratch, once per merge. Its suspect
    /// ranges follow `loss`; an epoch whose loss has moved on answers
    /// windows as an overlay epoch instead of rebuilding.
    fn rebuild_base_index(&mut self, loss: &LossReport) {
        self.index_dirty = false;
        if self.committed.events.is_empty() {
            self.index = None;
            return;
        }
        let intervals = build_intervals_columns(&self.committed);
        let idx = TraceIndex::build_columns(&self.committed, intervals, loss);
        self.last_delta = Some(IndexDelta::rebuilt(&idx, self.committed.events.len()));
        self.index = Some(Arc::new(idx));
        self.index_loss = loss.clone();
        self.full_rebuilds += 1;
    }
}

/// Incremental-parse position within a serialized trace image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ImageState {
    /// Waiting for magic + header (36 bytes).
    Header,
    /// Waiting for the u32 stream count that follows `header`.
    StreamCount { header: TraceHeader },
    /// Waiting for the next 20-byte stream directory entry.
    StreamHeader { left: u32 },
    /// Streaming `left` record bytes into stream `id`.
    StreamBytes {
        id: StreamId,
        left: u64,
        streams_left: u32,
    },
    /// Waiting for the u32 name count.
    NameCount,
    /// Waiting for the next 8-byte name entry header.
    NameHeader { left: u32 },
    /// Waiting for `len` utf-8 name bytes.
    NameBytes { ctx: u32, len: usize, left: u32 },
    /// The image is structurally complete; the session is finished.
    Done,
}

/// An incremental parser of the serialized `.pdt` image layout feeding
/// an [`IngestSession`]: push byte chunks as a trace file grows and
/// snapshot at any point. Record bytes pass straight through to the
/// per-stream cursors without buffering; only the fixed-size header,
/// directory and name-table pieces are carried across chunk
/// boundaries.
#[derive(Debug)]
pub struct ImageIngest {
    state: ImageState,
    carry: Vec<u8>,
    par: Parallelism,
    session: Option<IngestSession>,
    names: Vec<(u32, String)>,
    consumed: u64,
}

impl Default for ImageIngest {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageIngest {
    /// Starts an empty image parse.
    pub fn new() -> Self {
        ImageIngest {
            state: ImageState::Header,
            carry: Vec::new(),
            par: Parallelism::Serial,
            session: None,
            names: Vec::new(),
            consumed: 0,
        }
    }

    /// Sets the [`Parallelism`] for the inner session's index builds.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Total image bytes consumed so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// Whether the full image (through the name table) has been parsed.
    pub fn is_complete(&self) -> bool {
        self.state == ImageState::Done
    }

    /// The inner session, once the header and stream count have
    /// arrived.
    pub fn session(&self) -> Option<&IngestSession> {
        self.session.as_ref()
    }

    /// Takes a snapshot of the inner session; `None` until the header
    /// and stream count have arrived.
    pub fn snapshot(&mut self) -> Option<Arc<Analysis>> {
        self.session.as_mut().map(IngestSession::snapshot)
    }

    /// Consumes the next chunk of the image.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on structural corruption (bad magic,
    /// unsupported version, non-utf-8 name). Truncation is not an
    /// error here — the parser simply waits for more bytes; a
    /// premature end is reported by [`finish`](Self::finish).
    pub fn push(&mut self, mut chunk: &[u8]) -> Result<(), FormatError> {
        self.consumed += chunk.len() as u64;
        while !chunk.is_empty() {
            match self.state {
                ImageState::Header => {
                    if !fill(&mut self.carry, 36, &mut chunk) {
                        return Ok(());
                    }
                    if &self.carry[..4] != MAGIC {
                        return Err(FormatError::BadMagic);
                    }
                    let version = u16::from_le_bytes([self.carry[4], self.carry[5]]);
                    if version != VERSION {
                        return Err(FormatError::BadVersion { found: version });
                    }
                    let header = TraceHeader {
                        version,
                        num_ppe_threads: self.carry[6],
                        num_spes: self.carry[7],
                        core_hz: le_u64(&self.carry[8..16]),
                        timebase_divider: le_u64(&self.carry[16..24]),
                        dec_start: le_u32(&self.carry[24..28]),
                        group_mask: le_u32(&self.carry[28..32]),
                        spe_buffer_bytes: le_u32(&self.carry[32..36]),
                    };
                    self.carry.clear();
                    self.state = ImageState::StreamCount { header };
                }
                ImageState::StreamCount { header } => {
                    if !fill(&mut self.carry, 4, &mut chunk) {
                        return Ok(());
                    }
                    let n = le_u32(&self.carry[..4]);
                    self.carry.clear();
                    let session = IngestSession::new(header).with_parallelism(self.par);
                    self.session = Some(session.expect_streams(n as usize));
                    self.state = if n == 0 {
                        ImageState::NameCount
                    } else {
                        ImageState::StreamHeader { left: n }
                    };
                }
                ImageState::StreamHeader { left } => {
                    if !fill(&mut self.carry, 20, &mut chunk) {
                        return Ok(());
                    }
                    let core = TraceCore::from_tag(self.carry[0]);
                    let len = le_u64(&self.carry[4..12]);
                    let dropped = le_u64(&self.carry[12..20]);
                    self.carry.clear();
                    let session = header_session(&mut self.session)?;
                    let id = session.add_stream(core, dropped);
                    if len == 0 {
                        session.close_stream(id);
                        self.state = next_stream_state(left - 1);
                    } else {
                        self.state = ImageState::StreamBytes {
                            id,
                            left: len,
                            streams_left: left - 1,
                        };
                    }
                }
                ImageState::StreamBytes {
                    id,
                    left,
                    streams_left,
                } => {
                    let take = (left.min(chunk.len() as u64)) as usize;
                    let session = header_session(&mut self.session)?;
                    session.append(id, &chunk[..take]);
                    chunk = &chunk[take..];
                    let left = left - take as u64;
                    if left == 0 {
                        session.close_stream(id);
                        self.state = next_stream_state(streams_left);
                    } else {
                        self.state = ImageState::StreamBytes {
                            id,
                            left,
                            streams_left,
                        };
                    }
                }
                ImageState::NameCount => {
                    if !fill(&mut self.carry, 4, &mut chunk) {
                        return Ok(());
                    }
                    let n = le_u32(&self.carry[..4]);
                    self.carry.clear();
                    if n == 0 {
                        self.complete()?;
                    } else {
                        self.state = ImageState::NameHeader { left: n };
                    }
                }
                ImageState::NameHeader { left } => {
                    if !fill(&mut self.carry, 8, &mut chunk) {
                        return Ok(());
                    }
                    let ctx = le_u32(&self.carry[..4]);
                    let len = le_u32(&self.carry[4..8]) as usize;
                    self.carry.clear();
                    if len == 0 {
                        self.names.push((ctx, String::new()));
                        if left == 1 {
                            self.complete()?;
                        } else {
                            self.state = ImageState::NameHeader { left: left - 1 };
                        }
                    } else {
                        self.state = ImageState::NameBytes { ctx, len, left };
                    }
                }
                ImageState::NameBytes { ctx, len, left } => {
                    if !fill(&mut self.carry, len, &mut chunk) {
                        return Ok(());
                    }
                    let name = String::from_utf8(std::mem::take(&mut self.carry))
                        .map_err(|_| FormatError::BadName)?;
                    self.names.push((ctx, name));
                    if left == 1 {
                        self.complete()?;
                    } else {
                        self.state = ImageState::NameHeader { left: left - 1 };
                    }
                }
                // Trailing bytes past the name table are ignored, as in
                // the one-shot parser.
                ImageState::Done => return Ok(()),
            }
        }
        Ok(())
    }

    /// Declares the image complete.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Truncated`] naming the piece being read
    /// if the bytes pushed so far do not form a whole image.
    pub fn finish(&mut self) -> Result<(), FormatError> {
        match self.state {
            ImageState::Done => Ok(()),
            ImageState::Header => Err(FormatError::Truncated { reading: "header" }),
            ImageState::StreamCount { .. } => Err(FormatError::Truncated {
                reading: "stream count",
            }),
            ImageState::StreamHeader { .. } => Err(FormatError::Truncated {
                reading: "stream header",
            }),
            ImageState::StreamBytes { .. } => Err(FormatError::Truncated {
                reading: "stream bytes",
            }),
            ImageState::NameCount => Err(FormatError::Truncated {
                reading: "name table",
            }),
            ImageState::NameHeader { .. } => Err(FormatError::Truncated {
                reading: "name entry",
            }),
            ImageState::NameBytes { .. } => Err(FormatError::Truncated {
                reading: "name bytes",
            }),
        }
    }

    /// Seals the session once the name table has fully arrived.
    fn complete(&mut self) -> Result<(), FormatError> {
        let session = header_session(&mut self.session)?;
        session.set_ctx_names(std::mem::take(&mut self.names));
        session.finish();
        self.state = ImageState::Done;
        Ok(())
    }
}

/// Moves bytes from `chunk` into `carry` until it holds `need` bytes;
/// true when full.
fn fill(carry: &mut Vec<u8>, need: usize, chunk: &mut &[u8]) -> bool {
    let take = (need - carry.len()).min(chunk.len());
    carry.extend_from_slice(&chunk[..take]);
    *chunk = &chunk[take..];
    carry.len() == need
}

fn next_stream_state(streams_left: u32) -> ImageState {
    if streams_left == 0 {
        ImageState::NameCount
    } else {
        ImageState::StreamHeader { left: streams_left }
    }
}

/// The session the header and stream count created. Every parse state
/// past `StreamCount` has one; reaching one without it reads as a
/// truncated header rather than a panic.
fn header_session(session: &mut Option<IngestSession>) -> Result<&mut IngestSession, FormatError> {
    session
        .as_mut()
        .ok_or(FormatError::Truncated { reading: "header" })
}

/// Little-endian value of `b`, at most 8 bytes long.
fn le(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |acc, &x| acc << 8 | u64::from(x))
}

fn le_u32(b: &[u8]) -> u32 {
    le(b) as u32
}

fn le_u64(b: &[u8]) -> u64 {
    le(b)
}

/// Offers `cand` into a best-per-SPE list, keeping the minimal
/// position per SPE.
fn offer(best: &mut Vec<Candidate>, cand: Candidate) {
    match best.iter_mut().find(|c| c.anchor.spe == cand.anchor.spe) {
        Some(c) => {
            if (cand.stream, cand.rec) < (c.stream, c.rec) {
                *c = cand;
            }
        }
        None => best.push(cand),
    }
}

/// The sync anchor a `PpeCtxRun` record offers, if it is one.
fn anchor_of(r: &TraceRecord) -> Option<SpeAnchor> {
    match r.params[..] {
        [ctx, spe, dec_start, ..] if r.code == EventCode::PpeCtxRun => Some(SpeAnchor {
            spe: spe as u8,
            ctx: ctx as u32,
            run_tb: r.timestamp,
            dec_start: dec_start as u32,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Analysis;
    use pdt::{EventCode, TraceFile, TraceStream};

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

    /// The session-test fixture: one PPE stream of anchors, one full
    /// lifecycle per SPE.
    fn trace(spes: u8) -> TraceFile {
        let mut ppe = Vec::new();
        for spe in 0..spes {
            TraceRecord {
                core: TraceCore::Ppe(0),
                code: EventCode::PpeCtxRun,
                timestamp: 100 + spe as u64,
                params: vec![spe as u64, spe as u64, u32::MAX as u64],
            }
            .encode_into(&mut ppe);
        }
        let mut streams = vec![TraceStream {
            core: TraceCore::Ppe(0),
            bytes: ppe,
            dropped: 0,
        }];
        for spe in 0..spes {
            let mut bytes = Vec::new();
            let mut dec = u32::MAX;
            for (code, step, params) in [
                (EventCode::SpeCtxStart, 0u32, vec![spe as u64]),
                (EventCode::SpeDmaGet, 500, vec![0x1000, 0x100000, 4096, 1]),
                (EventCode::SpeTagWaitBegin, 10, vec![2, 0]),
                (EventCode::SpeTagWaitEnd, 800, vec![2]),
                (EventCode::SpeUser, 100, vec![7, 1, 0]),
                (EventCode::SpeStop, 1000, vec![0]),
            ] {
                dec = dec.wrapping_sub(step);
                TraceRecord {
                    core: TraceCore::Spe(spe),
                    code,
                    timestamp: dec as u64,
                    params,
                }
                .encode_into(&mut bytes);
            }
            streams.push(TraceStream {
                core: TraceCore::Spe(spe),
                bytes,
                dropped: 0,
            });
        }
        TraceFile {
            header: header(spes),
            streams,
            ctx_names: (0..spes as u32).map(|c| (c, format!("k{c}"))).collect(),
        }
    }

    /// Ingests `t` in `chunk`-byte pieces per stream and finishes.
    fn ingest_chunked(t: &TraceFile, chunk: usize) -> IngestSession {
        let mut s = IngestSession::new(t.header).with_parallelism(Parallelism::Workers(2));
        let ids: Vec<StreamId> = t
            .streams
            .iter()
            .map(|st| s.add_stream(st.core, st.dropped))
            .collect();
        s.set_ctx_names(t.ctx_names.clone());
        let mut offs = vec![0usize; t.streams.len()];
        loop {
            let mut progressed = false;
            for (i, st) in t.streams.iter().enumerate() {
                if offs[i] < st.bytes.len() {
                    let end = (offs[i] + chunk).min(st.bytes.len());
                    s.append(ids[i], &st.bytes[offs[i]..end]);
                    offs[i] = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        s.finish();
        s
    }

    /// Asserts a finished session's snapshot equals the one-shot
    /// analysis of `t` in every observable product.
    fn assert_matches_oneshot(s: &mut IngestSession, t: &TraceFile) {
        let snap = s.snapshot();
        let one = Analysis::of(t)
            .parallelism(Parallelism::Workers(2))
            .run()
            .unwrap();
        let (sa, oa) = (snap.analyzed(), one.analyzed());
        assert_eq!(sa.events, oa.events);
        assert_eq!(sa.anchors, oa.anchors);
        assert_eq!(sa.ctx_names, oa.ctx_names);
        assert_eq!(sa.dropped, oa.dropped);
        assert_eq!(sa.header, oa.header);
        assert_eq!(snap.loss(), one.loss());
        assert_eq!(snap.intervals(), one.intervals());
        assert_eq!(snap.index(), one.index());
        assert_eq!(snap.stats(), one.stats());
    }

    #[test]
    fn chunked_equals_oneshot_for_many_chunk_sizes() {
        let t = trace(3);
        for chunk in [1, 7, 16, 33, 4096] {
            let mut s = ingest_chunked(&t, chunk);
            assert_matches_oneshot(&mut s, &t);
        }
    }

    #[test]
    fn chunked_equals_oneshot_on_damaged_streams() {
        let mut t = trace(3);
        t.streams[1].bytes[16] = 0; // zero granule count mid-stream
        let torn = t.streams[2].bytes.len() - 5;
        t.streams[2].bytes.truncate(torn); // torn tail
        t.streams[0].bytes[3] = 0xee; // corrupt a PPE record header
        for chunk in [1, 5, 16, 64] {
            let mut s = ingest_chunked(&t, chunk);
            assert_matches_oneshot(&mut s, &t);
        }
    }

    #[test]
    fn unanchored_streams_match_oneshot() {
        let mut t = trace(2);
        t.streams[0].bytes.clear(); // no PPE sync records at all
        for chunk in [1, 16, 1024] {
            let mut s = ingest_chunked(&t, chunk);
            assert_matches_oneshot(&mut s, &t);
        }
    }

    #[test]
    fn mid_stream_snapshots_equal_prefix_oneshot() {
        let t = trace(2);
        // Cut every stream at a few ragged byte positions; a snapshot
        // of the open session must equal the one-shot analysis of the
        // trace truncated to those prefixes.
        for cuts in [[7usize, 23, 41], [16, 16, 16], [1, 96, 50]] {
            let mut s = IngestSession::new(t.header).with_parallelism(Parallelism::Workers(2));
            let ids: Vec<StreamId> = t
                .streams
                .iter()
                .map(|st| s.add_stream(st.core, st.dropped))
                .collect();
            s.set_ctx_names(t.ctx_names.clone());
            let mut prefix = t.clone();
            for (i, st) in t.streams.iter().enumerate() {
                let cut = cuts[i].min(st.bytes.len());
                s.append(ids[i], &st.bytes[..cut]);
                prefix.streams[i].bytes.truncate(cut);
            }
            let snap = s.snapshot();
            let one = Analysis::of(&prefix)
                .parallelism(Parallelism::Workers(2))
                .run()
                .unwrap();
            assert_eq!(snap.analyzed().events, one.analyzed().events, "{cuts:?}");
            assert_eq!(snap.analyzed().anchors, one.analyzed().anchors);
            assert_eq!(snap.loss(), one.loss(), "{cuts:?}");
            assert_eq!(snap.index(), one.index(), "{cuts:?}");
            // The session keeps going: feed the rest and re-verify.
            for (i, st) in t.streams.iter().enumerate() {
                let cut = cuts[i].min(st.bytes.len());
                s.append(ids[i], &st.bytes[cut..]);
            }
            s.finish();
            assert_matches_oneshot(&mut s, &t);
        }
    }

    #[test]
    fn snapshots_are_frozen_epochs() {
        let t = trace(2);
        let mut s = IngestSession::new(t.header).with_parallelism(Parallelism::Serial);
        let ids: Vec<StreamId> = t
            .streams
            .iter()
            .map(|st| s.add_stream(st.core, st.dropped))
            .collect();
        s.set_ctx_names(t.ctx_names.clone());
        s.append(ids[0], &t.streams[0].bytes);
        s.close_stream(ids[0]);
        s.append(ids[1], &t.streams[1].bytes[..32]);
        let early = s.snapshot();
        let early_events = early.analyzed().events.clone();
        // Appending and snapshotting again must not disturb the pinned
        // epoch.
        s.append(ids[1], &t.streams[1].bytes[32..]);
        s.append(ids[2], &t.streams[2].bytes);
        s.finish();
        let late = s.snapshot();
        assert_eq!(early.analyzed().events, early_events);
        assert!(late.analyzed().events.len() > early_events.len());
    }

    #[test]
    fn snapshot_is_cached_until_new_bytes_arrive() {
        let t = trace(1);
        let mut s = ingest_chunked(&t, 16);
        let a = s.snapshot();
        let b = s.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn image_ingest_matches_oneshot_at_every_chunk_size() {
        let t = trace(2);
        let image = t.to_bytes();
        for chunk in [1usize, 3, 17, 256, image.len()] {
            let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
            for piece in image.chunks(chunk) {
                ing.push(piece).unwrap();
            }
            assert!(ing.is_complete(), "chunk={chunk}");
            ing.finish().unwrap();
            let snap = ing.snapshot().unwrap();
            let one = Analysis::of(&t)
                .parallelism(Parallelism::Workers(2))
                .run()
                .unwrap();
            assert_eq!(snap.analyzed().events, one.analyzed().events);
            assert_eq!(snap.analyzed().ctx_names, one.analyzed().ctx_names);
            assert_eq!(snap.loss(), one.loss());
            assert_eq!(snap.index(), one.index());
        }
    }

    #[test]
    fn image_ingest_rejects_corruption_and_reports_truncation() {
        let t = trace(1);
        let image = t.to_bytes();
        let mut bad = image.clone();
        bad[0] = b'X';
        assert_eq!(ImageIngest::new().push(&bad), Err(FormatError::BadMagic));
        let mut ing = ImageIngest::new();
        ing.push(&image[..image.len() - 1]).unwrap();
        assert!(!ing.is_complete());
        assert!(ing.finish().is_err());
        ing.push(&image[image.len() - 1..]).unwrap();
        assert!(ing.is_complete());
        assert!(ing.finish().is_ok());
    }

    /// A trace whose tail (SpeUser records after SpeStop) changes no
    /// intervals: the incremental-index bound is measurable.
    fn tailable_trace(spes: u8, users: usize) -> TraceFile {
        let mut t = trace(spes);
        for st in t.streams.iter_mut().skip(1) {
            // Continue the decrementer below the fixture's last value.
            let mut dec = (u32::MAX - 2410) as u64;
            for k in 0..users {
                dec -= 3;
                TraceRecord {
                    core: st.core,
                    code: EventCode::SpeUser,
                    timestamp: dec,
                    params: vec![9, (k % 2 + 1) as u64, 0],
                }
                .encode_into(&mut st.bytes);
            }
        }
        t
    }

    #[test]
    fn appending_a_small_tail_rebuilds_few_index_blocks() {
        let t = tailable_trace(4, 600);
        let mut s = IngestSession::new(t.header).with_parallelism(Parallelism::Workers(2));
        let ids: Vec<StreamId> = t
            .streams
            .iter()
            .map(|st| s.add_stream(st.core, st.dropped))
            .collect();
        s.set_ctx_names(t.ctx_names.clone());
        s.append(ids[0], &t.streams[0].bytes);
        s.close_stream(ids[0]);
        for (i, st) in t.streams.iter().enumerate().skip(1) {
            let head = st.bytes.len() * 99 / 100 / 16 * 16;
            s.append(ids[i], &st.bytes[..head]);
        }
        let _ = s.snapshot(); // builds the committed index
        for (i, st) in t.streams.iter().enumerate().skip(1) {
            let head = st.bytes.len() * 99 / 100 / 16 * 16;
            s.append(ids[i], &st.bytes[head..]);
        }
        s.finish();
        assert_matches_oneshot(&mut s, &t);
        let delta = s.last_delta().unwrap();
        assert!(!delta.full_rebuild, "tail append must extend, not rebuild");
        assert_eq!(delta.lanes_rebuilt, 0, "intervals unchanged");
        assert!(
            delta.rebuilt_fraction() <= 0.05,
            "rebuilt {}/{} blocks",
            delta.blocks_rebuilt,
            delta.blocks_total
        );
    }
}
