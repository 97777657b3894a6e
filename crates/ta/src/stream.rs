//! Incremental streaming ingestion behind snapshot epochs.
//!
//! [`IngestSession`] accepts a trace as appended byte chunks — one
//! [`LossyCursor`] per stream survives chunk boundaries, including
//! resync scans across torn records — and [`IngestSession::snapshot`]
//! returns an immutable [`Analysis`] epoch behind an [`Arc`]: readers
//! query it concurrently while ingestion continues, and a snapshot
//! taken after [`finish`](IngestSession::finish) is byte-identical to
//! the one-shot [`Analysis::of`] over the same trace, no matter how the
//! bytes were chunked or in which order the streams' bytes arrived.
//!
//! ## Base plus overlays
//!
//! Both containers store a trace's streams end to end (`.pdt` stream
//! by stream, `.pdt2` region by region), so a growing file has
//! complete streams, at most one open stream, and streams not yet
//! announced — whose events may sort anywhere in the ones already
//! seen. The session is told the stream count up front
//! ([`IngestSession::new`]). Each open stream places its events into
//! an append-only columnar run (see the `overlay` module); once a
//! stream is closed and placed, one linear merge folds it into the
//! *base* store and the base index is rebuilt — one full rebuild per
//! stream directory entry. A snapshot is the base plus a frozen view of
//! each run, so `summarize` and the event count cost O(tail); products
//! that need the global order merge once per epoch, on first use.
//!
//! Streams may also be appended side by side, in any order. An SPE
//! stream's records wait until its sync anchor is final — once every
//! PPE stream before the winning `PpeCtxRun` candidate has closed —
//! and it gives up on an anchor only once every declared stream is
//! registered and every PPE stream is closed. An epoch whose runs
//! cannot be answered apart (two open PPE streams, two streams on one
//! SPE, or a core's times running backwards) is merged up front and
//! counted as a full rebuild.
//!
//! ## Epoch semantics
//!
//! Stores sit behind `Arc`s and are mutated via [`Arc::make_mut`]: a
//! snapshot pins its epoch, and the first write after a snapshot that
//! a reader still holds copies the store once, leaving the epoch
//! frozen. An epoch with open streams shares the base index and
//! answers windows without building one; an epoch without open streams
//! shares the base store and index outright.
//! [`IngestSession::last_delta`] and
//! [`full_rebuilds`](IngestSession::full_rebuilds) account for the
//! work: an overlay epoch's delta counts the lane checkpoints the open
//! runs wrote since the previous epoch.
//!
//! [`ImageIngest`] layers an incremental parser of the serialized
//! `.pdt` image (header, stream directory, record bytes, name table)
//! on top, so a growing trace file can be followed as it is written —
//! the transport behind `ta-serve` and `ta-cli follow`.

use std::sync::{Arc, OnceLock};

use pdt::{
    DecodeGap, EventCode, FormatError, LossyCursor, TraceCore, TraceHeader, TraceRecord,
    HEADER_BYTES, MAGIC, VERSION,
};

use crate::analyze::{GlobalEvent, SpeAnchor};
use crate::columns::ColumnarTrace;
use crate::exec::Parallelism;
use crate::index::{suspect_ranges_with, IndexDelta, TraceIndex};
use crate::intervals::build_intervals_columns;
use crate::loss::{LossReport, StreamLoss};
use crate::overlay::{merge, Overlay, Part, StreamRun};
use crate::session::Analysis;

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
    /// PPE records carry timebase timestamps directly.
    Ppe,
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
    /// Placed events not yet merged into the base.
    run: Arc<StreamRun>,
    /// Lane checkpoint writes of `run` already reported by an epoch's
    /// [`IndexDelta`].
    reported_writes: usize,
    /// Set once the run is merged into the base, to the times of the
    /// events the stream's gaps are bracketed by, as `(stream_seq,
    /// time)` pairs sorted by sequence.
    in_base: Option<Vec<(u64, u64)>>,
}

impl StreamState {
    /// The stream can place no more events, so its run may join the
    /// base.
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
/// Construction mirrors the trace-file layout: declare the header and
/// the stream count, register streams in directory order, append each
/// stream's record bytes as they arrive, and supply the context-name
/// table whenever it is known (it arrives last in a streamed image).
/// After [`finish`](Self::finish), a snapshot equals the one-shot
/// analysis of the assembled trace exactly.
#[derive(Debug)]
pub struct IngestSession {
    header: TraceHeader,
    par: Parallelism,
    /// Streams the trace declares; until that many are registered, an
    /// SPE stream without an anchor candidate keeps waiting, since a
    /// stream not yet seen may be a PPE stream that anchors it.
    declared: usize,
    streams: Vec<StreamState>,
    /// Best anchor candidate per SPE seen so far (minimal position) —
    /// the incremental form of the one-shot harvest.
    best: Vec<Candidate>,
    ctx_names: Vec<(u32, String)>,
    /// Every settled stream merged, core-major. Shared with snapshot
    /// epochs.
    base: Arc<ColumnarTrace>,
    /// Source stream of each base event, in base order; keeps merges
    /// exact.
    base_src: Vec<u32>,
    /// Index over the base, shared with epochs; `None` while the base
    /// is empty.
    index: Option<Arc<TraceIndex>>,
    /// Set when the base changed and its index must be rebuilt.
    index_dirty: bool,
    /// The loss report the base index's suspect ranges were computed
    /// from.
    index_loss: LossReport,
    /// The index work of the last epoch.
    last_delta: Option<IndexDelta>,
    /// Events in the last epoch.
    last_events: usize,
    full_rebuilds: u64,
    finished: bool,
    dirty: bool,
    cache: Option<Arc<Analysis>>,
    epochs: u64,
}

impl IngestSession {
    /// Starts a session for a trace with `header` and `streams`
    /// streams. The stream count only delays giving up on an SPE
    /// stream's anchor; [`finish`](Self::finish) takes the streams
    /// registered by then as all of them.
    pub fn new(header: TraceHeader, streams: usize) -> Self {
        IngestSession {
            header,
            par: Parallelism::Serial,
            declared: streams,
            streams: Vec::new(),
            best: Vec::new(),
            ctx_names: Vec::new(),
            base: Arc::new(ColumnarTrace::empty(header)),
            base_src: Vec::new(),
            index: None,
            index_dirty: false,
            index_loss: LossReport::default(),
            last_delta: None,
            last_events: 0,
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
            Placement::Ppe
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
            run: Arc::new(StreamRun::new(id, core)),
            reported_writes: 0,
            in_base: None,
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
        s.cursor.push(chunk);
        self.drain_stream(id.0);
        self.resolve_anchors();
    }

    /// Marks `id`'s stream complete: a trailing partial record becomes
    /// a decode gap, and the stream's run joins the base at the next
    /// snapshot once its events are placed.
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

    /// Closes every stream and seals the session; the streams
    /// registered so far are all the trace has. Snapshots taken
    /// afterwards share the base store — no per-epoch copy.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.declared = self.streams.len();
        for i in 0..self.streams.len() {
            self.close_stream(StreamId(i));
        }
        self.resolve_anchors();
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

    /// Placed events of streams not yet merged into the base.
    pub fn open_events(&self) -> usize {
        self.streams.iter().map(|s| s.run.len()).sum()
    }

    /// Snapshot epochs taken so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The index work of the most recent epoch: the base index's lane
    /// checkpoints and the open runs', and how many of them the epoch
    /// wrote. An epoch that only grew the runs writes just the
    /// checkpoints their new intervals completed. `None` until the
    /// first snapshot.
    pub fn last_delta(&self) -> Option<IndexDelta> {
        self.last_delta
    }

    /// Indexes built from scratch: the base index after each merge
    /// into it, and each epoch whose runs cannot be answered apart and
    /// is merged up front.
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

    /// Places one decoded record into its stream's run: PPE records
    /// carry their time (and offer anchor candidates); SPE records
    /// accumulate decrementer time or park until their anchor is final.
    fn place_record(&mut self, i: usize, r: TraceRecord) {
        let s = &mut self.streams[i];
        let seq = s.rec_idx;
        s.rec_idx += 1;
        let (time_tb, core) = match &mut s.place {
            Placement::Ppe => {
                if let Some(anchor) = anchor_of(&r) {
                    let cand = Candidate {
                        stream: i,
                        rec: seq,
                        anchor,
                    };
                    offer(&mut self.best, cand);
                }
                (r.timestamp, r.core) // records carry per-thread tags
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
                (run_tb.wrapping_add(*elapsed), s.core)
            }
            Placement::SpeUnanchored => return, // decoded but unusable
        };
        Arc::make_mut(&mut s.run).push(time_tb, core, r.code, &r.params, seq);
    }

    /// Promotes waiting SPE streams whose anchor became final: the best
    /// candidate wins once every PPE stream before it has closed (no
    /// earlier candidate can appear), matching the one-shot
    /// first-candidate harvest. With every declared stream registered,
    /// every PPE stream closed and no candidate, the stream is
    /// unanchored and its records discarded — also the one-shot rule.
    fn resolve_anchors(&mut self) {
        let all_ppe_closed = self.streams.len() >= self.declared
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

    /// Takes an immutable snapshot epoch: everything placed so far plus
    /// a preview of every open stream's undecoded carry, exactly what
    /// the one-shot analysis of all bytes appended so far would
    /// produce. Cheap when nothing changed (returns the cached epoch)
    /// and after [`finish`](Self::finish) (shares the base store).
    pub fn snapshot(&mut self) -> Arc<Analysis> {
        if !self.dirty {
            if let Some(cached) = &self.cache {
                return Arc::clone(cached);
            }
        }
        let preview = self.preview();
        let epoch = Arc::new(self.epoch(preview));
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
                Placement::Ppe => {
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
            loss: LossReport {
                streams: losses,
                truncated: None,
            },
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

    /// Merges settled streams into the base, then builds the epoch —
    /// the base alone when no stream is open, the base plus one overlay
    /// part per open stream when the parts can be answered apart, else
    /// the merged epoch.
    fn epoch(&mut self, preview: Preview) -> Analysis {
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
        let base_events = self.base.events.len();
        let total = base_events + parts.iter().map(Part::len).sum::<usize>();

        let rebuilt = self.index_dirty;
        if rebuilt {
            self.rebuild_base_index(&loss);
        }
        // Every stream is in the base and the base index is current.
        let shared = parts.is_empty() && (self.index.is_none() || self.index_loss == loss);
        // The parts answer apart only if each stream owns its cores and
        // each core's times run forward (see `crate::overlay`).
        let mut classes: Vec<Option<u8>> = self.streams.iter().map(StreamState::class).collect();
        classes.sort_unstable();
        let owned = classes.windows(2).all(|w| w[0] != w[1]);
        let apart = owned && parts.iter().all(Part::ordered);
        let merged = !(shared || apart);
        self.record_delta(total, rebuilt, merged);
        if shared {
            // Share the base and its index, refreshing the metadata the
            // epoch changed.
            let base = &self.base;
            if base.anchors != meta.anchors
                || base.dropped != meta.dropped
                || !base.ctx_entries().eq(meta.ctx_entries())
            {
                let base = Arc::make_mut(&mut self.base);
                base.set_anchors(meta.anchors.clone());
                base.set_dropped(meta.dropped);
                base.set_ctx_names(&self.ctx_names);
            }
            let a = Analysis::from_shared(Arc::clone(&self.base), loss, self.par);
            if let Some(idx) = &self.index {
                a.preset_index(Arc::clone(idx));
            }
            return a;
        }
        if merged {
            let runs: Vec<&StreamRun> = parts.iter().flat_map(Part::runs).collect();
            let (events, _) = merge(&self.base.events, Some(&self.base_src), &runs);
            self.full_rebuilds += 1;
            return Analysis::from_shared(Arc::new(meta.with_events(events)), loss, self.par);
        }

        let span = parts
            .iter()
            .filter_map(Part::span)
            .chain((base_events > 0).then(|| (self.base.start_tb(), self.base.end_tb())))
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
            base: Arc::clone(&self.base),
            base_index: self.index.clone(),
            parts,
            suspects,
            merged: OnceLock::new(),
        };
        Analysis::from_overlay(overlay, loss, self.par)
    }

    /// Records the index work of an epoch with `total` events: the
    /// lane checkpoints of the base index (all written when it was
    /// `rebuilt`) and of the open runs (those their new intervals
    /// completed since the previous epoch). A `merged` epoch answers
    /// from a fresh index, so it counts every checkpoint and lane as
    /// written.
    fn record_delta(&mut self, total: usize, rebuilt: bool, merged: bool) {
        let (base_blocks, base_lanes) = (self.index.as_ref())
            .map_or((0, 0), |idx| (idx.lane_checkpoints(), idx.spes().count()));
        let (mut blocks, mut lanes) = (base_blocks, base_lanes);
        let mut written = if rebuilt { base_blocks } else { 0 };
        for s in &mut self.streams {
            if let Some((held, writes)) = s.run.lane_checkpoints() {
                blocks += held;
                lanes += 1;
                written += writes - s.reported_writes;
                s.reported_writes = writes;
            }
        }
        self.last_delta = Some(IndexDelta {
            appended_events: total.saturating_sub(self.last_events),
            blocks_total: blocks,
            blocks_rebuilt: if merged { blocks } else { written },
            lanes_total: lanes,
            lanes_rebuilt: match (merged, rebuilt) {
                (true, _) => lanes,
                (false, true) => base_lanes,
                (false, false) => 0,
            },
            full_rebuild: rebuilt || merged,
        });
        self.last_events = total;
    }

    /// Folds every settled stream's run into the base with one linear
    /// merge, remembering the event times its gaps are bracketed by,
    /// and marks the base index for a rebuild.
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
            let (events, src) = merge(&self.base.events, Some(&self.base_src), &runs);
            self.base = Arc::new(self.base.with_events(events));
            self.base_src = src;
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
            s.reported_writes = 0;
        }
    }

    /// Rebuilds the base index from scratch, once per merge. Its suspect
    /// ranges follow `loss`; an epoch whose loss has moved on answers
    /// windows as an overlay epoch instead of rebuilding.
    fn rebuild_base_index(&mut self, loss: &LossReport) {
        self.index_dirty = false;
        if self.base.events.is_empty() {
            self.index = None;
            return;
        }
        let intervals = build_intervals_columns(&self.base);
        let idx = TraceIndex::build_columns(&self.base, intervals, loss);
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
                    if !fill(&mut self.carry, MAGIC.len() + HEADER_BYTES, &mut chunk) {
                        return Ok(());
                    }
                    let (magic, h) = self.carry.split_at(MAGIC.len());
                    if magic != MAGIC {
                        return Err(FormatError::BadMagic);
                    }
                    let h = h.try_into().expect("`fill` stops at the header's end");
                    let header = TraceHeader::decode(h);
                    if header.version != VERSION {
                        return Err(FormatError::BadVersion {
                            found: header.version,
                        });
                    }
                    self.carry.clear();
                    self.state = ImageState::StreamCount { header };
                }
                ImageState::StreamCount { header } => {
                    if !fill(&mut self.carry, 4, &mut chunk) {
                        return Ok(());
                    }
                    let n = le_u32(&self.carry[..4]);
                    self.carry.clear();
                    let session = IngestSession::new(header, n as usize);
                    self.session = Some(session.with_parallelism(self.par));
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
        let mut s =
            IngestSession::new(t.header, t.streams.len()).with_parallelism(Parallelism::Workers(2));
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
            let mut s = IngestSession::new(t.header, t.streams.len())
                .with_parallelism(Parallelism::Workers(2));
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
        let mut s =
            IngestSession::new(t.header, t.streams.len()).with_parallelism(Parallelism::Serial);
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

    /// A trace whose SPE lanes are long: after the fixture's lifecycle,
    /// a second context run of `cycles` DMA-and-wait rounds, two
    /// intervals a round, so the lane holds several checkpoints.
    fn long_lane_trace(spes: u8, cycles: usize) -> TraceFile {
        let mut t = trace(spes);
        for st in t.streams.iter_mut().skip(1) {
            // Continue the decrementer below the fixture's last value.
            let mut dec = u32::MAX - 2410;
            let mut emit = |code, step: u32, params: Vec<u64>| {
                dec -= step;
                TraceRecord {
                    core: st.core,
                    code,
                    timestamp: dec as u64,
                    params,
                }
                .encode_into(&mut st.bytes);
            };
            emit(EventCode::SpeCtxStart, 5, vec![0]);
            for k in 0..cycles as u32 {
                emit(
                    EventCode::SpeDmaGet,
                    200 + k % 7 * 30,
                    vec![0x1000, 0x100000, 4096, 1],
                );
                emit(EventCode::SpeTagWaitBegin, 10, vec![2, 0]);
                emit(EventCode::SpeTagWaitEnd, 50 + k % 5 * 10, vec![2]);
            }
            emit(EventCode::SpeStop, 20, vec![0]);
        }
        t
    }

    /// A session with `t`'s PPE stream closed and the first `head(len)`
    /// bytes of every SPE stream appended, streams left open.
    fn open_session(
        t: &TraceFile,
        head: impl Fn(usize) -> usize,
    ) -> (IngestSession, Vec<StreamId>) {
        let mut s =
            IngestSession::new(t.header, t.streams.len()).with_parallelism(Parallelism::Workers(2));
        let ids: Vec<StreamId> = (t.streams.iter())
            .map(|st| s.add_stream(st.core, st.dropped))
            .collect();
        s.set_ctx_names(t.ctx_names.clone());
        s.append(ids[0], &t.streams[0].bytes);
        s.close_stream(ids[0]);
        for (i, st) in t.streams.iter().enumerate().skip(1) {
            s.append(ids[i], &st.bytes[..head(st.bytes.len())]);
        }
        (s, ids)
    }

    #[test]
    fn appending_a_small_tail_writes_few_lane_checkpoints() {
        let t = long_lane_trace(4, 200);
        let (mut s, ids) = open_session(&t, |n| n * 95 / 100);
        let _ = s.snapshot(); // the base index over the PPE stream
        assert!(s.last_delta().unwrap().full_rebuild);
        for (i, st) in t.streams.iter().enumerate().skip(1) {
            s.append(ids[i], &st.bytes[st.bytes.len() * 95 / 100..]);
        }
        let snap = s.snapshot();
        let one = Analysis::of(&t)
            .parallelism(Parallelism::Workers(2))
            .run()
            .unwrap();
        assert_eq!(snap.analyzed().events, one.analyzed().events);
        assert_eq!(snap.index(), one.index());
        // The open runs hold every lane checkpoint of the trace, and
        // the tail completed one more per lane.
        let delta = s.last_delta().unwrap();
        assert!(!delta.full_rebuild, "a tail append must not rebuild");
        assert_eq!(delta.lanes_total, 4);
        assert_eq!(delta.lanes_rebuilt, 0);
        assert_eq!(delta.blocks_total, one.index().lane_checkpoints());
        assert_eq!(delta.blocks_rebuilt, 4);
        assert!(delta.rebuilt_fraction() <= 0.25);
        s.finish();
        assert_matches_oneshot(&mut s, &t);
        assert_eq!(s.last_delta().unwrap().blocks_total, delta.blocks_total);
    }

    #[test]
    fn merged_epochs_report_a_full_rebuild() {
        // Two streams recording SPE 1: the runs cannot be answered
        // apart, so the epoch merges them up front.
        let mut t = long_lane_trace(2, 200);
        let copy = t.streams[2].clone();
        t.streams.push(copy);
        let (mut s, ids) = open_session(&t, |_| 0);
        let _ = s.snapshot(); // the base index over the PPE stream
        assert_eq!(s.full_rebuilds(), 1);
        for (i, st) in t.streams.iter().enumerate().skip(1) {
            s.append(ids[i], &st.bytes);
        }
        let snap = s.snapshot();
        let one = Analysis::of(&t).run().unwrap();
        assert_eq!(snap.analyzed().events, one.analyzed().events);
        let delta = s.last_delta().unwrap();
        assert!(delta.full_rebuild, "{delta:?}");
        assert!(delta.blocks_total > 0);
        assert_eq!(delta.blocks_rebuilt, delta.blocks_total);
        assert_eq!(delta.lanes_rebuilt, delta.lanes_total);
        assert_eq!(s.full_rebuilds(), 2);
    }
}
