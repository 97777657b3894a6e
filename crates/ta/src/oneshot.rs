//! One-shot ingest: one per-stream decoder ([`StreamDecode`]) and one
//! finish step ([`finish`]) for both containers. Every stream of a
//! `.pdt` ([`ingest`]) or a `.pdt2` ([`crate::v2read`]), PPE or SPE,
//! decodes as one shard, all in one round, into an [`Events`] run at
//! provisional times; the finish step picks the sync anchors, moves
//! each SPE run onto the global timeline and lays the runs out
//! core-major ([`place`]). See DESIGN.md, "One-shot ingest".

use pdt::{ChunkScan, DecodeGap, EventCode, TraceCore, TraceHeader};

use crate::analyze::{AnalyzeError, SpeAnchor};
use crate::columns::{ColumnarTrace, EventColumns, ParamDict};
use crate::exec::{self, Parallelism};
use crate::loss::{LossReport, StreamLoss};
use crate::reader::{ChunkBuf, ImageStream, TraceImage};

/// One stream's placed events in stream order: times, core tags, codes
/// and parameter ids interned into the stream's own dictionary, so
/// streams decode independently.
#[derive(Debug, Default)]
struct Events {
    times: Times,
    code: Vec<EventCode>,
    id: Vec<u32>,
    dict: ParamDict,
}

/// A run's times and core tags.
#[derive(Debug)]
enum Times {
    /// Every event so far has core tag `tag` and lies at most `u32::MAX`
    /// ticks after the one before: event `k` is at `first` plus
    /// `step[1..=k]` (`step[0]` is 0). An SPE stream placed from its
    /// anchor stays in this form, at 4 bytes per event.
    Steps {
        first: u64,
        last: u64,
        tag: u8,
        step: Vec<u32>,
    },
    /// A time and core tag per event.
    Each { time: Vec<u64>, tag: Vec<u8> },
}

impl Default for Times {
    fn default() -> Self {
        Times::Steps {
            first: 0,
            last: 0,
            tag: 0,
            step: Vec::new(),
        }
    }
}

impl Times {
    /// Appends an event, leaving the step form for good once `t` and
    /// `g` do not fit it.
    fn push(&mut self, t: u64, g: u8) {
        if let Times::Steps {
            first,
            last,
            tag,
            step,
        } = self
        {
            if step.is_empty() {
                (*first, *last, *tag) = (t, t, g);
            }
            match t.checked_sub(*last).map(u32::try_from) {
                Some(Ok(d)) if g == *tag => {
                    step.push(d);
                    *last = t;
                    return;
                }
                _ => {}
            }
            let tag = vec![*tag; step.len()];
            *self = Times::Each {
                time: self.iter().collect(),
                tag,
            };
        }
        if let Times::Each { time, tag } = self {
            time.push(t);
            tag.push(g);
        }
    }

    /// Event `k`'s core tag.
    fn tag(&self, k: usize) -> u8 {
        match self {
            Times::Steps { tag, .. } => *tag,
            Times::Each { tag, .. } => tag[k],
        }
    }

    /// Every event's time, expanding the step form.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        match self {
            Times::Steps { first, step, .. } => expand(*first, step.as_slice(), &[][..]),
            Times::Each { time, .. } => expand(0, &[][..], time.as_slice()),
        }
    }

    /// [`iter`](Self::iter) spending the run: its storage is freed when
    /// the iterator is.
    fn into_times(self) -> impl Iterator<Item = u64> {
        match self {
            Times::Steps { first, step, .. } => expand(first, step, Vec::new()),
            Times::Each { time, .. } => expand(0, Vec::new(), time),
        }
    }
}

/// The times of a step-form run from `first` (`step`) or of a run with
/// a time per event (`time`); the other one is empty. One exact-length
/// loop for both forms, so `Vec::extend` sizes its destination once.
fn expand(
    mut at: u64,
    step: impl AsRef<[u32]>,
    time: impl AsRef<[u64]>,
) -> impl Iterator<Item = u64> {
    let n = step.as_ref().len().max(time.as_ref().len());
    (0..n).map(move |k| match step.as_ref().get(k) {
        Some(&d) => {
            at += u64::from(d);
            at
        }
        None => time.as_ref()[k],
    })
}

impl Events {
    fn push(&mut self, time: u64, tag: u8, code: EventCode, params: &[u64]) {
        self.times.push(time, tag);
        self.code.push(code);
        self.id.push(self.dict.intern(params));
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    /// Moves every event `by` ticks later. The caller has checked that
    /// the latest time plus `by` fits; a step-form run moves in O(1).
    fn shift(&mut self, by: u64) {
        match &mut self.times {
            Times::Steps { first, last, .. } => (*first, *last) = (*first + by, *last + by),
            Times::Each { time, .. } => time.iter_mut().for_each(|t| *t += by),
        }
    }

    /// Maps every event's time through `f`, keeping its core tag; the
    /// run leaves the step form if the new times do not fit it.
    fn retime(&mut self, f: impl Fn(u64) -> u64) {
        let old = std::mem::take(&mut self.times);
        for (k, t) in old.iter().enumerate() {
            self.times.push(f(t), old.tag(k));
        }
    }
}

/// One stream's placed events in key order, as [`place`] reads them.
#[derive(Debug)]
struct Run {
    stream: usize,
    ev: Events,
    /// Per-event `stream_seq` of a sorted run; empty while event `k`
    /// is the stream's record `k`.
    seq: Vec<u64>,
}

impl Run {
    /// A run over a whole stream's events, sorted into key order unless
    /// already in it. The stable sort on `(time, tag)` keeps equal keys
    /// in record order, as the row path's per-run sort does.
    fn new(stream: usize, ev: Events) -> Run {
        let (time, tag) = match &ev.times {
            Times::Each { time, tag }
                if (1..time.len()).any(|k| (time[k - 1], tag[k - 1]) > (time[k], tag[k])) =>
            {
                (time, tag)
            }
            // Steps never go back and share one tag.
            _ => {
                return Run {
                    stream,
                    ev,
                    seq: Vec::new(),
                }
            }
        };
        let mut perm: Vec<usize> = (0..ev.len()).collect();
        perm.sort_by_key(|&k| (time[k], tag[k]));
        let times = Times::Each {
            time: perm.iter().map(|&k| time[k]).collect(),
            tag: perm.iter().map(|&k| tag[k]).collect(),
        };
        let ev = Events {
            times,
            code: perm.iter().map(|&k| ev.code[k]).collect(),
            id: perm.iter().map(|&k| ev.id[k]).collect(),
            dict: ev.dict,
        };
        let seq = perm.into_iter().map(|k| k as u64).collect();
        Run { stream, ev, seq }
    }

    /// Event `k`'s `stream_seq`.
    fn seq(&self, k: usize) -> u64 {
        self.seq.get(k).map_or(k as u64, |&s| s)
    }
}

/// First index in `[lo, hi)` for which `below` is false (`below` must
/// be monotone: true-prefix then false-suffix).
pub(crate) fn upper_bound(
    mut lo: usize,
    mut hi: usize,
    mut below: impl FnMut(usize) -> bool,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Places `runs` core-major into fresh columns: each core's events form
/// one segment in `(time, stream_seq)` order, ties between streams
/// broken by stream index, and segments follow core-tag order — the
/// order the serial [`analyze`](crate::analyze::analyze) produces with
/// its stable sort, restricted to each core.
///
/// First each run's dictionary is remapped into the store's, in stream
/// order, one intern per distinct tuple, so the store's ids do not
/// depend on which executor decoded which stream. Then a core fed by
/// one run (every SPE stream) is copied as the run stands, and the
/// run's storage is freed as soon as it is copied, so the store and the
/// runs not yet placed are never both whole; only a core that several
/// runs feed (PPE threads spread over PPE streams) is sorted.
fn place(mut runs: Vec<Run>) -> EventColumns {
    runs.retain(|r| r.ev.len() > 0);
    runs.sort_unstable_by_key(|r| r.stream);
    let mut dest = EventColumns::with_capacity(0);
    for run in &mut runs {
        let map = dest.absorb_dict(&std::mem::take(&mut run.ev.dict));
        for id in &mut run.ev.id {
            *id = map[*id as usize];
        }
    }
    dest.reserve_events(runs.iter().map(|r| r.ev.len()).sum());

    // The runs feeding each core, in stream order, and whether a run
    // feeds that core alone.
    let mut feeds: Vec<Vec<(usize, bool)>> = vec![Vec::new(); 256];
    for (r, run) in runs.iter().enumerate() {
        let mut seen = [false; 256];
        match &run.ev.times {
            Times::Steps { tag, .. } => seen[usize::from(*tag)] = true,
            Times::Each { tag, .. } => tag.iter().for_each(|&t| seen[usize::from(t)] = true),
        }
        let only = seen.iter().filter(|&&s| s).count() == 1;
        for t in (0..256).filter(|&t| seen[t]) {
            feeds[t].push((r, only));
        }
    }
    for (tag, feed) in (0u8..=255).zip(&feeds) {
        match *feed.as_slice() {
            [] => {}
            // One run is the whole core: copied as it stands.
            [(r, true)] => {
                let Events {
                    times, code, id, ..
                } = std::mem::take(&mut runs[r].ev);
                let seq = std::mem::take(&mut runs[r].seq);
                dest.extend_core(tag, code, id, times.into_times(), seq);
            }
            // Several streams feed the core (PPE threads): sort its
            // events by (time, stream_seq, stream).
            _ => {
                let mut events = Vec::new();
                for &(r, _) in feed {
                    let run = &runs[r];
                    for (k, time) in run.ev.times.iter().enumerate() {
                        if run.ev.times.tag(k) == tag {
                            events.push((time, run.seq(k), r, k));
                        }
                    }
                }
                events.sort_unstable();
                for (time, seq, r, k) in events {
                    dest.push_with_id(time, tag, runs[r].ev.code[k], runs[r].ev.id[k], seq);
                }
            }
        }
    }
    dest
}

/// One stream decoding into its [`Events`] run, with its parameters
/// interned as they arrive: the one per-stream decoder of both
/// containers, fed record by record from a `.pdt` stream's scan
/// ([`decode_v1`]) or from a `.pdt2` stream's blocks
/// ([`crate::v2read`]).
///
/// PPE records keep their own timestamps, and their sync anchors are
/// harvested. SPE records are pushed at *provisional* times, the
/// elapsed decrementer ticks since the stream's first record, in the
/// 4-byte step form: the anchor that places them may sit in any
/// stream, and it only moves the whole run, which [`finish`] does.
#[derive(Debug)]
pub(crate) struct StreamDecode {
    core: TraceCore,
    dropped: u64,
    ev: Events,
    /// First record's decrementer value (SPE streams).
    first_dec: u32,
    /// Previous record's decrementer value (SPE streams).
    prev_dec: u32,
    /// Provisional elapsed ticks of the latest record (SPE streams).
    elapsed: u64,
    /// The sync anchors this stream carries, first per SPE.
    anchors: Vec<SpeAnchor>,
    /// The byte ranges the decode skipped, in stream order.
    gaps: Vec<DecodeGap>,
}

impl StreamDecode {
    /// An empty decode of a stream from `core` whose tracer dropped
    /// `dropped` records.
    pub(crate) fn new(core: TraceCore, dropped: u64) -> StreamDecode {
        StreamDecode {
            core,
            dropped,
            ev: Events::default(),
            first_dec: 0,
            prev_dec: 0,
            elapsed: 0,
            anchors: Vec::new(),
            gaps: Vec::new(),
        }
    }

    /// Appends the stream's next record: its raw timestamp (timebase on
    /// a PPE stream, decrementer on an SPE stream), its core tag, code
    /// and parameters. An SPE record takes the stream's core tag.
    pub(crate) fn record(&mut self, timestamp: u64, tag: u8, code: EventCode, params: &[u64]) {
        if self.core.is_spe() {
            let dec = timestamp as u32;
            if self.ev.len() == 0 {
                (self.first_dec, self.prev_dec) = (dec, dec);
            }
            self.elapsed += u64::from(self.prev_dec.wrapping_sub(dec));
            self.prev_dec = dec;
            self.ev.push(self.elapsed, self.core.tag(), code, params);
        } else {
            harvest(code, timestamp, params, &mut self.anchors);
            self.ev.push(timestamp, tag, code, params);
        }
    }

    /// Records a byte range the decode skipped.
    pub(crate) fn gap(&mut self, gap: DecodeGap) {
        self.gaps.push(gap);
    }
}

/// Decodes one v1 stream into its run. A stream in memory is scanned
/// as one chunk; a file-backed one is read chunk by chunk through
/// `buf`. A damaged `.pdt2` stream unpacked under the strict policy
/// comes here too ([`crate::v2read`]).
///
/// # Errors
///
/// Under `strict`, the stream's first malformed record; under either
/// policy, a failed read of a file-backed stream.
pub(crate) fn decode_v1(
    s: &ImageStream<'_>,
    strict: bool,
    buf: &mut ChunkBuf,
) -> Result<StreamDecode, AnalyzeError> {
    let mut st = StreamDecode::new(s.core, s.dropped);
    let mut scan = if strict {
        ChunkScan::strict(s.len())
    } else {
        ChunkScan::lossy(s.len(), Some(s.core))
    };
    // A record's parameter words: its count is a header byte.
    let mut words = [0u64; u8::MAX as usize];
    while !scan.is_done() {
        let base = scan.resume_at();
        let chunk = s.chunk(base, buf).map_err(|e| AnalyzeError::Read {
            core: s.core,
            offset: base,
            message: e.to_string(),
        })?;
        while let Some(g) = scan.next_gap(chunk, base, |r| {
            let params = r.params();
            let n = params.len();
            words.iter_mut().zip(params).for_each(|(w, p)| *w = p);
            st.record(r.timestamp, r.core.tag(), r.code, &words[..n]);
        }) {
            if strict {
                return Err(AnalyzeError::Record {
                    core: s.core,
                    offset: g.offset,
                    cause: g.cause,
                });
            }
            st.gap(g);
        }
    }
    Ok(st)
}

/// Records a PPE record's `PpeCtxRun` sync anchor, stamped at `time`,
/// unless its SPE already has one.
fn harvest(code: EventCode, time: u64, params: &[u64], anchors: &mut Vec<SpeAnchor>) {
    let [ctx, spe, dec_start, ..] = *params else {
        return;
    };
    if code == EventCode::PpeCtxRun && !anchors.iter().any(|a| a.spe == spe as u8) {
        anchors.push(SpeAnchor {
            spe: spe as u8,
            ctx: ctx as u32,
            run_tb: time,
            dec_start: dec_start as u32,
        });
    }
}

/// The finish step of both containers: picks the anchor winners, moves
/// each anchored SPE run from its provisional times onto the global
/// timeline, drops the unanchored ones (their events cannot be placed),
/// builds the loss rows and lays the runs out through [`place`].
///
/// The winner per SPE is its first anchor in stream order, then record
/// order, as the row path's harvest picks them, and winners are listed
/// in that order too.
///
/// An anchored SPE record's time is its provisional `elapsed` plus
/// `run_tb + (dec_start - first_dec)`. A run whose times all fit in u64
/// moves in O(1); one that would pass `u64::MAX` is re-timed with
/// wrapping adds, as the row path places it, and [`Run::new`] sorts it.
pub(crate) fn finish(
    header: TraceHeader,
    streams: Vec<StreamDecode>,
    names: &[(u32, String)],
) -> Ingested {
    let mut anchors: Vec<SpeAnchor> = Vec::new();
    for a in streams.iter().flat_map(|st| &st.anchors) {
        if !anchors.iter().any(|b| b.spe == a.spe) {
            anchors.push(*a);
        }
    }
    let dropped = streams.iter().map(|st| st.dropped).sum();
    let mut runs = Vec::with_capacity(streams.len());
    let mut loss = Vec::with_capacity(streams.len());
    for (si, st) in streams.into_iter().enumerate() {
        let mut ev = st.ev;
        let anchor = match st.core {
            TraceCore::Spe(spe) => anchors.iter().find(|a| a.spe == spe),
            TraceCore::Ppe(_) => None,
        };
        loss.push(StreamLoss {
            core: st.core,
            decoded_records: ev.len() as u64,
            tracer_dropped: st.dropped,
            gaps: st.gaps,
            unanchored: st.core.is_spe() && anchor.is_none() && ev.len() > 0,
        });
        if let Some(a) = anchor {
            let diff = u64::from(a.dec_start.wrapping_sub(st.first_dec));
            match a.run_tb.checked_add(diff) {
                Some(offset) if offset.checked_add(st.elapsed).is_some() => ev.shift(offset),
                _ => ev.retime(|elapsed| a.run_tb.wrapping_add(diff + elapsed)),
            }
        } else if st.core.is_spe() {
            continue;
        }
        runs.push(Run::new(si, ev));
    }
    let mut trace = ColumnarTrace::empty(header).with_events(place(runs));
    trace.anchors = anchors;
    trace.dropped = dropped;
    trace.set_ctx_names(names);
    let loss = LossReport {
        streams: loss,
        truncated: None,
    };
    (trace, loss)
}

/// A one-shot ingest's store and loss report.
pub(crate) type Ingested = (ColumnarTrace, LossReport);

/// Ingests a complete v1 image into the columnar store: the store and
/// loss report the row path's
/// [`analyze_lossy`](crate::analyze::analyze_lossy) followed by
/// [`ColumnarTrace::from_rows`] would produce, whatever `par`. The
/// strict policy's anchor check is the session builder's last step.
///
/// Every stream, PPE or SPE, decodes as one [`exec::map_indexed_with`]
/// shard in one round, since SPE records wait at provisional times for
/// their anchors; then [`finish`] places the runs core-major.
///
/// # Errors
///
/// If `strict`, the first malformed record in stream order. Either
/// way, a file-backed stream that cannot be read
/// ([`AnalyzeError::Read`]); in memory, a lossy ingest never fails.
pub(crate) fn ingest(
    image: &TraceImage<'_>,
    strict: bool,
    par: Parallelism,
) -> Result<Ingested, AnalyzeError> {
    let streams = image.streams();
    // The first failure in stream order wins, whichever executor met it.
    let decoded = exec::map_indexed_with(par, streams.len(), ChunkBuf::default, |buf, si| {
        decode_v1(&streams[si], strict, buf)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(finish(*image.header(), decoded, image.ctx_names()))
}
