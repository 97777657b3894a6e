//! One-shot ingest: a complete v1 trace decoded straight into the
//! columnar store, one shard per SPE stream ([`ingest`]), and what it
//! shares with the direct v2 decoder in [`crate::v2read`]: the
//! [`Events`] runs, the sync-anchor harvest and winner pick, and the
//! core-major [`place`]. See DESIGN.md, "One-shot ingest".

use pdt::{ChunkScan, DecodeGap, EventCode, Scanned, TraceCore};

use crate::analyze::{AnalyzeError, SpeAnchor};
use crate::columns::{ColumnarTrace, EventColumns, ParamDict};
use crate::exec::{self, Parallelism};
use crate::loss::{DecodePolicy, LossReport, StreamLoss};
use crate::reader::{ImageStream, TraceImage};

/// One stream's placed events in stream order: times, core tags, codes
/// and parameter ids interned into the stream's own dictionary, so
/// streams decode independently.
#[derive(Debug, Default)]
pub(crate) struct Events {
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
    pub(crate) fn push(&mut self, time: u64, tag: u8, code: EventCode, params: &[u64]) {
        self.times.push(time, tag);
        self.code.push(code);
        self.id.push(self.dict.intern(params));
    }

    pub(crate) fn len(&self) -> usize {
        self.code.len()
    }

    /// Moves every event `by` ticks later. The caller has checked that
    /// the latest time plus `by` fits; a step-form run moves in O(1).
    pub(crate) fn shift(&mut self, by: u64) {
        match &mut self.times {
            Times::Steps { first, last, .. } => (*first, *last) = (*first + by, *last + by),
            Times::Each { time, .. } => time.iter_mut().for_each(|t| *t += by),
        }
    }
}

/// One stream's placed events in key order, as [`place`] reads them.
#[derive(Debug)]
pub(crate) struct Run {
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
    pub(crate) fn new(stream: usize, ev: Events) -> Run {
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
pub(crate) fn place(mut runs: Vec<Run>) -> EventColumns {
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

/// One decoded v1 stream: its placed events (none for an unanchored
/// SPE stream), the records and gaps the scan met, and, for a PPE
/// stream, the sync anchors it carries, first per SPE.
#[derive(Debug, Default)]
struct V1Stream {
    ev: Events,
    records: u64,
    gaps: Vec<DecodeGap>,
    anchors: Vec<SpeAnchor>,
    /// An SPE stream with records but no anchor to place them by.
    unanchored: bool,
}

/// Decodes one v1 stream and places it on the global timeline: PPE
/// records at their timebase stamp with per-thread core tags, SPE
/// records at `run_tb + elapsed` (wrapping) from their anchor. An SPE
/// stream without an anchor is only counted. A stream in memory is
/// scanned as one chunk; a file-backed one is read chunk by chunk into
/// `buf`.
///
/// # Errors
///
/// Under `strict`, the stream's first malformed record; under either
/// policy, a failed read of a file-backed stream.
fn decode_v1(
    s: &ImageStream<'_>,
    anchor: Option<SpeAnchor>,
    strict: bool,
    buf: &mut Vec<u8>,
) -> Result<V1Stream, AnalyzeError> {
    let mut out = V1Stream::default();
    let mut scan = if strict {
        ChunkScan::strict(s.len())
    } else {
        ChunkScan::lossy(s.len(), Some(s.core))
    };
    let (mut elapsed, mut prev_dec) = (0u64, anchor.map_or(0, |a| a.dec_start));
    let mut params = Vec::new();
    while !scan.is_done() {
        let base = scan.resume_at();
        let chunk = s.chunk(base, buf).map_err(|e| AnalyzeError::Read {
            core: s.core,
            offset: base,
            message: e.to_string(),
        })?;
        while let Some(item) = scan.next(chunk, base) {
            let r = match item {
                Scanned::Record(r) => r,
                Scanned::Gap(g) if strict => {
                    let (core, offset, cause) = (s.core, g.offset, g.cause);
                    return Err(AnalyzeError::Record {
                        core,
                        offset,
                        cause,
                    });
                }
                Scanned::Gap(g) => {
                    out.gaps.push(g);
                    continue;
                }
            };
            params.clear();
            params.extend(r.params());
            let (time, tag) = match anchor {
                None if s.core.is_spe() => continue,
                None => {
                    harvest(r.code, r.timestamp, &params, &mut out.anchors);
                    (r.timestamp, r.core.tag())
                }
                Some(a) => {
                    let dec = r.timestamp as u32;
                    elapsed += u64::from(prev_dec.wrapping_sub(dec));
                    prev_dec = dec;
                    (a.run_tb.wrapping_add(elapsed), s.core.tag())
                }
            };
            out.ev.push(time, tag, r.code, &params);
        }
    }
    out.records = scan.records();
    out.unanchored = anchor.is_none() && s.core.is_spe() && out.records > 0;
    Ok(out)
}

/// Records a PPE record's `PpeCtxRun` sync anchor, stamped at `time`,
/// unless its SPE already has one.
pub(crate) fn harvest(code: EventCode, time: u64, params: &[u64], anchors: &mut Vec<SpeAnchor>) {
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

/// The winning anchor per SPE from each stream's harvest, in stream
/// order: the first in stream order, then record order, as the row
/// path's harvest picks them. Winners are listed in that order too.
pub(crate) fn pick_anchors<'a>(
    per_stream: impl IntoIterator<Item = &'a [SpeAnchor]>,
) -> Vec<SpeAnchor> {
    let mut anchors: Vec<SpeAnchor> = Vec::new();
    for a in per_stream.into_iter().flatten() {
        if !anchors.iter().any(|b| b.spe == a.spe) {
            anchors.push(*a);
        }
    }
    anchors
}

/// The strict policy's error: the first malformed record in stream
/// order, if any, scanned through each stream's own source.
fn first_decode_error(streams: &[ImageStream<'_>]) -> Option<AnalyzeError> {
    let mut buf = Vec::new();
    streams
        .iter()
        .find_map(|s| decode_v1(s, None, true, &mut buf).err())
}

/// Ingests a complete v1 image into the columnar store under `policy`:
/// the store and loss report the row path's
/// [`analyze`](crate::analyze::analyze) /
/// [`analyze_lossy`](crate::analyze::analyze_lossy) followed by
/// [`ColumnarTrace::from_rows`] would produce, whatever `par`.
///
/// The PPE streams decode first, since every anchor must be harvested
/// before an SPE record can be placed; then each SPE stream decodes as
/// one [`exec::map_indexed_with`] shard, and [`place`] lays the runs out
/// core-major.
///
/// # Errors
///
/// Under [`DecodePolicy::Strict`], the first malformed record in stream
/// order, else the first SPE stream with records but no sync anchor.
/// Under either policy, a file-backed stream that cannot be read
/// ([`AnalyzeError::Read`]); in memory, the lossy policy never fails.
pub(crate) fn ingest(
    image: &TraceImage<'_>,
    policy: DecodePolicy,
    par: Parallelism,
) -> Result<(ColumnarTrace, LossReport), AnalyzeError> {
    let strict = policy == DecodePolicy::Strict;
    let streams = image.streams();
    let (ppe, spe): (Vec<usize>, Vec<usize>) =
        (0..streams.len()).partition(|&si| !streams[si].core.is_spe());
    // Decodes the streams `ids` in parallel, each executor reading
    // file-backed streams into one reused buffer. A strict failure in
    // stream `si` yields to any failure before it.
    let decode_all = |ids: &[usize], anchors: &[SpeAnchor]| {
        let out = exec::map_indexed_with(par, ids.len(), Vec::new, |buf, i| {
            let s = &streams[ids[i]];
            let anchor = match s.core {
                TraceCore::Spe(spe) => anchors.iter().find(|a| a.spe == spe).copied(),
                TraceCore::Ppe(_) => None,
            };
            decode_v1(s, anchor, strict, buf).map_err(|e| (ids[i], e))
        });
        out.into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|(si, e)| {
                if strict {
                    first_decode_error(&streams[..si]).unwrap_or(e)
                } else {
                    e
                }
            })
    };

    let mut decoded: Vec<V1Stream> = streams.iter().map(|_| V1Stream::default()).collect();
    for (&si, d) in ppe.iter().zip(decode_all(&ppe, &[])?) {
        decoded[si] = d;
    }
    let anchors = pick_anchors(decoded.iter().map(|d| d.anchors.as_slice()));
    if strict {
        for s in streams.iter().filter(|s| !s.is_empty()) {
            let TraceCore::Spe(spe) = s.core else {
                continue;
            };
            if !anchors.iter().any(|a| a.spe == spe) {
                return Err(
                    first_decode_error(streams).unwrap_or(AnalyzeError::MissingAnchor { spe })
                );
            }
        }
    }
    for (&si, d) in spe.iter().zip(decode_all(&spe, &anchors)?) {
        decoded[si] = d;
    }

    let mut runs = Vec::new();
    let mut loss = Vec::new();
    for (si, (s, d)) in streams.iter().zip(decoded).enumerate() {
        loss.push(StreamLoss {
            core: s.core,
            decoded_records: d.records,
            tracer_dropped: s.dropped,
            gaps: d.gaps,
            unanchored: d.unanchored,
        });
        runs.push(Run::new(si, d.ev));
    }
    let mut trace = ColumnarTrace::empty(*image.header()).with_events(place(runs));
    trace.anchors = anchors;
    trace.dropped = image.total_dropped();
    trace.set_ctx_names(image.ctx_names());
    let streams = if strict { Vec::new() } else { loss };
    Ok((
        trace,
        LossReport {
            streams,
            truncated: None,
        },
    ))
}
