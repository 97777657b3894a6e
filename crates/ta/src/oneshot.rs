//! One-shot ingest: a complete v1 trace decoded straight into the
//! columnar store ([`ingest`]), and the merge front it shares with the
//! direct v2 decoder in [`crate::v2read`]. See DESIGN.md, "One-shot
//! ingest".

use pdt::{EventCode, RecordScan, Scanned, TraceCore};

use crate::analyze::{AnalyzeError, SpeAnchor};
use crate::columns::{ColumnarTrace, EventColumns};
use crate::loss::{DecodePolicy, LossReport, StreamLoss};
use crate::reader::{ImageStream, TraceImage};

/// The global sort key: `(time_tb, core tag, stream_seq)`.
type Key = (u64, u8, u64);

/// Placed events in stream order: times, core tags, codes and
/// parameter ids already interned into the destination dictionary.
#[derive(Debug, Default)]
pub(crate) struct Events {
    time: Vec<u64>,
    tag: Vec<u8>,
    code: Vec<EventCode>,
    id: Vec<u32>,
}

impl Events {
    pub(crate) fn push(&mut self, time: u64, tag: u8, code: EventCode, id: u32) {
        self.time.push(time);
        self.tag.push(tag);
        self.code.push(code);
        self.id.push(id);
    }

    pub(crate) fn len(&self) -> usize {
        self.time.len()
    }

    fn clear(&mut self) {
        self.time.clear();
        self.tag.clear();
        self.code.clear();
        self.id.clear();
    }
}

/// Decodes a stream for the merge front one batch at a time.
pub(crate) trait RunSource {
    /// State shared by every source of one ingest.
    type Ctx;
    /// Why decoding stopped early.
    type Error;

    /// Appends the stream's next events, in key order, to the empty
    /// `out`, interning their parameters into `dest`. Leaving `out`
    /// empty means the stream is exhausted.
    fn refill(
        &mut self,
        out: &mut Events,
        dest: &mut EventColumns,
        ctx: &mut Self::Ctx,
    ) -> Result<(), Self::Error>;
}

/// One stream's placed events as the merge front sees them, in key
/// order: all of them (eager), or the current batch of a source that
/// refills when the front reaches the batch's end (lazy).
#[derive(Debug)]
pub(crate) struct Run<S> {
    stream: usize,
    ev: Events,
    /// Per-event `stream_seq` of a sorted eager run; empty while event
    /// `k` is the stream's record `seq_base + k`.
    seq: Vec<u64>,
    seq_base: u64,
    pos: usize,
    src: Option<S>,
}

impl<S: RunSource> Run<S> {
    /// An eager run over a whole stream's events, sorted into key order
    /// unless already in it. The stable sort on `(time, tag)` keeps
    /// equal keys in record order, as the row path's per-run sort does.
    pub(crate) fn eager(stream: usize, ev: Events) -> Run<S> {
        let sorted =
            (1..ev.len()).all(|k| (ev.time[k - 1], ev.tag[k - 1]) <= (ev.time[k], ev.tag[k]));
        let (ev, seq) = if sorted {
            (ev, Vec::new())
        } else {
            let mut perm: Vec<usize> = (0..ev.len()).collect();
            perm.sort_by_key(|&k| (ev.time[k], ev.tag[k]));
            let sorted = Events {
                time: perm.iter().map(|&k| ev.time[k]).collect(),
                tag: perm.iter().map(|&k| ev.tag[k]).collect(),
                code: perm.iter().map(|&k| ev.code[k]).collect(),
                id: perm.iter().map(|&k| ev.id[k]).collect(),
            };
            (sorted, perm.into_iter().map(|k| k as u64).collect())
        };
        Run {
            stream,
            ev,
            seq,
            seq_base: 0,
            pos: 0,
            src: None,
        }
    }

    /// A lazy run primed with its first batch; `None` when the stream
    /// has no events.
    pub(crate) fn lazy(
        stream: usize,
        mut src: S,
        dest: &mut EventColumns,
        ctx: &mut S::Ctx,
    ) -> Result<Option<Run<S>>, S::Error> {
        let mut ev = Events::default();
        src.refill(&mut ev, dest, ctx)?;
        Ok((ev.len() > 0).then_some(Run {
            stream,
            ev,
            seq: Vec::new(),
            seq_base: 0,
            pos: 0,
            src: Some(src),
        }))
    }

    fn key(&self, k: usize) -> Key {
        let seq = self.seq.get(k).copied();
        let seq = seq.unwrap_or(self.seq_base + k as u64);
        (self.ev.time[k], self.ev.tag[k], seq)
    }

    /// Appends events into `dest` until the head key reaches `limit`;
    /// `Ok(true)` once the run is exhausted. Keys strictly increase
    /// within a run, so the stop index is a binary search and the span
    /// one bulk append.
    fn advance(
        &mut self,
        limit: Option<(Key, usize)>,
        dest: &mut EventColumns,
        ctx: &mut S::Ctx,
    ) -> Result<bool, S::Error> {
        loop {
            let n = self.ev.len();
            let end = match limit {
                None => n,
                Some(lim) => upper_bound(self.pos, n, |k| (self.key(k), self.stream) < lim),
            };
            for k in self.pos..end {
                let (time, tag, seq) = self.key(k);
                dest.push_with_id(time, tag, self.ev.code[k], self.ev.id[k], seq);
            }
            self.pos = end;
            if end < n {
                return Ok(false);
            }
            let Some(src) = self.src.as_mut() else {
                return Ok(true);
            };
            self.seq_base += n as u64;
            self.pos = 0;
            self.ev.clear();
            src.refill(&mut self.ev, dest, ctx)?;
            if self.ev.len() == 0 {
                return Ok(true);
            }
        }
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

/// K-way merges `runs` into `dest` by `(time, core tag, stream_seq)`,
/// ties across runs broken by stream index — the order the serial
/// [`analyze`](crate::analyze::analyze) produces with its stable sort.
/// Each round gallops: the minimum run bulk-appends every event sorting
/// strictly below the runner-up head.
pub(crate) fn merge<S: RunSource>(
    mut runs: Vec<Run<S>>,
    dest: &mut EventColumns,
    ctx: &mut S::Ctx,
) -> Result<(), S::Error> {
    runs.retain(|r| r.ev.len() > 0);
    while runs.len() > 1 {
        let mut mi = 0;
        let mut mk = (runs[0].key(runs[0].pos), runs[0].stream);
        let mut second: Option<(Key, usize)> = None;
        for (j, run) in runs.iter().enumerate().skip(1) {
            let k = (run.key(run.pos), run.stream);
            if k < mk {
                second = Some(mk);
                mk = k;
                mi = j;
            } else if second.is_none_or(|s| k < s) {
                second = Some(k);
            }
        }
        if runs[mi].advance(second, dest, ctx)? {
            runs.swap_remove(mi);
        }
    }
    if let Some(run) = runs.last_mut() {
        run.advance(None, dest, ctx)?;
    }
    Ok(())
}

/// Records per lazily decoded v1 batch.
const V1_BATCH: usize = 4096;

/// State shared by the v1 sources of one ingest.
#[derive(Debug)]
struct V1Ctx {
    /// Per-stream accounting, in stream order.
    loss: Vec<StreamLoss>,
    /// Sync anchors harvested from the PPE streams, first per SPE.
    anchors: Vec<SpeAnchor>,
}

/// A strict-policy failure: the stream index and its error.
type V1Error = (usize, AnalyzeError);

/// One v1 stream's records, decoded out of the borrowed image and
/// placed on the global timeline: PPE records at their timebase stamp
/// with per-thread core tags, SPE records at `run_tb + elapsed`
/// (wrapping) from their anchor.
#[derive(Debug)]
struct V1Source<'a> {
    stream: usize,
    core: TraceCore,
    scan: RecordScan<'a>,
    strict: bool,
    /// The SPE stream's sync anchor; `None` on PPE streams.
    anchor: Option<SpeAnchor>,
    elapsed: u64,
    prev_dec: u32,
    params: Vec<u64>,
}

impl<'a> V1Source<'a> {
    fn new(stream: usize, s: &ImageStream<'a>, anchor: Option<SpeAnchor>, strict: bool) -> Self {
        V1Source {
            stream,
            core: s.core,
            scan: if strict {
                RecordScan::strict(s.bytes)
            } else {
                RecordScan::lossy(s.bytes, Some(s.core))
            },
            strict,
            anchor,
            elapsed: 0,
            prev_dec: anchor.map_or(0, |a| a.dec_start),
            params: Vec::new(),
        }
    }

    /// Decodes and places up to `limit` records into `out`. PPE streams
    /// harvest sync anchors on the way.
    fn fill(
        &mut self,
        limit: usize,
        out: &mut Events,
        dest: &mut EventColumns,
        ctx: &mut V1Ctx,
    ) -> Result<(), V1Error> {
        while out.len() < limit {
            match self.scan.next() {
                None => break,
                Some(Scanned::Record(r)) => {
                    let (time, tag) = match self.anchor {
                        None => {
                            harvest(&r, &mut ctx.anchors);
                            (r.timestamp, r.core.tag())
                        }
                        Some(a) => {
                            let dec = r.timestamp as u32;
                            self.elapsed += u64::from(self.prev_dec.wrapping_sub(dec));
                            self.prev_dec = dec;
                            (a.run_tb.wrapping_add(self.elapsed), self.core.tag())
                        }
                    };
                    self.params.clear();
                    self.params.extend(r.params());
                    out.push(time, tag, r.code, dest.intern_params(&self.params));
                }
                Some(Scanned::Gap(g)) if self.strict => {
                    let (core, offset, cause) = (self.core, g.offset, g.cause);
                    let err = AnalyzeError::Record {
                        core,
                        offset,
                        cause,
                    };
                    return Err((self.stream, err));
                }
                Some(Scanned::Gap(g)) => ctx.loss[self.stream].gaps.push(g),
            }
        }
        ctx.loss[self.stream].decoded_records = self.scan.records();
        Ok(())
    }

    /// Decodes the whole stream into an eager run.
    fn into_run(
        mut self,
        dest: &mut EventColumns,
        ctx: &mut V1Ctx,
    ) -> Result<Run<V1Source<'a>>, V1Error> {
        let mut ev = Events::default();
        self.fill(usize::MAX, &mut ev, dest, ctx)?;
        Ok(Run::eager(self.stream, ev))
    }
}

impl RunSource for V1Source<'_> {
    type Ctx = V1Ctx;
    type Error = V1Error;

    fn refill(
        &mut self,
        out: &mut Events,
        dest: &mut EventColumns,
        ctx: &mut V1Ctx,
    ) -> Result<(), V1Error> {
        self.fill(V1_BATCH, out, dest, ctx)
    }
}

/// Records a `PpeCtxRun` sync anchor unless its SPE already has one.
fn harvest(r: &pdt::RecordRef<'_>, anchors: &mut Vec<SpeAnchor>) {
    let (Some(ctx), Some(spe), Some(dec_start)) = (r.param(0), r.param(1), r.param(2)) else {
        return;
    };
    if r.code == EventCode::PpeCtxRun && !anchors.iter().any(|a| a.spe == spe as u8) {
        anchors.push(SpeAnchor {
            spe: spe as u8,
            ctx: ctx as u32,
            run_tb: r.timestamp,
            dec_start: dec_start as u32,
        });
    }
}

/// Records in a clean stream, counted by hopping granule headers (an
/// estimate on damaged streams): sizes the column reservation.
fn record_count(bytes: &[u8]) -> usize {
    let (mut off, mut n) = (0usize, 0usize);
    while let Some(&g) = bytes.get(off).filter(|&&g| g > 0) {
        off += g as usize * 16;
        n += 1;
    }
    n
}

/// The strict policy's error: the first malformed record in stream
/// order, if any.
fn first_decode_error(streams: &[ImageStream<'_>]) -> Option<AnalyzeError> {
    streams.iter().find_map(|s| {
        RecordScan::strict(s.bytes).find_map(|item| match item {
            Scanned::Gap(g) => Some(AnalyzeError::Record {
                core: s.core,
                offset: g.offset,
                cause: g.cause,
            }),
            Scanned::Record(_) => None,
        })
    })
}

/// Ingests a complete v1 image into the columnar store under `policy`:
/// the store and loss report the row path's
/// [`analyze`](crate::analyze::analyze) /
/// [`analyze_lossy`](crate::analyze::analyze_lossy) followed by
/// [`ColumnarTrace::from_rows`] would produce.
///
/// # Errors
///
/// Under [`DecodePolicy::Strict`], the first malformed record in stream
/// order, else the first SPE stream with records but no sync anchor.
/// The lossy policy never fails.
pub(crate) fn ingest(
    image: &TraceImage<'_>,
    policy: DecodePolicy,
) -> Result<(ColumnarTrace, LossReport), AnalyzeError> {
    let strict = policy == DecodePolicy::Strict;
    let streams = image.streams();
    // A strict failure in stream `si` yields to any failure before it.
    let precedence = |(si, e): V1Error| first_decode_error(&streams[..si]).unwrap_or(e);
    let mut dest = EventColumns::with_capacity(0);
    let mut ctx = V1Ctx {
        loss: streams
            .iter()
            .map(|s| StreamLoss {
                core: s.core,
                decoded_records: 0,
                tracer_dropped: s.dropped,
                gaps: Vec::new(),
                unanchored: false,
            })
            .collect(),
        anchors: Vec::new(),
    };
    let mut runs = Vec::new();
    let mut placed = 0usize;

    // PPE streams first: every anchor must be harvested before an SPE
    // record can be placed.
    for (si, s) in streams.iter().enumerate().filter(|(_, s)| !s.core.is_spe()) {
        let run = V1Source::new(si, s, None, strict).into_run(&mut dest, &mut ctx);
        let run = run.map_err(precedence)?;
        placed += run.ev.len();
        runs.push(run);
    }

    for (si, s) in streams.iter().enumerate() {
        let TraceCore::Spe(spe) = s.core else {
            continue;
        };
        let Some(a) = ctx.anchors.iter().find(|a| a.spe == spe).copied() else {
            if strict && !s.bytes.is_empty() {
                return Err(
                    first_decode_error(streams).unwrap_or(AnalyzeError::MissingAnchor { spe })
                );
            }
            // Unplaceable: decoded for the loss accounting only.
            let l = &mut ctx.loss[si];
            for item in RecordScan::lossy(s.bytes, Some(s.core)) {
                match item {
                    Scanned::Record(_) => l.decoded_records += 1,
                    Scanned::Gap(g) => l.gaps.push(g),
                }
            }
            l.unanchored = l.decoded_records > 0;
            continue;
        };
        let src = V1Source::new(si, s, Some(a), strict);
        placed += record_count(s.bytes);
        // Each record is at least 16 bytes and advances time by at most
        // one decrementer period; a stream that could wrap `u64` time
        // is placed eagerly and sorted.
        let max_elapsed = (s.bytes.len() as u64 / 16).saturating_mul(u64::from(u32::MAX));
        let run = if a.run_tb.checked_add(max_elapsed).is_none() {
            Some(src.into_run(&mut dest, &mut ctx))
        } else {
            Run::lazy(si, src, &mut dest, &mut ctx).transpose()
        };
        if let Some(run) = run {
            runs.push(run.map_err(precedence)?);
        }
    }

    dest.reserve_events(placed);
    merge(runs, &mut dest, &mut ctx).map_err(precedence)?;

    let mut trace = ColumnarTrace::empty(*image.header());
    trace.events = dest;
    trace.anchors = ctx.anchors;
    trace.dropped = image.total_dropped();
    trace.set_ctx_names(image.ctx_names());
    let streams = if strict { Vec::new() } else { ctx.loss };
    Ok((trace, LossReport { streams }))
}
