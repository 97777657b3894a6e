//! One-shot ingest: a complete v1 trace decoded straight into the
//! columnar store, one shard per SPE stream ([`ingest`]), and the runs
//! and merge front it shares with the direct v2 decoder in
//! [`crate::v2read`]. See DESIGN.md, "One-shot ingest".

use pdt::{DecodeGap, EventCode, RecordScan, Scanned, TraceCore};

use crate::analyze::{AnalyzeError, SpeAnchor};
use crate::columns::{ColumnarTrace, EventColumns, ParamDict};
use crate::exec::{self, Parallelism};
use crate::loss::{DecodePolicy, LossReport, StreamLoss};
use crate::reader::{ImageStream, TraceImage};

/// The global sort key: `(time_tb, core tag, stream_seq)`.
type Key = (u64, u8, u64);

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
            let mut at = *first;
            let time = step.iter().map(|&d| {
                at += u64::from(d);
                at
            });
            *self = Times::Each {
                time: time.collect(),
                tag: vec![*tag; step.len()],
            };
        }
        if let Times::Each { time, tag } = self {
            time.push(t);
            tag.push(g);
        }
    }
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
}

/// One stream's placed events in key order, as the merge front reads
/// them.
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

    /// Event `k`'s merge key — its sort key, then its stream — given
    /// event `k - 1`'s time.
    fn key(&self, k: usize, prev: u64) -> (Key, usize) {
        let (time, tag) = match &self.ev.times {
            Times::Steps { first, tag, .. } if k == 0 => (*first, *tag),
            Times::Steps { tag, step, .. } => (prev + u64::from(step[k]), *tag),
            Times::Each { time, tag } => (time[k], tag[k]),
        };
        let seq = self.seq.get(k).map_or(k as u64, |&s| s);
        ((time, tag, seq), self.stream)
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
///
/// First each run's dictionary is remapped into `dest`'s, in stream
/// order, one intern per distinct tuple, so the store's ids do not
/// depend on which executor decoded which stream. Then a loser tree
/// over the cached head keys picks every event: the winner is
/// appended, its run's next key replaces it, and one leaf-to-root
/// replay of `log2(runs)` comparisons restores the tree.
pub(crate) fn merge(mut runs: Vec<Run>, dest: &mut EventColumns) {
    runs.retain(|r| r.ev.len() > 0);
    runs.sort_unstable_by_key(|r| r.stream);
    for run in &mut runs {
        let map = dest.absorb_dict(&std::mem::take(&mut run.ev.dict));
        for id in &mut run.ev.id {
            *id = map[*id as usize];
        }
    }
    let total = runs.iter().map(|r| r.ev.len()).sum();
    dest.reserve_events(total);

    // Heads above every real key once a run is exhausted: no run has
    // stream index `usize::MAX`.
    const DONE: (Key, usize) = ((u64::MAX, u8::MAX, u64::MAX), usize::MAX);
    let n = runs.len();
    let mut pos = vec![0usize; n];
    let mut head: Vec<(Key, usize)> = runs.iter().map(|r| r.key(0, 0)).collect();
    // Node `v` in `1..n` has children `2v` and `2v + 1`; position
    // `n + i` is run `i`'s leaf. `loser[v]` is the run that lost the
    // match at `v`; the build plays every match bottom-up once.
    let mut loser = vec![0usize; n];
    let mut won: Vec<usize> = (0..2 * n).map(|v| v.saturating_sub(n)).collect();
    for v in (1..n).rev() {
        let (a, b) = (won[2 * v], won[2 * v + 1]);
        (won[v], loser[v]) = if head[a] < head[b] { (a, b) } else { (b, a) };
    }
    let mut w = won.get(1).copied().unwrap_or(0);
    for _ in 0..total {
        let run = &runs[w];
        let k = pos[w];
        let ((time, tag, seq), _) = head[w];
        dest.push_with_id(time, tag, run.ev.code[k], run.ev.id[k], seq);
        pos[w] = k + 1;
        head[w] = if k + 1 < run.ev.len() {
            run.key(k + 1, time)
        } else {
            DONE
        };
        let mut v = (w + n) / 2;
        while v > 0 {
            if head[loser[v]] < head[w] {
                std::mem::swap(&mut loser[v], &mut w);
            }
            v /= 2;
        }
    }
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

/// Decodes one v1 stream out of the borrowed image and places it on the
/// global timeline: PPE records at their timebase stamp with
/// per-thread core tags, SPE records at `run_tb + elapsed` (wrapping)
/// from their anchor. An SPE stream without an anchor is only counted.
///
/// # Errors
///
/// Under `strict`, the stream's first malformed record.
fn decode_v1(
    s: &ImageStream<'_>,
    anchor: Option<SpeAnchor>,
    strict: bool,
) -> Result<V1Stream, AnalyzeError> {
    let mut out = V1Stream::default();
    let mut scan = if strict {
        RecordScan::strict(s.bytes)
    } else {
        RecordScan::lossy(s.bytes, Some(s.core))
    };
    let (mut elapsed, mut prev_dec) = (0u64, anchor.map_or(0, |a| a.dec_start));
    let mut params = Vec::new();
    for item in scan.by_ref() {
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
        let (time, tag) = match anchor {
            None if s.core.is_spe() => continue,
            None => {
                harvest(&r, &mut out.anchors);
                (r.timestamp, r.core.tag())
            }
            Some(a) => {
                let dec = r.timestamp as u32;
                elapsed += u64::from(prev_dec.wrapping_sub(dec));
                prev_dec = dec;
                (a.run_tb.wrapping_add(elapsed), s.core.tag())
            }
        };
        params.clear();
        params.extend(r.params());
        out.ev.push(time, tag, r.code, &params);
    }
    out.records = scan.records();
    out.unanchored = anchor.is_none() && s.core.is_spe() && out.records > 0;
    Ok(out)
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
/// [`ColumnarTrace::from_rows`] would produce, whatever `par`.
///
/// The PPE streams decode first, since every anchor must be harvested
/// before an SPE record can be placed; then each SPE stream decodes as
/// one [`exec::map_indexed`] shard, and [`merge`] joins the runs.
///
/// # Errors
///
/// Under [`DecodePolicy::Strict`], the first malformed record in stream
/// order, else the first SPE stream with records but no sync anchor.
/// The lossy policy never fails.
pub(crate) fn ingest(
    image: &TraceImage<'_>,
    policy: DecodePolicy,
    par: Parallelism,
) -> Result<(ColumnarTrace, LossReport), AnalyzeError> {
    let strict = policy == DecodePolicy::Strict;
    let streams = image.streams();
    let (ppe, spe): (Vec<usize>, Vec<usize>) =
        (0..streams.len()).partition(|&si| !streams[si].core.is_spe());
    // Decodes the streams `ids` in parallel. A strict failure in
    // stream `si` yields to any failure before it.
    let decode_all = |ids: &[usize], anchors: &[SpeAnchor]| {
        let out = exec::map_indexed(par, ids.len(), |i| {
            let s = &streams[ids[i]];
            let anchor = match s.core {
                TraceCore::Spe(spe) => anchors.iter().find(|a| a.spe == spe).copied(),
                TraceCore::Ppe(_) => None,
            };
            decode_v1(s, anchor, strict).map_err(|e| (ids[i], e))
        });
        out.into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|(si, e)| first_decode_error(&streams[..si]).unwrap_or(e))
    };

    let mut decoded: Vec<V1Stream> = streams.iter().map(|_| V1Stream::default()).collect();
    let mut anchors: Vec<SpeAnchor> = Vec::new();
    for (&si, d) in ppe.iter().zip(decode_all(&ppe, &[])?) {
        for a in &d.anchors {
            if !anchors.iter().any(|b| b.spe == a.spe) {
                anchors.push(*a);
            }
        }
        decoded[si] = d;
    }
    if strict {
        for s in streams.iter().filter(|s| !s.bytes.is_empty()) {
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
    let mut dest = EventColumns::with_capacity(0);
    merge(runs, &mut dest);

    let mut trace = ColumnarTrace::empty(*image.header());
    trace.events = dest;
    trace.anchors = anchors;
    trace.dropped = image.total_dropped();
    trace.set_ctx_names(image.ctx_names());
    let streams = if strict { Vec::new() } else { loss };
    Ok((trace, LossReport { streams }))
}
