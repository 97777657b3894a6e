//! Cross-core event-order verification and skew correction.
//!
//! The paper's PDT "maintains the sequential order of events". Within
//! one core that is free (records are appended in program order), but
//! *across* cores the analyzer reconstructs SPE time from decrementer
//! snapshots anchored at the PPE's run call — a few microseconds early
//! (E10). That skew can make causally-ordered events appear reversed
//! on the merged timeline: an SPE's mailbox-read-end may land *before*
//! the PPE write that produced the word.
//!
//! This module extracts the happens-before edges that the trace itself
//! proves — context run → context start, k-th inbound-mailbox write →
//! k-th inbound read-end, k-th outbound write → k-th outbound PPE read
//! — reports the violations, and estimates a per-SPE time shift that
//! restores causal order: the classic message-based clock alignment,
//! which is how trace tools tightened exactly this kind of anchor.

use std::collections::HashMap;

use pdt::{EventCode, TraceCore};

use crate::analyze::AnalyzedTrace;
use crate::columns::ColumnarTrace;
use crate::loss::LossReport;

/// What kind of proof an edge rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `PpeCtxRun` must precede the matching `SpeCtxStart`.
    CtxStart,
    /// A PPE inbound-mailbox write must precede the SPE read that
    /// consumed the same (k-th) word.
    InboundMbox,
    /// An SPE outbound-mailbox write must precede the PPE read that
    /// consumed the same (k-th) word.
    OutboundMbox,
    /// A signal-notify send (SPE `sndsig` or PPE register write) must
    /// precede the k-th completed read of the same `(target, register)`
    /// pair. Only emitted by [`sync_edges_columns`]: the skew machinery
    /// ([`violations`], [`estimate_skew`]) deliberately ignores signal
    /// traffic, so the row edge extraction never returns this kind.
    Signal,
}

fn kind_rank(k: EdgeKind) -> u8 {
    match k {
        EdgeKind::CtxStart => 0,
        EdgeKind::InboundMbox => 1,
        EdgeKind::OutboundMbox => 2,
        EdgeKind::Signal => 3,
    }
}

/// One happens-before edge between two events (indices into
/// [`AnalyzedTrace::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalEdge {
    /// The event that must come first.
    pub earlier: usize,
    /// The event that must come later.
    pub later: usize,
    /// The proof kind.
    pub kind: EdgeKind,
}

/// A violated edge: the "later" event carries an earlier timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The violated edge.
    pub edge: CausalEdge,
    /// By how many ticks the order is reversed.
    pub margin_tb: u64,
    /// Per-stream sequence number of the edge's earlier event, so the
    /// offending record can be located without re-deriving global
    /// indices.
    pub earlier_seq: u64,
    /// Per-stream sequence number of the edge's later event.
    pub later_seq: u64,
}

/// Per-SPE skew estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewEstimate {
    /// The SPE.
    pub spe: u8,
    /// Ticks to shift this SPE's events forward.
    pub shift_tb: u64,
    /// Incoming-edge violations that forced the shift.
    pub forced_by: usize,
    /// Upper bound allowed by outgoing edges (shift is clamped to it).
    pub allowed_tb: u64,
}

fn ctx_to_spe(trace: &AnalyzedTrace) -> HashMap<u32, u8> {
    trace.anchors.iter().map(|a| (a.ctx, a.spe)).collect()
}

/// Extracts the provable happens-before edges from a trace, assuming
/// no records were lost.
///
/// Equivalent to [`causal_edges_with_loss`] with an empty
/// [`LossReport`]; prefer the loss-aware variant when ingestion ran
/// with accounting.
pub(crate) fn causal_edges(trace: &AnalyzedTrace) -> Vec<CausalEdge> {
    causal_edges_with_loss(trace, &LossReport::default())
}

/// Extracts the provable happens-before edges, refusing to fabricate
/// mailbox pairings across trace damage.
///
/// FIFO pairing matches the k-th consume to the k-th produce — but a
/// decode gap can swallow a write or a read, shifting k and pairing
/// unrelated events. So for any SPE whose reconstruction is suspect
/// (its own stream lost records, or a PPE stream has gaps that may
/// hide mailbox writes), mailbox edges are dropped entirely.
/// `CtxStart` edges survive: they pair by context id, not by count.
pub(crate) fn causal_edges_with_loss(trace: &AnalyzedTrace, loss: &LossReport) -> Vec<CausalEdge> {
    let ctx_spe = ctx_to_spe(trace);
    let mut q = SyncQueues::default();
    for (i, e) in trace.events.iter().enumerate() {
        q.observe(i, e.core, e.code, &e.params, &ctx_spe);
    }
    q.emit(loss, false, |i| i as u128)
}

/// The row edge extraction (`causal_edges_with_loss`) over the
/// columnar store: the same queue construction and FIFO pairing, fed
/// core by core from the columns. Edge indices are global ranks, shared
/// with any materialized row vector (the order is built to map them).
/// The row function remains the differential oracle.
pub fn causal_edges_columns(trace: &ColumnarTrace, loss: &LossReport) -> Vec<CausalEdge> {
    let mut edges = store_queues(trace).emit(loss, false, |i| trace.order_key(i));
    let ranks = trace.order().ranks();
    for e in &mut edges {
        (e.earlier, e.later) = (ranks[e.earlier] as usize, ranks[e.later] as usize);
    }
    edges
}

/// The full synchronization-edge set of a trace — the shared extraction
/// behind [`causal_edges_columns`] plus the signal-notify pairings the
/// skew machinery ignores. This is the edge set the happens-before
/// race engine ([`crate::hb`]) propagates vector clocks over, and what
/// [`crate::session::Analysis`] memoizes once per trace so the lint
/// rules stop re-deriving pairings per rule, per shard, and per
/// streaming snapshot epoch.
///
/// Edge indices are global ranks. Output is sorted by `(later,
/// earlier, kind)`, so repeated extraction over identical columns is
/// byte-identical regardless of internal map iteration order.
pub fn sync_edges_columns(trace: &ColumnarTrace, loss: &LossReport) -> Vec<CausalEdge> {
    ranked_sync_edges(trace, &sync_edges_store(trace, loss))
}

/// [`sync_edges_columns`] with store positions for endpoints, unsorted
/// and built without the global order: the form lint works in.
pub(crate) fn sync_edges_store(trace: &ColumnarTrace, loss: &LossReport) -> Vec<CausalEdge> {
    store_queues(trace).emit(loss, true, |i| trace.order_key(i))
}

/// Store-position `edges` as [`sync_edges_columns`] returns them:
/// endpoints mapped to global ranks through the order (built on first
/// use), sorted by `(later, earlier, kind)`.
pub(crate) fn ranked_sync_edges(trace: &ColumnarTrace, edges: &[CausalEdge]) -> Vec<CausalEdge> {
    let ranks = trace.order().ranks();
    let mut out: Vec<CausalEdge> = (edges.iter())
        .map(|e| CausalEdge {
            earlier: ranks[e.earlier] as usize,
            later: ranks[e.later] as usize,
            kind: e.kind,
        })
        .collect();
    out.sort_unstable_by_key(|e| (e.later, e.earlier, kind_rank(e.kind)));
    out
}

/// Global-rank `edges` with store positions for endpoints: the inverse
/// of [`ranked_sync_edges`], for the public entry points that take
/// rank-form edges. Endpoints outside the trace drop the edge.
pub(crate) fn store_sync_edges(trace: &ColumnarTrace, edges: &[CausalEdge]) -> Vec<CausalEdge> {
    let by_rank = trace.order().by_rank();
    (edges.iter())
        .filter_map(|e| {
            Some(CausalEdge {
                earlier: *by_rank.get(e.earlier)? as usize,
                later: *by_rank.get(e.later)? as usize,
                kind: e.kind,
            })
        })
        .collect()
}

/// Whether [`SyncQueues::observe`] reads events of `code`.
fn pairs(code: EventCode) -> bool {
    use EventCode::*;
    matches!(
        code,
        PpeCtxRun
            | SpeCtxStart
            | PpeMboxWrite
            | SpeMboxReadEnd
            | SpeMboxWrite
            | PpeMboxRead
            | SpeSignalSend
            | PpeSignalWrite
            | SpeSignalReadBegin
            | SpeSignalReadEnd
    )
}

/// Queues fed core by core: each segment in stream order, visiting
/// only the codes the pairing reads (found from the code column), so
/// event ids are store positions and no global order is needed.
fn store_queues(trace: &ColumnarTrace) -> SyncQueues {
    let ctx_spe: HashMap<u32, u8> = trace.anchors.iter().map(|a| (a.ctx, a.spe)).collect();
    let codes = trace.events.codes();
    let mut q = SyncQueues::default();
    for (core, seg) in trace.segments() {
        for i in seg.filter(|&i| pairs(codes[i])) {
            q.observe(i, core, codes[i], trace.events.params(i), &ctx_spe);
        }
    }
    q
}

/// One recorded signal send: event index plus the sending SPE
/// (`None` for PPE register writes).
type SigSend = (usize, Option<u8>);

/// Producer/consumer queues for every synchronization pairing the
/// trace proves, harvested in one pass over the events of each core
/// (rows in global order, or columns core by core). The single
/// definition of the FIFO pairing semantics — [`causal_edges_with_loss`],
/// [`causal_edges_columns`] and [`sync_edges_columns`] all feed it.
///
/// A queue one core feeds is in that core's order, which is its global
/// order. The queues several cores feed (PPE-thread mailbox traffic,
/// signal sends to one register, the context runs per SPE) are merged
/// into global order when the queues are paired.
#[derive(Default)]
struct SyncQueues {
    /// spe → its `PpeCtxRun` events (the last in global order pairs).
    runs_by_spe: HashMap<u8, Vec<usize>>,
    /// spe → `SpeCtxStart` event.
    starts: HashMap<u8, usize>,
    /// Inbound mailbox: PPE writes / SPE read-ends per SPE.
    in_writes: HashMap<u8, Vec<usize>>,
    in_reads: HashMap<u8, Vec<usize>>,
    /// Outbound mailbox: SPE writes / PPE reads per SPE.
    out_writes: HashMap<u8, Vec<usize>>,
    out_reads: HashMap<u8, Vec<usize>>,
    /// Signal sends per `(target spe, register)`, each tagged with the
    /// sending SPE (`None` for PPE register writes).
    sig_sends: HashMap<(u8, u8), Vec<SigSend>>,
    /// Completed signal reads per `(spe, register)`.
    sig_reads: HashMap<(u8, u8), Vec<usize>>,
    /// Register named by the currently open `SpeSignalReadBegin` per
    /// SPE — read-end records carry only the value, so the bracket
    /// supplies the register.
    open_sig_reg: HashMap<u8, u8>,
}

impl SyncQueues {
    fn observe(
        &mut self,
        i: usize,
        core: TraceCore,
        code: EventCode,
        params: &[u64],
        ctx_spe: &HashMap<u32, u8>,
    ) {
        let ctx_target = |k: usize| {
            params
                .get(k)
                .and_then(|c| ctx_spe.get(&(*c as u32)))
                .copied()
        };
        match (core, code) {
            (TraceCore::Ppe(_), EventCode::PpeCtxRun) => {
                if let Some(&spe) = params.get(1) {
                    self.runs_by_spe.entry(spe as u8).or_default().push(i);
                }
            }
            (TraceCore::Spe(s), EventCode::SpeCtxStart) => {
                self.starts.insert(s, i);
            }
            (TraceCore::Ppe(_), EventCode::PpeMboxWrite) => {
                if let Some(spe) = ctx_target(0) {
                    self.in_writes.entry(spe).or_default().push(i);
                }
            }
            (TraceCore::Spe(s), EventCode::SpeMboxReadEnd) => {
                self.in_reads.entry(s).or_default().push(i);
            }
            (TraceCore::Spe(s), EventCode::SpeMboxWrite) => {
                self.out_writes.entry(s).or_default().push(i);
            }
            (TraceCore::Ppe(_), EventCode::PpeMboxRead) => {
                if let Some(spe) = ctx_target(0) {
                    self.out_reads.entry(spe).or_default().push(i);
                }
            }
            (TraceCore::Spe(s), EventCode::SpeSignalSend) => {
                if let (Some(&target), Some(&reg)) = (params.first(), params.get(1)) {
                    self.sig_sends
                        .entry((target as u8, reg as u8))
                        .or_default()
                        .push((i, Some(s)));
                }
            }
            (TraceCore::Ppe(_), EventCode::PpeSignalWrite) => {
                if let (Some(spe), Some(&reg)) = (ctx_target(0), params.get(1)) {
                    self.sig_sends
                        .entry((spe, reg as u8))
                        .or_default()
                        .push((i, None));
                }
            }
            (TraceCore::Spe(s), EventCode::SpeSignalReadBegin) => {
                if let Some(&reg) = params.first() {
                    self.open_sig_reg.insert(s, reg as u8);
                }
            }
            (TraceCore::Spe(s), EventCode::SpeSignalReadEnd) => {
                let reg = self.open_sig_reg.get(&s).copied().unwrap_or(0);
                self.sig_reads.entry((s, reg)).or_default().push(i);
            }
            _ => {}
        }
    }

    /// Pairs the queues into edges. Mailboxes and signal registers are
    /// FIFO: the k-th consume pairs with the k-th produce, in global
    /// order, which `key` gives for event ids (ascending with the
    /// global rank). A queue one core feeds is already in it; the
    /// queues several cores feed are sorted by it first, and the last
    /// context run per SPE is the one with the greatest key. Pairings
    /// that trace damage could have shifted off-by-k are dropped, not
    /// fabricated; `CtxStart` edges survive because they pair by
    /// context id, not by count. Iteration is over sorted keys so the
    /// emission order is deterministic.
    fn emit(
        mut self,
        loss: &LossReport,
        signals: bool,
        key: impl Fn(usize) -> u128,
    ) -> Vec<CausalEdge> {
        for q in self
            .in_writes
            .values_mut()
            .chain(self.out_reads.values_mut())
        {
            q.sort_by_key(|&i| key(i));
        }
        for q in self.sig_sends.values_mut() {
            q.sort_by_key(|&(i, _)| key(i));
        }
        let mut edges = Vec::new();
        let sorted_keys = |m: &HashMap<u8, Vec<usize>>| {
            let mut keys: Vec<u8> = m.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        let mut start_spes: Vec<u8> = self.starts.keys().copied().collect();
        start_spes.sort_unstable();
        for spe in start_spes {
            let run =
                (self.runs_by_spe.get(&spe)).and_then(|runs| runs.iter().max_by_key(|&&i| key(i)));
            if let Some(&run) = run {
                edges.push(CausalEdge {
                    earlier: run,
                    later: self.starts[&spe],
                    kind: EdgeKind::CtxStart,
                });
            }
        }
        for (queue, reads, kind) in [
            (&self.in_writes, &self.in_reads, EdgeKind::InboundMbox),
            (&self.out_writes, &self.out_reads, EdgeKind::OutboundMbox),
        ] {
            for spe in sorted_keys(queue) {
                if loss.suspect(spe) {
                    continue;
                }
                if let Some(reads) = reads.get(&spe) {
                    for (w, r) in queue[&spe].iter().zip(reads) {
                        edges.push(CausalEdge {
                            earlier: *w,
                            later: *r,
                            kind,
                        });
                    }
                }
            }
        }
        if signals {
            let mut sig_keys: Vec<(u8, u8)> = self.sig_sends.keys().copied().collect();
            sig_keys.sort_unstable();
            for key in sig_keys {
                let sends = &self.sig_sends[&key];
                // A lost send or read shifts k for the whole register,
                // and a suspect *sender* may have sent words the trace
                // no longer shows — drop the register's pairings if any
                // involved stream is suspect.
                if loss.suspect(key.0)
                    || sends
                        .iter()
                        .any(|(_, sender)| sender.is_some_and(|s| loss.suspect(s)))
                {
                    continue;
                }
                if let Some(reads) = self.sig_reads.get(&key) {
                    for ((w, _), r) in sends.iter().zip(reads) {
                        edges.push(CausalEdge {
                            earlier: *w,
                            later: *r,
                            kind: EdgeKind::Signal,
                        });
                    }
                }
            }
        }
        edges
    }
}

/// Reports the edges whose reconstructed timestamps are reversed.
pub fn violations(trace: &AnalyzedTrace) -> Vec<Violation> {
    causal_edges(trace)
        .into_iter()
        .filter_map(|edge| {
            let early = &trace.events[edge.earlier];
            let late = &trace.events[edge.later];
            (late.time_tb < early.time_tb).then(|| Violation {
                edge,
                margin_tb: early.time_tb - late.time_tb,
                earlier_seq: early.stream_seq,
                later_seq: late.stream_seq,
            })
        })
        .collect()
}

/// Estimates the forward shift each SPE's clock needs so that no
/// provable edge is violated, clamped so that no *outgoing* edge
/// (SPE → PPE) becomes violated instead.
pub fn estimate_skew(trace: &AnalyzedTrace) -> Vec<SkewEstimate> {
    let edges = causal_edges(trace);
    let mut needed: HashMap<u8, (u64, usize)> = HashMap::new();
    let mut allowed: HashMap<u8, u64> = HashMap::new();
    for e in &edges {
        let earlier = &trace.events[e.earlier];
        let later = &trace.events[e.later];
        match (earlier.core, later.core) {
            (TraceCore::Ppe(_), TraceCore::Spe(s)) if later.time_tb < earlier.time_tb => {
                let m = earlier.time_tb - later.time_tb;
                let entry = needed.entry(s).or_insert((0, 0));
                entry.0 = entry.0.max(m);
                entry.1 += 1;
            }
            (TraceCore::Spe(s), TraceCore::Ppe(_)) => {
                let slack = later.time_tb.saturating_sub(earlier.time_tb);
                let a = allowed.entry(s).or_insert(u64::MAX);
                *a = (*a).min(slack);
            }
            _ => {}
        }
    }
    let mut out: Vec<SkewEstimate> = trace
        .spes()
        .into_iter()
        .filter_map(|spe| {
            let (need, forced_by) = needed.get(&spe).copied().unwrap_or((0, 0));
            if need == 0 {
                return None;
            }
            let allow = allowed.get(&spe).copied().unwrap_or(u64::MAX);
            Some(SkewEstimate {
                spe,
                shift_tb: need.min(allow),
                forced_by,
                allowed_tb: allow,
            })
        })
        .collect();
    out.sort_by_key(|s| s.spe);
    out
}

/// Detects, estimates and applies the skew corrections in one step:
/// shifts each SPE that needs it forward ([`estimate_skew`]) and
/// re-sorts the global order (stable on per-core sequence). Returns the
/// corrected trace and the estimates used.
pub fn align_clocks(trace: &AnalyzedTrace) -> (AnalyzedTrace, Vec<SkewEstimate>) {
    let est = estimate_skew(trace);
    let by_spe: HashMap<u8, u64> = est.iter().map(|c| (c.spe, c.shift_tb)).collect();
    let mut out = trace.clone();
    for e in &mut out.events {
        if let TraceCore::Spe(s) = e.core {
            if let Some(shift) = by_spe.get(&s) {
                e.time_tb += shift;
            }
        }
    }
    for a in &mut out.anchors {
        if let Some(shift) = by_spe.get(&a.spe) {
            a.run_tb += shift;
        }
    }
    out.events
        .sort_by_key(|a| (a.time_tb, a.core, a.stream_seq));
    (out, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{GlobalEvent, SpeAnchor};
    use pdt::{TraceHeader, VERSION};

    fn ev(t: u64, core: TraceCore, code: EventCode, params: Vec<u64>, seq: u64) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core,
            code,
            params,
            stream_seq: seq,
        }
    }

    /// A PPE writes a word at t=100; with a −30-tick anchor skew the
    /// SPE's read-end lands at t=80 on the reconstructed timeline.
    fn skewed_trace() -> AnalyzedTrace {
        use EventCode::*;
        let ppe = TraceCore::Ppe(0);
        let spe = TraceCore::Spe(0);
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
            events: vec![
                ev(50, ppe, PpeCtxRun, vec![0, 0, u32::MAX as u64], 0),
                ev(50, spe, SpeCtxStart, vec![0], 0),
                ev(60, spe, SpeMboxReadBegin, vec![], 1),
                ev(80, spe, SpeMboxReadEnd, vec![7], 2),
                ev(100, ppe, PpeMboxWrite, vec![0, 7], 1),
                ev(150, spe, SpeMboxWrite, vec![9], 3),
                ev(200, ppe, PpeMboxRead, vec![0, 9], 2),
                ev(220, spe, SpeStop, vec![0], 4),
            ],
            ctx_names: vec![],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 50,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        }
    }

    #[test]
    fn edges_and_violations_are_detected() {
        let t = skewed_trace();
        let edges = causal_edges(&t);
        assert_eq!(edges.len(), 3, "{edges:?}");
        let v = violations(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].edge.kind, EdgeKind::InboundMbox);
        assert_eq!(v[0].margin_tb, 20);
        // The violation names both offending records by their
        // per-stream sequence numbers.
        assert_eq!(v[0].earlier_seq, 1, "PPE write is its stream's record 1");
        assert_eq!(v[0].later_seq, 2, "SPE read-end is its stream's record 2");
    }

    #[test]
    fn decode_gaps_drop_mailbox_edges_but_keep_ctx_start() {
        use crate::loss::StreamLoss;
        use pdt::{DecodeGap, RecordError};
        let t = skewed_trace();
        let lossy = |core| StreamLoss {
            core,
            decoded_records: 4,
            tracer_dropped: 0,
            gaps: vec![DecodeGap {
                offset: 16,
                len: 32,
                est_records: 2,
                records_before: 1,
                cause: RecordError::ZeroLength,
            }],
            unanchored: false,
        };
        // A gap in SPE0's own stream: its mailbox pairings may be
        // off-by-k, so only the ctx-start edge (paired by context id,
        // not count) survives.
        let loss = LossReport {
            streams: vec![lossy(TraceCore::Spe(0))],
            truncated: None,
        };
        let edges = causal_edges_with_loss(&t, &loss);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].kind, EdgeKind::CtxStart);
        // A gap in a PPE stream may hide mailbox writes for any SPE:
        // same result.
        let loss = LossReport {
            streams: vec![lossy(TraceCore::Ppe(0))],
            truncated: None,
        };
        let edges = causal_edges_with_loss(&t, &loss);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].kind, EdgeKind::CtxStart);
        // A gap in some *other* SPE's stream taints nothing here.
        let loss = LossReport {
            streams: vec![lossy(TraceCore::Spe(5))],
            truncated: None,
        };
        assert_eq!(causal_edges_with_loss(&t, &loss).len(), 3);
        // And the unaware helper is the empty-loss special case.
        assert_eq!(causal_edges(&t).len(), 3);
    }

    #[test]
    fn columnar_edges_match_row_edges() {
        use crate::columns::ColumnarTrace;
        // Edge order depends on HashMap iteration, so compare as sets.
        let key = |e: &CausalEdge| (e.earlier, e.later, kind_rank(e.kind));
        let sorted = |mut v: Vec<CausalEdge>| {
            v.sort_by_key(key);
            v
        };
        let t = skewed_trace();
        let cols = ColumnarTrace::from_analyzed(&t);
        let empty = LossReport::default();
        assert_eq!(
            sorted(causal_edges_columns(&cols, &empty)),
            sorted(causal_edges_with_loss(&t, &empty))
        );
        // With a lossy SPE stream the mailbox pairings drop on both
        // representations alike.
        use crate::loss::StreamLoss;
        let loss = LossReport {
            streams: vec![StreamLoss {
                core: TraceCore::Spe(0),
                decoded_records: 4,
                tracer_dropped: 3,
                gaps: vec![],
                unanchored: false,
            }],
            truncated: None,
        };
        assert_eq!(
            sorted(causal_edges_columns(&cols, &loss)),
            sorted(causal_edges_with_loss(&t, &loss))
        );
    }

    /// SPE1 `sndsig`s SPE0 twice on register 1, the PPE writes
    /// register 2 once; SPE0 completes two reads of reg 1 and one of
    /// reg 2.
    fn signal_trace() -> AnalyzedTrace {
        use EventCode::*;
        let ppe = TraceCore::Ppe(0);
        let spe0 = TraceCore::Spe(0);
        let spe1 = TraceCore::Spe(1);
        let mut t = skewed_trace();
        t.header.num_spes = 2;
        t.events = vec![
            ev(10, ppe, PpeCtxRun, vec![0, 0, u32::MAX as u64], 0),
            ev(12, ppe, PpeCtxRun, vec![1, 1, u32::MAX as u64], 1),
            ev(15, spe0, SpeCtxStart, vec![0], 0),
            ev(16, spe1, SpeCtxStart, vec![1], 0),
            ev(20, spe1, SpeSignalSend, vec![0, 1, 7], 1),
            ev(25, spe0, SpeSignalReadBegin, vec![1], 1),
            ev(30, spe0, SpeSignalReadEnd, vec![7], 2),
            ev(40, ppe, PpeSignalWrite, vec![0, 2, 9], 2),
            ev(45, spe0, SpeSignalReadBegin, vec![2], 3),
            ev(50, spe0, SpeSignalReadEnd, vec![9], 4),
            ev(60, spe1, SpeSignalSend, vec![0, 1, 8], 2),
            ev(65, spe0, SpeSignalReadBegin, vec![1], 5),
            ev(70, spe0, SpeSignalReadEnd, vec![8], 6),
        ];
        t.anchors = vec![
            SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 10,
                dec_start: u32::MAX,
            },
            SpeAnchor {
                spe: 1,
                ctx: 1,
                run_tb: 12,
                dec_start: u32::MAX,
            },
        ];
        t
    }

    #[test]
    fn sync_edges_pair_signals_by_register_fifo() {
        use crate::columns::ColumnarTrace;
        let t = signal_trace();
        let cols = ColumnarTrace::from_analyzed(&t);
        let empty = LossReport::default();
        // The skew path never sees signal traffic...
        assert!(causal_edges_columns(&cols, &empty)
            .iter()
            .all(|e| e.kind != EdgeKind::Signal));
        // ...but the full sync-edge set pairs each send with the k-th
        // completed read of the same (target, register).
        let edges = sync_edges_columns(&cols, &empty);
        let sig: Vec<(usize, usize)> = edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Signal)
            .map(|e| (e.earlier, e.later))
            .collect();
        // reg1: send@4 → read-end@6, send@10 → read-end@12;
        // reg2: ppe-write@7 → read-end@9.
        assert_eq!(sig, vec![(4, 6), (7, 9), (10, 12)], "{edges:?}");
        // Output is sorted by (later, earlier, kind): deterministic.
        let mut resorted = edges.clone();
        resorted.sort_by_key(|e| (e.later, e.earlier, kind_rank(e.kind)));
        assert_eq!(edges, resorted);
    }

    #[test]
    fn suspect_streams_drop_signal_pairings() {
        use crate::columns::ColumnarTrace;
        use crate::loss::StreamLoss;
        let t = signal_trace();
        let cols = ColumnarTrace::from_analyzed(&t);
        let lossy = |core| StreamLoss {
            core,
            decoded_records: 4,
            tracer_dropped: 1,
            gaps: vec![],
            unanchored: false,
        };
        // Suspect *sender* (SPE1): its register-1 pairings drop, the
        // PPE's register-2 edge survives (PPE streams are clean here).
        let loss = LossReport {
            streams: vec![lossy(TraceCore::Spe(1))],
            truncated: None,
        };
        let sig: Vec<usize> = sync_edges_columns(&cols, &loss)
            .iter()
            .filter(|e| e.kind == EdgeKind::Signal)
            .map(|e| e.earlier)
            .collect();
        assert_eq!(sig, vec![7]);
        // Suspect *target* (SPE0): every signal pairing into it drops.
        let loss = LossReport {
            streams: vec![lossy(TraceCore::Spe(0))],
            truncated: None,
        };
        assert!(sync_edges_columns(&cols, &loss)
            .iter()
            .all(|e| e.kind != EdgeKind::Signal));
    }

    #[test]
    fn skew_estimate_is_clamped_by_outgoing_edges() {
        let t = skewed_trace();
        let est = estimate_skew(&t);
        assert_eq!(est.len(), 1);
        let e = est[0];
        assert_eq!(e.spe, 0);
        // Needs +20 to fix the inbound violation; the outbound edge
        // (150 → 200) allows up to +50.
        assert_eq!(e.shift_tb, 20);
        assert_eq!(e.allowed_tb, 50);
        assert_eq!(e.forced_by, 1);
    }

    #[test]
    fn applying_the_shift_restores_causal_order() {
        let t = skewed_trace();
        let (fixed, est) = align_clocks(&t);
        assert_eq!(est.len(), 1);
        assert!(violations(&fixed).is_empty(), "{:?}", violations(&fixed));
        // SPE events moved forward by 20; PPE events untouched.
        let read_end = fixed
            .events
            .iter()
            .find(|e| e.code == EventCode::SpeMboxReadEnd)
            .unwrap();
        assert_eq!(read_end.time_tb, 100);
        let write = fixed
            .events
            .iter()
            .find(|e| e.code == EventCode::PpeMboxWrite)
            .unwrap();
        assert_eq!(write.time_tb, 100);
        // Order: at the tie, PPE (lower core tag) sorts first — the
        // producer precedes the consumer.
        let iw = fixed
            .events
            .iter()
            .position(|e| e.code == EventCode::PpeMboxWrite)
            .unwrap();
        let ir = fixed
            .events
            .iter()
            .position(|e| e.code == EventCode::SpeMboxReadEnd)
            .unwrap();
        assert!(iw < ir);
        // The anchor moved with the events.
        assert_eq!(fixed.anchors[0].run_tb, 70);
    }

    #[test]
    fn clean_trace_needs_no_correction() {
        let mut t = skewed_trace();
        // Move the read-end after the write.
        for e in &mut t.events {
            if e.code == EventCode::SpeMboxReadEnd {
                e.time_tb = 120;
            }
        }
        t.events.sort_by_key(|e| e.time_tb);
        assert!(violations(&t).is_empty());
        assert!(estimate_skew(&t).is_empty());
    }

    #[test]
    fn zero_length_interval_edge_is_not_a_violation() {
        let mut t = skewed_trace();
        // Collapse the inbound pair onto one instant: write and
        // read-end at the same tick. "Not later" is fine; only a
        // strictly earlier consumer is a violation.
        for e in &mut t.events {
            if e.code == EventCode::SpeMboxReadEnd {
                e.time_tb = 100;
            }
        }
        assert!(violations(&t).is_empty());
        assert!(estimate_skew(&t).is_empty());
        let (fixed, est) = align_clocks(&t);
        assert!(est.is_empty());
        assert_eq!(fixed.events.len(), t.events.len());
    }

    #[test]
    fn identical_timestamps_across_spes_resolve_independently() {
        use EventCode::*;
        let ppe = TraceCore::Ppe(0);
        let mut t = skewed_trace();
        // A second SPE whose events all collide with SPE0's timestamps.
        // Only SPE1's read-end is reversed; SPE0 stays clean at t=100.
        for e in &mut t.events {
            if e.code == SpeMboxReadEnd {
                e.time_tb = 100;
            }
        }
        t.header.num_spes = 2;
        let spe1 = TraceCore::Spe(1);
        t.events.extend([
            ev(50, ppe, PpeCtxRun, vec![1, 1, u32::MAX as u64], 3),
            ev(50, spe1, SpeCtxStart, vec![1], 0),
            ev(80, spe1, SpeMboxReadEnd, vec![7], 1),
            ev(100, ppe, PpeMboxWrite, vec![1, 7], 4),
            ev(220, spe1, SpeStop, vec![1], 2),
        ]);
        t.anchors.push(SpeAnchor {
            spe: 1,
            ctx: 1,
            run_tb: 50,
            dec_start: u32::MAX,
        });
        t.events.sort_by_key(|e| (e.time_tb, e.core, e.stream_seq));
        let v = violations(&t);
        assert_eq!(v.len(), 1, "{v:?}");
        let est = estimate_skew(&t);
        assert_eq!(est.len(), 1);
        assert_eq!(est[0].spe, 1, "only the skewed SPE gets a shift");
        assert_eq!(est[0].shift_tb, 20);
        let (fixed, _) = align_clocks(&t);
        assert!(violations(&fixed).is_empty());
        // SPE0's colliding events were not disturbed.
        let spe0_read = fixed
            .events
            .iter()
            .find(|e| e.core == TraceCore::Spe(0) && e.code == SpeMboxReadEnd)
            .unwrap();
        assert_eq!(spe0_read.time_tb, 100);
    }

    #[test]
    fn single_event_streams_produce_no_edges() {
        use EventCode::*;
        let t = AnalyzedTrace {
            header: skewed_trace().header,
            events: vec![
                ev(
                    50,
                    TraceCore::Ppe(0),
                    PpeCtxRun,
                    vec![0, 0, u32::MAX as u64],
                    0,
                ),
                ev(60, TraceCore::Spe(0), SpeUser, vec![1], 0),
            ],
            ctx_names: vec![],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 50,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        };
        // No SpeCtxStart, no mailbox pairs: nothing is provable.
        assert!(causal_edges(&t).is_empty());
        assert!(violations(&t).is_empty());
        assert!(estimate_skew(&t).is_empty());
        let (fixed, est) = align_clocks(&t);
        assert!(est.is_empty());
        assert_eq!(fixed.events, t.events);
    }

    #[test]
    fn single_event_spe_with_reversed_anchor_gets_unclamped_shift() {
        use EventCode::*;
        // The SPE's entire stream is one SpeCtxStart that lands 20
        // ticks *before* the PpeCtxRun that launched it. With no
        // outgoing (SPE → PPE) edges, the allowed slack is unbounded
        // and the shift is exactly the violation margin.
        let t = AnalyzedTrace {
            header: skewed_trace().header,
            events: vec![
                ev(
                    50,
                    TraceCore::Ppe(0),
                    PpeCtxRun,
                    vec![0, 0, u32::MAX as u64],
                    0,
                ),
                ev(30, TraceCore::Spe(0), SpeCtxStart, vec![0], 0),
            ],
            ctx_names: vec![],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 50,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        };
        let v = violations(&t);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].edge.kind, EdgeKind::CtxStart);
        assert_eq!(v[0].margin_tb, 20);
        assert_eq!((v[0].earlier_seq, v[0].later_seq), (0, 0));
        let est = estimate_skew(&t);
        assert_eq!(est.len(), 1);
        assert_eq!(est[0].shift_tb, 20);
        assert_eq!(est[0].allowed_tb, u64::MAX, "no outgoing edge to clamp");
        let (fixed, _) = align_clocks(&t);
        assert!(violations(&fixed).is_empty());
    }

    #[test]
    fn unmatched_mailbox_traffic_is_ignored() {
        use EventCode::*;
        let mut t = skewed_trace();
        // Three extra PPE writes with no matching SPE reads: FIFO
        // pairing must only produce edges for consumed words.
        let n = t.events.len() as u64;
        for k in 0..3 {
            t.events.push(ev(
                300 + k,
                TraceCore::Ppe(0),
                PpeMboxWrite,
                vec![0, 40 + k],
                n + k,
            ));
        }
        let edges = causal_edges(&t);
        assert_eq!(edges.len(), 3, "unconsumed writes add no edges");
    }

    #[test]
    fn needed_beyond_allowed_is_clamped() {
        let mut t = skewed_trace();
        // Make the outbound edge tight: PPE read at 155 (slack 5).
        for e in &mut t.events {
            if e.code == EventCode::PpeMboxRead {
                e.time_tb = 155;
            }
        }
        let est = estimate_skew(&t);
        assert_eq!(est[0].shift_tb, 5, "clamped to the outgoing slack");
        let (fixed, _) = align_clocks(&t);
        // The inbound violation shrinks but cannot fully close.
        let v = violations(&fixed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].margin_tb, 15);
    }
}
