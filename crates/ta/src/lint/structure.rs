//! `unbalanced-intervals`: begin/end pairing per core.
//!
//! The analyzer reconstructs activity intervals from begin/end event
//! pairs; a begin without an end (or vice versa) means an interval
//! boundary was never recorded — a crashed kernel, instrumentation
//! placed on one side of a branch only, or plain trace truncation.
//! Truncation is the benign case, so diagnostics on streams that
//! [`LossReport`](crate::loss::LossReport) knows lost records are
//! downgraded to suspect by the runner rather than reported firm.

use pdt::{EventCode, TraceCore};

use crate::columns::EventView;

use super::{check_by_shards, spe_of_shard, Anchor, Diagnostic, Lint, LintContext, Severity};

/// The begin/end families tracked per SPE stream.
const FAMILIES: [(&str, EventCode, EventCode); 3] = [
    (
        "tag-wait",
        EventCode::SpeTagWaitBegin,
        EventCode::SpeTagWaitEnd,
    ),
    (
        "mbox-read",
        EventCode::SpeMboxReadBegin,
        EventCode::SpeMboxReadEnd,
    ),
    (
        "signal-read",
        EventCode::SpeSignalReadBegin,
        EventCode::SpeSignalReadEnd,
    ),
];

pub(super) struct UnbalancedIntervals;

impl Lint for UnbalancedIntervals {
    fn id(&self) -> &'static str {
        "unbalanced-intervals"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn docs(&self) -> &'static str {
        "A begin event has no matching end (or an end no begin) on one core, \
         beyond what trace truncation explains — an interval boundary the \
         instrumentation never recorded."
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        check_by_shards(self, ctx)
    }

    fn shards(&self, ctx: &LintContext<'_>) -> usize {
        ctx.trace.spes().len()
    }

    fn check_shard(&self, ctx: &LintContext<'_>, shard: usize) -> Vec<Diagnostic> {
        let Some(spe) = spe_of_shard(ctx, shard) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Only pairing-relevant codes matter below; pre-filter on
        // the code column so dense traces (user-event storms) do
        // not materialize a view per event.
        let cols = &ctx.trace.events;
        let events: Vec<EventView<'_>> = ctx
            .trace
            .core_slice(TraceCore::Spe(spe))
            .filter(|&o| {
                matches!(
                    cols.codes()[o],
                    EventCode::SpeTagWaitBegin
                        | EventCode::SpeTagWaitEnd
                        | EventCode::SpeMboxReadBegin
                        | EventCode::SpeMboxReadEnd
                        | EventCode::SpeSignalReadBegin
                        | EventCode::SpeSignalReadEnd
                        | EventCode::SpeCtxStart
                        | EventCode::SpeStop
                )
            })
            .map(|o| cols.view(o))
            .collect();
        for (name, begin, end) in FAMILIES {
            let mut open: Option<Anchor> = None;
            for e in &events {
                if e.code == begin {
                    if let Some(prev) = open {
                        out.push(self.diag(
                            spe,
                            prev,
                            format!(
                                "SPE{spe}: {name} begin at seq {} has no end \
                                 before the next begin",
                                prev.seq
                            ),
                        ));
                    }
                    open = Some(Anchor::at_view(e));
                } else if e.code == end && open.take().is_none() {
                    out.push(self.diag(
                        spe,
                        Anchor::at_view(e),
                        format!("SPE{spe}: {name} end at seq {} has no begin", e.stream_seq),
                    ));
                }
            }
            // An open wait at a *stopped* SPE's end is a real
            // imbalance; on a still-running (blocked) SPE it is the
            // deadlock rule's business, and on a truncated stream
            // the runner downgrades it to suspect anyway.
            let stopped = events.iter().any(|e| e.code == EventCode::SpeStop);
            if let (Some(prev), true) = (open, stopped) {
                out.push(self.diag(
                    spe,
                    prev,
                    format!(
                        "SPE{spe}: {name} begin at seq {} still open at SPE stop",
                        prev.seq
                    ),
                ));
            }
        }
        // Lifecycle pairing: a start without a stop (beyond
        // truncation) or a stop without a start.
        let start = events.iter().find(|e| e.code == EventCode::SpeCtxStart);
        let stop = events.iter().find(|e| e.code == EventCode::SpeStop);
        match (start, stop) {
            (Some(_), Some(_)) | (None, None) => {}
            (Some(s), None) => out.push(self.diag(
                spe,
                Anchor::at_view(s),
                format!("SPE{spe}: context started but never stopped"),
            )),
            (None, Some(s)) => out.push(self.diag(
                spe,
                Anchor::at_view(s),
                format!("SPE{spe}: stop recorded without a context start"),
            )),
        }
        out
    }
}

impl UnbalancedIntervals {
    fn diag(&self, _spe: u8, anchor: Anchor, message: String) -> Diagnostic {
        Diagnostic {
            rule: self.id(),
            severity: self.severity(),
            suspect: false,
            anchor: Some(anchor),
            related: Vec::new(),
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use pdt::{TraceHeader, VERSION};

    fn ev(t: u64, code: EventCode, params: Vec<u64>, seq: u64) -> GlobalEvent {
        GlobalEvent {
            time_tb: t,
            core: TraceCore::Spe(0),
            code,
            params,
            stream_seq: seq,
        }
    }

    fn trace_of(events: Vec<GlobalEvent>) -> AnalyzedTrace {
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
            events,
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    fn run(t: &AnalyzedTrace) -> Vec<Diagnostic> {
        let cols = crate::columns::ColumnarTrace::from_analyzed(t);
        let loss = crate::loss::LossReport::default();
        let config = super::super::LintConfig::default();
        let ctx = LintContext {
            trace: &cols,
            intervals: &[],
            loss: &loss,
            suspects: &[],
            edges: &[],
            config: &config,
            dma: &crate::hb::DmaReplay::new(&cols),
        };
        UnbalancedIntervals.check(&ctx)
    }

    #[test]
    fn balanced_stream_is_silent() {
        use EventCode::*;
        let t = trace_of(vec![
            ev(0, SpeCtxStart, vec![0], 0),
            ev(10, SpeTagWaitBegin, vec![1, 0], 1),
            ev(20, SpeTagWaitEnd, vec![1], 2),
            ev(30, SpeMboxReadBegin, vec![], 3),
            ev(40, SpeMboxReadEnd, vec![9], 4),
            ev(50, SpeStop, vec![0], 5),
        ]);
        assert!(run(&t).is_empty());
    }

    #[test]
    fn nested_begin_and_orphan_end_are_reported() {
        use EventCode::*;
        let t = trace_of(vec![
            ev(0, SpeCtxStart, vec![0], 0),
            ev(10, SpeTagWaitBegin, vec![1, 0], 1),
            ev(20, SpeTagWaitBegin, vec![2, 0], 2), // begin while open
            ev(30, SpeTagWaitEnd, vec![2], 3),
            ev(40, SpeMboxReadEnd, vec![9], 4), // end without begin
            ev(50, SpeStop, vec![0], 5),
        ]);
        let d = run(&t);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("no end before the next begin"));
        assert_eq!(d[0].anchor.unwrap().seq, 1);
        assert!(d[1].message.contains("has no begin"));
        assert_eq!(d[1].anchor.unwrap().seq, 4);
    }

    #[test]
    fn open_wait_at_stop_is_reported_but_blocked_spe_is_not() {
        use EventCode::*;
        // Open wait then SpeStop: imbalance.
        let t = trace_of(vec![
            ev(0, SpeCtxStart, vec![0], 0),
            ev(10, SpeTagWaitBegin, vec![1, 0], 1),
            ev(20, SpeStop, vec![0], 2),
        ]);
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("still open at SPE stop"));
        // Open read with no stop: the SPE is blocked, not unbalanced
        // (mailbox-deadlock-shape territory) — but the missing stop
        // itself is flagged.
        let t = trace_of(vec![
            ev(0, SpeCtxStart, vec![0], 0),
            ev(10, SpeMboxReadBegin, vec![], 1),
        ]);
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never stopped"));
    }
}
