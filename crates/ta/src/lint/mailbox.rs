//! `mailbox-deadlock-shape`: cyclic blocked-on-mailbox wait chains.
//!
//! A deadlocked SPE shows up in a trace as an open mailbox (or signal)
//! read at the end of its stream: the begin event is recorded, the end
//! never arrives. One blocked SPE is a stall; a *cycle* of blocked
//! SPEs, each waiting on a word only another blocked SPE would
//! produce, is the deadlock shape the rule hunts.
//!
//! Whether a blocked SPE is genuinely starved is decided with the
//! FIFO pairing from [`causality::causal_edges`]: if the trace holds
//! an inbound write (or signal send) the blocked read never consumed,
//! a word is still in flight and the SPE would have woken — no
//! deadlock. Who a starved SPE waits *on* is reconstructed from the
//! trace's own traffic: signal reads wait on their historical
//! senders ([`SpeSignalSend`] carries the target), and inbound
//! mailbox words are attributed through the PPE relay pattern — a
//! `PpeMboxWrite` to SPE *b* issued after the PPE last read from SPE
//! *y* makes *b* wait on *y*.
//!
//! [`causality::causal_edges`]: crate::causality::causal_edges
//! [`SpeSignalSend`]: pdt::EventCode::SpeSignalSend

use std::collections::HashMap;

use pdt::{EventCode, TraceCore};

use crate::causality::EdgeKind;
use crate::columns::ColumnarTrace;

use super::{Anchor, Diagnostic, Lint, LintContext, Severity};

/// What a blocked SPE is stuck reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Mbox,
    Signal,
}

#[derive(Debug, Clone)]
struct Blocked {
    kind: BlockKind,
    begin: Anchor,
}

/// Finds the open read at the end of one SPE's stream, if any: the
/// segment's code column scanned backward from its end to the last
/// read bracket or stop, an open read when that is a begin.
fn blocked_wait(trace: &ColumnarTrace, spe: u8) -> Option<Blocked> {
    let seg = trace.core_slice(TraceCore::Spe(spe));
    let codes = &trace.events.codes()[seg.clone()];
    let at = codes.iter().rposition(|&c| {
        use EventCode::*;
        matches!(
            c,
            SpeMboxReadBegin | SpeSignalReadBegin | SpeMboxReadEnd | SpeSignalReadEnd | SpeStop
        )
    })?;
    let kind = match codes[at] {
        EventCode::SpeMboxReadBegin => BlockKind::Mbox,
        EventCode::SpeSignalReadBegin => BlockKind::Signal,
        _ => return None,
    };
    let begin = Anchor::at_view(&trace.events.view(seg.start + at));
    Some(Blocked { kind, begin })
}

pub(super) struct MailboxDeadlockShape;

impl Lint for MailboxDeadlockShape {
    fn id(&self) -> &'static str {
        "mailbox-deadlock-shape"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn docs(&self) -> &'static str {
        "Multiple SPEs end the trace blocked in mailbox/signal reads with no \
         word in flight, and the historical producer relationships between \
         them form a cycle — the classic deadlock shape: everyone waits on a \
         word only another waiter would send."
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let trace = ctx.trace;
        // SPEs ending the trace inside an open mailbox/signal read.
        let mut blocked: HashMap<u8, Blocked> = HashMap::new();
        for spe in trace.spes() {
            if let Some(b) = blocked_wait(trace, spe) {
                blocked.insert(spe, b);
            }
        }
        if blocked.len() < 2 {
            return Vec::new();
        }

        // In-flight words rule out starvation: count unconsumed
        // producer events via the FIFO pairing of the run's shared
        // sync-edge set (extracted once, not per rule).
        let ctx_spe: HashMap<u32, u8> = trace.anchors.iter().map(|a| (a.ctx, a.spe)).collect();
        let paired_inbound: HashMap<u8, usize> = ctx
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::InboundMbox)
            .fold(HashMap::new(), |mut m, e| {
                if let TraceCore::Spe(s) = trace.events.core(e.later) {
                    *m.entry(s).or_default() += 1;
                }
                m
            });
        let mut inbound_writes: HashMap<u8, usize> = HashMap::new();
        let mut signal_sends: HashMap<u8, Vec<u8>> = HashMap::new(); // target -> senders
        let mut signal_reads: HashMap<u8, usize> = HashMap::new();
        // Signal traffic is counted per SPE, in any order.
        let (codes, segs) = (trace.events.codes(), trace.segments());
        for (core, seg) in &segs {
            let TraceCore::Spe(s) = *core else { continue };
            for i in seg.clone() {
                match codes[i] {
                    EventCode::SpeSignalSend => {
                        if let Some(&t) = trace.events.params(i).first() {
                            signal_sends.entry(t as u8).or_default().push(s);
                        }
                    }
                    EventCode::SpeSignalReadEnd => *signal_reads.entry(s).or_default() += 1,
                    _ => {}
                }
            }
        }
        // PPE relay attribution: last SPE the PPE read a word from, in
        // global order over the PPE threads' mailbox events, merged by
        // the order's key.
        let mut relay: Vec<usize> = (segs.iter())
            .filter(|(core, _)| !core.is_spe())
            .flat_map(|(_, seg)| seg.clone())
            .filter(|&i| {
                use EventCode::*;
                matches!(codes[i], PpeMboxRead | PpeIntrMboxRead | PpeMboxWrite)
            })
            .collect();
        relay.sort_by_key(|&i| trace.order_key(i));
        let mut last_ppe_read: Option<u8> = None;
        let mut relay_producers: HashMap<u8, Vec<u8>> = HashMap::new();
        for i in relay {
            let ctx = trace.events.params(i).first();
            let Some(&s) = ctx.and_then(|c| ctx_spe.get(&(*c as u32))) else {
                continue;
            };
            if codes[i] != EventCode::PpeMboxWrite {
                last_ppe_read = Some(s);
                continue;
            }
            *inbound_writes.entry(s).or_default() += 1;
            if let Some(y) = last_ppe_read.filter(|&y| y != s) {
                relay_producers.entry(s).or_default().push(y);
            }
        }

        // Starved = blocked with nothing in flight.
        let starved: HashMap<u8, &Blocked> = blocked
            .iter()
            .filter(|(spe, b)| match b.kind {
                BlockKind::Mbox => {
                    let written = inbound_writes.get(spe).copied().unwrap_or(0);
                    let consumed = paired_inbound.get(spe).copied().unwrap_or(0);
                    written <= consumed
                }
                BlockKind::Signal => {
                    let sent = signal_sends.get(spe).map_or(0, Vec::len);
                    let read = signal_reads.get(spe).copied().unwrap_or(0);
                    sent <= read
                }
            })
            .map(|(s, b)| (*s, b))
            .collect();
        if starved.len() < 2 {
            return Vec::new();
        }

        // waits-on edges between starved SPEs.
        let waits_on = |b: u8| -> Vec<u8> {
            let src = match starved[&b].kind {
                BlockKind::Mbox => relay_producers.get(&b),
                BlockKind::Signal => signal_sends.get(&b),
            };
            let mut v: Vec<u8> = src
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|y| starved.contains_key(y))
                        .collect()
                })
                .unwrap_or_default();
            v.sort_unstable();
            v.dedup();
            v
        };

        // Cycle detection: walk from each starved SPE along waits-on
        // edges; a walk returning to a visited node names a cycle.
        // Cycles are canonicalized (rotated to their minimum SPE) so
        // each is reported once.
        let mut cycles: Vec<Vec<u8>> = Vec::new();
        let mut spes: Vec<u8> = starved.keys().copied().collect();
        spes.sort_unstable();
        for &start in &spes {
            let mut path = vec![start];
            let mut cur = start;
            loop {
                let next = waits_on(cur);
                let Some(&n) = next.first() else { break };
                if let Some(pos) = path.iter().position(|&p| p == n) {
                    let mut cyc = path[pos..].to_vec();
                    let min_i = (0..cyc.len()).min_by_key(|&i| cyc[i]).unwrap_or(0);
                    cyc.rotate_left(min_i);
                    if !cycles.contains(&cyc) {
                        cycles.push(cyc);
                    }
                    break;
                }
                path.push(n);
                cur = n;
            }
        }

        cycles
            .into_iter()
            .map(|cyc| {
                let chain = cyc
                    .iter()
                    .map(|s| format!("SPE{s}"))
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let anchors: Vec<Anchor> = cyc.iter().map(|s| starved[s].begin).collect();
                Diagnostic {
                    rule: self.id(),
                    severity: self.severity(),
                    suspect: false,
                    anchor: anchors.first().copied(),
                    related: anchors.into_iter().skip(1).collect(),
                    message: format!(
                        "blocked wait cycle: {chain} -> SPE{} — every SPE in the \
                         chain ends the trace starved in a mailbox/signal read \
                         whose historical producer is also blocked",
                        cyc[0],
                    ),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent, SpeAnchor};
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

    fn run(t: &AnalyzedTrace) -> Vec<Diagnostic> {
        let cols = crate::columns::ColumnarTrace::from_analyzed(t);
        let loss = crate::loss::LossReport::default();
        let config = super::super::LintConfig::default();
        let edges = crate::causality::sync_edges_store(&cols, &loss);
        let ctx = LintContext {
            trace: &cols,
            intervals: &[],
            loss: &loss,
            suspects: &[],
            edges: &edges,
            config: &config,
            dma: &crate::hb::DmaReplay::new(&cols),
        };
        MailboxDeadlockShape.check(&ctx)
    }

    /// Two SPEs cross-blocked on signal reads, each the other's only
    /// historical sender.
    fn signal_deadlock() -> AnalyzedTrace {
        use EventCode::*;
        let (s0, s1) = (TraceCore::Spe(0), TraceCore::Spe(1));
        let mut events = vec![
            ev(10, s0, SpeCtxStart, vec![0], 0),
            ev(10, s1, SpeCtxStart, vec![1], 0),
            // A completed handshake establishes who signals whom.
            ev(20, s0, SpeSignalSend, vec![1, 1, 7], 1),
            ev(25, s1, SpeSignalReadBegin, vec![1], 1),
            ev(30, s1, SpeSignalReadEnd, vec![7], 2),
            ev(35, s1, SpeSignalSend, vec![0, 1, 8], 3),
            ev(40, s0, SpeSignalReadBegin, vec![1], 2),
            ev(45, s0, SpeSignalReadEnd, vec![8], 3),
            // Both re-enter reads that never complete.
            ev(50, s0, SpeSignalReadBegin, vec![1], 4),
            ev(55, s1, SpeSignalReadBegin, vec![1], 5),
        ];
        events.sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
        AnalyzedTrace {
            header: header(2),
            events,
            ctx_names: vec![],
            anchors: vec![
                SpeAnchor {
                    spe: 0,
                    ctx: 0,
                    run_tb: 0,
                    dec_start: u32::MAX,
                },
                SpeAnchor {
                    spe: 1,
                    ctx: 1,
                    run_tb: 0,
                    dec_start: u32::MAX,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn cross_blocked_signal_readers_form_a_cycle() {
        let d = run(&signal_deadlock());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SPE0 -> SPE1") || d[0].message.contains("SPE1 -> SPE0"));
        assert_eq!(d[0].anchor.unwrap().seq, 4, "anchored at SPE0's open read");
        assert_eq!(d[0].related.len(), 1);
    }

    #[test]
    fn in_flight_signal_defuses_the_shape() {
        use EventCode::*;
        let mut t = signal_deadlock();
        // SPE1 sent one more signal to SPE0 than SPE0 consumed: SPE0
        // would wake, so there is no deadlock.
        let n = t.events.len() as u64;
        t.events
            .push(ev(60, TraceCore::Spe(1), SpeSignalSend, vec![0, 1, 9], n));
        t.events
            .sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
        assert!(run(&t).is_empty());
    }

    #[test]
    fn single_blocked_spe_is_not_a_cycle() {
        use EventCode::*;
        let s0 = TraceCore::Spe(0);
        let t = AnalyzedTrace {
            header: header(1),
            events: vec![
                ev(10, s0, SpeCtxStart, vec![0], 0),
                ev(20, s0, SpeMboxReadBegin, vec![], 1),
            ],
            ctx_names: vec![],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 0,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        };
        assert!(run(&t).is_empty());
    }

    #[test]
    fn completed_streams_never_report() {
        use EventCode::*;
        let s0 = TraceCore::Spe(0);
        let t = AnalyzedTrace {
            header: header(1),
            events: vec![
                ev(10, s0, SpeCtxStart, vec![0], 0),
                ev(20, s0, SpeMboxReadBegin, vec![], 1),
                ev(30, s0, SpeMboxReadEnd, vec![5], 2),
                ev(40, s0, SpeStop, vec![0], 3),
            ],
            ctx_names: vec![],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 0,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        };
        assert!(run(&t).is_empty());
    }

    /// Two SPEs blocked on inbound mailbox reads, where the PPE relay
    /// pattern (read from one, write to the other) ties them into a
    /// ring.
    #[test]
    fn ppe_relayed_mailbox_ring_is_detected() {
        use EventCode::*;
        let ppe = TraceCore::Ppe(0);
        let (s0, s1) = (TraceCore::Spe(0), TraceCore::Spe(1));
        let mut events = vec![
            ev(10, s0, SpeCtxStart, vec![0], 0),
            ev(10, s1, SpeCtxStart, vec![1], 0),
            // Round 1 completes: PPE reads s0's word, forwards to s1;
            // reads s1's word, forwards to s0.
            ev(20, s0, SpeMboxWrite, vec![1], 1),
            ev(25, ppe, PpeMboxRead, vec![0, 1], 0),
            ev(30, ppe, PpeMboxWrite, vec![1, 1], 1),
            ev(35, s1, SpeMboxReadBegin, vec![], 1),
            ev(40, s1, SpeMboxReadEnd, vec![1], 2),
            ev(45, s1, SpeMboxWrite, vec![2], 3),
            ev(50, ppe, PpeMboxRead, vec![1, 2], 2),
            ev(55, ppe, PpeMboxWrite, vec![0, 2], 3),
            ev(60, s0, SpeMboxReadBegin, vec![], 2),
            ev(65, s0, SpeMboxReadEnd, vec![2], 3),
            // Round 2 hangs: both SPEs block, no words in flight.
            ev(70, s0, SpeMboxReadBegin, vec![], 4),
            ev(75, s1, SpeMboxReadBegin, vec![], 4),
        ];
        events.sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
        let t = AnalyzedTrace {
            header: header(2),
            events,
            ctx_names: vec![],
            anchors: vec![
                SpeAnchor {
                    spe: 0,
                    ctx: 0,
                    run_tb: 0,
                    dec_start: u32::MAX,
                },
                SpeAnchor {
                    spe: 1,
                    ctx: 1,
                    run_tb: 0,
                    dec_start: u32::MAX,
                },
            ],
            dropped: 0,
        };
        let d = run(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("blocked wait cycle"));
    }
}
