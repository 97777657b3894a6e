//! Trace loading and global-timeline reconstruction.
//!
//! The analyzer's first job is to place every record on one global
//! timeline. PPE records carry timebase timestamps directly. SPE
//! records carry *decrementer snapshots* — a 32-bit counter that runs
//! backwards and wraps — so the analyzer:
//!
//! 1. finds each SPE's `PpeCtxRun` record (the PDT sync record, which
//!    carries the decrementer start value and is timestamped with the
//!    PPE timebase at the `spe_context_run` call), and
//! 2. walks the SPE stream in recording order, accumulating elapsed
//!    ticks with wrap-safe arithmetic (`prev.wrapping_sub(cur)`).
//!
//! The anchor approximates the SPU start time with the PPE run-call
//! time, so reconstructed SPE timestamps carry a small constant skew
//! (the context start latency). Experiment E10 quantifies this skew
//! against simulator ground truth.

use pdt::{EventCode, RecordError, TraceCore, TraceFile, TraceHeader, TraceRecord, V2Error};

use crate::loss::{LossReport, StreamLoss};

/// A record placed on the global timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalEvent {
    /// Reconstructed time in timebase ticks.
    pub time_tb: u64,
    /// Producing core.
    pub core: TraceCore,
    /// Event code.
    pub code: EventCode,
    /// Parameter words.
    pub params: Vec<u64>,
    /// Per-core recording sequence number (order within the stream).
    pub stream_seq: u64,
}

/// The decrementer/timebase synchronization anchor for one SPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeAnchor {
    /// The SPE index.
    pub spe: u8,
    /// The context that ran on it.
    pub ctx: u32,
    /// Timebase at the PPE's run call.
    pub run_tb: u64,
    /// Decrementer value loaded at start.
    pub dec_start: u32,
}

/// A fully reconstructed trace, ready for analysis.
#[derive(Debug, Clone)]
pub struct AnalyzedTrace {
    /// Header copied from the trace file.
    pub header: TraceHeader,
    /// All events, sorted by `(time_tb, core, stream_seq)`.
    pub events: Vec<GlobalEvent>,
    /// Context names.
    pub ctx_names: Vec<(u32, String)>,
    /// Per-SPE sync anchors.
    pub anchors: Vec<SpeAnchor>,
    /// Records the tracers dropped (from stream metadata).
    pub dropped: u64,
}

impl AnalyzedTrace {
    /// Events produced by `core`, in time order.
    pub fn core_events(&self, core: TraceCore) -> impl Iterator<Item = &GlobalEvent> {
        self.events.iter().filter(move |e| e.core == core)
    }

    /// The last timestamp in the trace (ticks).
    pub fn end_tb(&self) -> u64 {
        self.events.iter().map(|e| e.time_tb).max().unwrap_or(0)
    }

    /// The first timestamp in the trace (ticks).
    pub fn start_tb(&self) -> u64 {
        self.events.iter().map(|e| e.time_tb).min().unwrap_or(0)
    }

    /// Converts timebase ticks to nanoseconds using the header clocks.
    pub fn tb_to_ns(&self, tb: u64) -> f64 {
        tb as f64 * self.header.timebase_divider as f64 * 1e9 / self.header.core_hz as f64
    }

    /// The SPE indices that produced events.
    pub fn spes(&self) -> Vec<u8> {
        let mut v: Vec<u8> = self
            .events
            .iter()
            .filter_map(|e| match e.core {
                TraceCore::Spe(i) => Some(i),
                TraceCore::Ppe(_) => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The name of context `ctx`, if recorded.
    pub fn ctx_name(&self, ctx: u32) -> Option<&str> {
        self.ctx_names
            .iter()
            .find(|(c, _)| *c == ctx)
            .map(|(_, n)| n.as_str())
    }
}

/// Errors from trace analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// A stream failed record decoding.
    Record {
        /// The stream's core.
        core: TraceCore,
        /// Byte offset of the corrupt record.
        offset: usize,
        /// The cause.
        cause: RecordError,
    },
    /// An SPE stream has records but no `PpeCtxRun` sync record exists
    /// for it (PPE lifecycle tracing was off).
    MissingAnchor {
        /// The SPE without a sync anchor.
        spe: u8,
    },
    /// A file-backed stream's bytes could not be read.
    Read {
        /// The stream's core.
        core: TraceCore,
        /// Stream offset of the chunk being read.
        offset: usize,
        /// The I/O error, as displayed.
        message: String,
    },
    /// A `.pdt2` container failed a strict check: it is truncated, or a
    /// stream's blocks do not unpack ([`pdt::v2::unpack_stream`]).
    Container(V2Error),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Record {
                core,
                offset,
                cause,
            } => write!(
                f,
                "corrupt record in {core} stream at byte {offset}: {cause}"
            ),
            AnalyzeError::MissingAnchor { spe } => write!(
                f,
                "SPE{spe} has trace records but no PpeCtxRun sync record; \
                 enable the ppe-lifecycle group to reconstruct SPE time"
            ),
            AnalyzeError::Read {
                core,
                offset,
                message,
            } => write!(f, "cannot read {core} stream at byte {offset}: {message}"),
            AnalyzeError::Container(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Reconstructs the global timeline from a trace file.
///
/// This is the serial reference path. New code should prefer the
/// [`Analysis`](crate::session::Analysis) session, which ingests
/// straight into columns and memoizes every derived product; this
/// function remains for compatibility and as the equivalence oracle the
/// columnar ingest is tested against.
///
/// # Errors
///
/// Returns [`AnalyzeError`] on corrupt records or missing sync anchors.
pub fn analyze(trace: &TraceFile) -> Result<AnalyzedTrace, AnalyzeError> {
    // Decode every stream up front.
    let mut decoded: Vec<(TraceCore, Vec<TraceRecord>)> = Vec::new();
    for s in &trace.streams {
        let recs = s
            .records()
            .map_err(|(offset, cause)| AnalyzeError::Record {
                core: s.core,
                offset,
                cause,
            })?;
        decoded.push((s.core, recs));
    }

    // Harvest sync anchors from PPE streams. If a context is re-run
    // (not supported by the machine today) the first anchor wins.
    let anchor_view: Vec<(TraceCore, &[TraceRecord])> = decoded
        .iter()
        .map(|(core, recs)| (*core, recs.as_slice()))
        .collect();
    let anchors = harvest_anchors_from(&anchor_view);

    let mut events: Vec<GlobalEvent> = Vec::new();
    for (core, recs) in decoded {
        match core {
            TraceCore::Ppe(_) => {
                for (i, r) in recs.into_iter().enumerate() {
                    events.push(GlobalEvent {
                        time_tb: r.timestamp,
                        core: r.core, // records carry per-thread tags
                        code: r.code,
                        params: r.params,
                        stream_seq: i as u64,
                    });
                }
            }
            TraceCore::Spe(spe) => {
                if recs.is_empty() {
                    continue;
                }
                let anchor = anchors
                    .iter()
                    .find(|a| a.spe == spe)
                    .copied()
                    .ok_or(AnalyzeError::MissingAnchor { spe })?;
                let mut elapsed: u64 = 0;
                let mut prev_dec = anchor.dec_start;
                for (i, r) in recs.into_iter().enumerate() {
                    let dec = r.timestamp as u32;
                    elapsed += prev_dec.wrapping_sub(dec) as u64;
                    prev_dec = dec;
                    events.push(GlobalEvent {
                        time_tb: anchor.run_tb.wrapping_add(elapsed),
                        core,
                        code: r.code,
                        params: r.params,
                        stream_seq: i as u64,
                    });
                }
            }
        }
    }

    // Global order: time, then core, then recording order. The sort is
    // stable on the per-core sequence because (core, stream_seq) is a
    // total order within ties.
    events.sort_by(|a, b| {
        (a.time_tb, core_key(a.core), a.stream_seq).cmp(&(
            b.time_tb,
            core_key(b.core),
            b.stream_seq,
        ))
    });

    Ok(AnalyzedTrace {
        header: trace.header,
        events,
        ctx_names: trace.ctx_names.clone(),
        anchors,
        dropped: trace.total_dropped(),
    })
}

fn core_key(c: TraceCore) -> u8 {
    c.tag()
}

/// Reconstructs the global timeline from a trace file, resynchronizing
/// past corruption instead of failing.
///
/// This is the serial reference for the lossy path: malformed records
/// open [`pdt::DecodeGap`]s (see [`pdt::decode_stream_lossy`]), SPE
/// streams whose `PpeCtxRun` sync anchor was lost are discarded whole,
/// and everything skipped is quantified in the returned [`LossReport`].
/// On an uncorrupted trace the [`AnalyzedTrace`] is byte-identical to
/// the strict [`analyze`] and the report is clean.
///
/// The parallel counterpart is
/// [`analyze_parallel_lossy`](crate::parallel::analyze_parallel_lossy),
/// which produces identical output.
pub fn analyze_lossy(trace: &TraceFile) -> (AnalyzedTrace, LossReport) {
    // Decode every stream up front, recording gaps instead of erroring.
    let mut decoded: Vec<(TraceCore, pdt::LossyDecode, u64)> = Vec::new();
    for s in &trace.streams {
        decoded.push((s.core, s.records_lossy(), s.dropped));
    }

    // Harvest sync anchors from the PPE records that survived.
    let anchor_view: Vec<(TraceCore, &[TraceRecord])> = decoded
        .iter()
        .map(|(core, d, _)| (*core, d.records.as_slice()))
        .collect();
    let anchors = harvest_anchors_from(&anchor_view);

    let mut events: Vec<GlobalEvent> = Vec::new();
    let mut losses: Vec<StreamLoss> = Vec::new();
    for (core, lossy, dropped) in decoded {
        let mut unanchored = false;
        let decoded_records = lossy.records.len() as u64;
        match core {
            TraceCore::Ppe(_) => {
                for (i, r) in lossy.records.into_iter().enumerate() {
                    events.push(GlobalEvent {
                        time_tb: r.timestamp,
                        core: r.core, // records carry per-thread tags
                        code: r.code,
                        params: r.params,
                        stream_seq: i as u64,
                    });
                }
            }
            TraceCore::Spe(spe) => {
                match anchors.iter().find(|a| a.spe == spe).copied() {
                    Some(anchor) if !lossy.records.is_empty() => {
                        let mut elapsed: u64 = 0;
                        let mut prev_dec = anchor.dec_start;
                        for (i, r) in lossy.records.into_iter().enumerate() {
                            let dec = r.timestamp as u32;
                            elapsed += prev_dec.wrapping_sub(dec) as u64;
                            prev_dec = dec;
                            events.push(GlobalEvent {
                                time_tb: anchor.run_tb.wrapping_add(elapsed),
                                core,
                                code: r.code,
                                params: r.params,
                                stream_seq: i as u64,
                            });
                        }
                    }
                    Some(_) => {} // empty stream, nothing to place
                    None => unanchored = !lossy.records.is_empty(),
                }
            }
        }
        losses.push(StreamLoss {
            core,
            decoded_records,
            tracer_dropped: dropped,
            gaps: lossy.gaps,
            unanchored,
        });
    }

    events.sort_by(|a, b| {
        (a.time_tb, core_key(a.core), a.stream_seq).cmp(&(
            b.time_tb,
            core_key(b.core),
            b.stream_seq,
        ))
    });

    (
        AnalyzedTrace {
            header: trace.header,
            events,
            ctx_names: trace.ctx_names.clone(),
            anchors,
            dropped: trace.total_dropped(),
        },
        LossReport {
            streams: losses,
            truncated: None,
        },
    )
}

/// Harvests `PpeCtxRun` sync anchors from PPE streams, first anchor per
/// SPE winning, in stream order. Shared by the strict and lossy paths.
pub(crate) fn harvest_anchors_from(decoded: &[(TraceCore, &[TraceRecord])]) -> Vec<SpeAnchor> {
    let mut anchors: Vec<SpeAnchor> = Vec::new();
    for (core, recs) in decoded {
        if core.is_spe() {
            continue;
        }
        for r in *recs {
            if r.code == EventCode::PpeCtxRun && r.params.len() >= 3 {
                let spe = r.params[1] as u8;
                if !anchors.iter().any(|a| a.spe == spe) {
                    anchors.push(SpeAnchor {
                        spe,
                        ctx: r.params[0] as u32,
                        run_tb: r.timestamp,
                        dec_start: r.params[2] as u32,
                    });
                }
            }
        }
    }
    anchors
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt::{TraceStream, VERSION};

    fn header() -> TraceHeader {
        TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: 1,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        }
    }

    fn ppe_run_record(spe: u8, tb: u64, dec_start: u32) -> TraceRecord {
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: tb,
            params: vec![0, spe as u64, dec_start as u64],
        }
    }

    fn spe_record(spe: u8, code: EventCode, dec: u32, params: Vec<u64>) -> TraceRecord {
        TraceRecord {
            core: TraceCore::Spe(spe),
            code,
            timestamp: dec as u64,
            params,
        }
    }

    fn file_with(ppe: Vec<TraceRecord>, spe: Vec<TraceRecord>) -> TraceFile {
        let mut pb = Vec::new();
        for r in &ppe {
            r.encode_into(&mut pb);
        }
        let mut sb = Vec::new();
        for r in &spe {
            r.encode_into(&mut sb);
        }
        TraceFile {
            header: header(),
            streams: vec![
                TraceStream {
                    core: TraceCore::Ppe(0),
                    bytes: pb,
                    dropped: 0,
                },
                TraceStream {
                    core: TraceCore::Spe(0),
                    bytes: sb,
                    dropped: 2,
                },
            ],
            ctx_names: vec![(0, "k".into())],
        }
    }

    #[test]
    fn spe_time_reconstruction_uses_anchor_and_elapsed() {
        let dec0 = 1_000_000u32;
        let f = file_with(
            vec![ppe_run_record(0, 500, dec0)],
            vec![
                spe_record(0, EventCode::SpeCtxStart, dec0, vec![0]),
                spe_record(0, EventCode::SpeUser, dec0 - 100, vec![1, 0, 0]),
                spe_record(0, EventCode::SpeStop, dec0 - 250, vec![0]),
            ],
        );
        let a = analyze(&f).unwrap();
        assert_eq!(a.anchors.len(), 1);
        assert_eq!(a.anchors[0].run_tb, 500);
        let times: Vec<u64> = a
            .core_events(TraceCore::Spe(0))
            .map(|e| e.time_tb)
            .collect();
        assert_eq!(times, vec![500, 600, 750]);
        assert_eq!(a.dropped, 2);
    }

    #[test]
    fn decrementer_wrap_is_handled() {
        // Start near zero so the counter wraps during the run.
        let dec0 = 50u32;
        let f = file_with(
            vec![ppe_run_record(0, 0, dec0)],
            vec![
                spe_record(0, EventCode::SpeCtxStart, dec0, vec![0]),
                // 100 ticks later: 50 - 100 wraps to u32::MAX - 49.
                spe_record(0, EventCode::SpeUser, dec0.wrapping_sub(100), vec![1, 0, 0]),
                spe_record(0, EventCode::SpeStop, dec0.wrapping_sub(300), vec![0]),
            ],
        );
        let a = analyze(&f).unwrap();
        let times: Vec<u64> = a
            .core_events(TraceCore::Spe(0))
            .map(|e| e.time_tb)
            .collect();
        assert_eq!(times, vec![0, 100, 300]);
    }

    #[test]
    fn events_merge_in_global_order() {
        let dec0 = 10_000u32;
        let f = file_with(
            vec![
                ppe_run_record(0, 100, dec0),
                TraceRecord {
                    core: TraceCore::Ppe(0),
                    code: EventCode::PpeUser,
                    timestamp: 150,
                    params: vec![9, 0, 0],
                },
            ],
            vec![
                spe_record(0, EventCode::SpeCtxStart, dec0, vec![0]),
                spe_record(0, EventCode::SpeUser, dec0 - 100, vec![1, 0, 0]),
            ],
        );
        let a = analyze(&f).unwrap();
        let order: Vec<(u64, TraceCore)> = a.events.iter().map(|e| (e.time_tb, e.core)).collect();
        assert_eq!(
            order,
            vec![
                (100, TraceCore::Ppe(0)), // ctx run
                (100, TraceCore::Spe(0)), // ctx start (same tick, PPE first)
                (150, TraceCore::Ppe(0)), // ppe user
                (200, TraceCore::Spe(0)), // spe user
            ]
        );
        assert_eq!(a.start_tb(), 100);
        assert_eq!(a.end_tb(), 200);
    }

    #[test]
    fn missing_anchor_is_an_error() {
        let f = file_with(
            vec![], // no PPE records at all
            vec![spe_record(0, EventCode::SpeCtxStart, 99, vec![0])],
        );
        assert_eq!(
            analyze(&f).unwrap_err(),
            AnalyzeError::MissingAnchor { spe: 0 }
        );
    }

    #[test]
    fn corrupt_stream_reports_core_and_offset() {
        let mut f = file_with(vec![ppe_run_record(0, 0, 10)], vec![]);
        f.streams[1].bytes = vec![0u8; 16]; // zero granule count
        let err = analyze(&f).unwrap_err();
        assert!(matches!(
            err,
            AnalyzeError::Record {
                core: TraceCore::Spe(0),
                offset: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("SPE0"));
    }

    #[test]
    fn tb_to_ns_uses_header_clocks() {
        let f = file_with(vec![ppe_run_record(0, 0, 10)], vec![]);
        let a = analyze(&f).unwrap();
        // One tick = 120 cycles at 3.2 GHz = 37.5 ns.
        assert!((a.tb_to_ns(1) - 37.5).abs() < 1e-9);
    }
}
