//! Row-form wrappers over the one-shot columnar ingest.
//!
//! Ingestion decodes every stream straight into the columnar store
//! (see [`Analysis::of`](crate::Analysis::of)); these wrappers keep the
//! historical row-returning entry points by materializing that store.
//! Output (events, order, anchors, errors, loss report) is identical to
//! the serial [`analyze`](crate::analyze::analyze) /
//! [`analyze_lossy`](crate::analyze::analyze_lossy).

use pdt::TraceFile;

use crate::analyze::{AnalyzeError, AnalyzedTrace};
use crate::exec::Parallelism;
use crate::loss::LossReport;
use crate::oneshot::ingest;
use crate::reader::TraceImage;
use crate::session::Analysis;

/// Reconstructs the global timeline: exactly the [`AnalyzedTrace`]
/// (events, order, anchors, errors) of the serial
/// [`analyze`](crate::analyze::analyze), with the SPE streams decoded
/// under [`Parallelism::Auto`].
///
/// # Errors
///
/// Returns [`AnalyzeError`] on corrupt records or missing sync
/// anchors, with the same stream-order precedence as the serial path
/// (all decode errors are reported before any anchor error).
pub fn analyze_parallel(trace: &TraceFile) -> Result<AnalyzedTrace, AnalyzeError> {
    let a = Analysis::of(trace).parallelism(Parallelism::Auto).strict();
    a.run().map(Analysis::into_analyzed)
}

/// The lossy counterpart of [`analyze_parallel`]: resynchronizes past
/// corruption, never fails, and quantifies everything skipped in a
/// [`LossReport`]. Output is identical to the serial
/// [`analyze_lossy`](crate::analyze::analyze_lossy). The streams
/// decode on up to `threads` executors
/// ([`Parallelism::from_threads`]).
pub fn analyze_parallel_lossy(trace: &TraceFile, threads: usize) -> (AnalyzedTrace, LossReport) {
    let par = Parallelism::from_threads(threads);
    match ingest(&TraceImage::from(trace), false, par) {
        Ok((columns, loss)) => (columns.materialize(), loss),
        // The lossy policy has no error path: damage becomes gaps.
        Err(_) => unreachable!("lossy ingest never fails"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use pdt::{EventCode, TraceCore, TraceHeader, TraceRecord, TraceStream, VERSION};

    fn header(num_spes: u8) -> TraceHeader {
        TraceHeader {
            version: VERSION,
            num_ppe_threads: 2,
            num_spes,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        }
    }

    fn encode(recs: &[TraceRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in recs {
            r.encode_into(&mut bytes);
        }
        bytes
    }

    /// A trace whose PPE stream interleaves two hardware threads at
    /// equal ticks *against* tag order, so per-run sorting matters.
    fn interleaved_trace(spes: u8) -> TraceFile {
        let mut ppe = Vec::new();
        for spe in 0..spes {
            ppe.push(TraceRecord {
                core: TraceCore::Ppe(1),
                code: EventCode::PpeUser,
                timestamp: 50,
                params: vec![spe as u64, 0, 0],
            });
            ppe.push(TraceRecord {
                core: TraceCore::Ppe(0),
                code: EventCode::PpeCtxRun,
                timestamp: 50,
                params: vec![spe as u64, spe as u64, u32::MAX as u64],
            });
        }
        let mut streams = vec![TraceStream {
            core: TraceCore::Ppe(0),
            bytes: encode(&ppe),
            dropped: 1,
        }];
        for spe in 0..spes {
            let mut dec = u32::MAX;
            let mut recs = vec![TraceRecord {
                core: TraceCore::Spe(spe),
                code: EventCode::SpeCtxStart,
                timestamp: dec as u64,
                params: vec![spe as u64],
            }];
            for k in 0..40u32 {
                dec = dec.wrapping_sub(100 + k * spe as u32);
                recs.push(TraceRecord {
                    core: TraceCore::Spe(spe),
                    code: if k % 2 == 0 {
                        EventCode::SpeDmaGet
                    } else {
                        EventCode::SpeTagWaitEnd
                    },
                    timestamp: dec as u64,
                    params: if k % 2 == 0 {
                        vec![0x1000, 0x100000, 4096, 3]
                    } else {
                        vec![8]
                    },
                });
            }
            dec = dec.wrapping_sub(7);
            recs.push(TraceRecord {
                core: TraceCore::Spe(spe),
                code: EventCode::SpeStop,
                timestamp: dec as u64,
                params: vec![0],
            });
            streams.push(TraceStream {
                core: TraceCore::Spe(spe),
                bytes: encode(&recs),
                dropped: spe as u64,
            });
        }
        TraceFile {
            header: header(spes),
            streams,
            ctx_names: (0..spes as u32).map(|c| (c, format!("k{c}"))).collect(),
        }
    }

    #[test]
    fn matches_serial() {
        let trace = interleaved_trace(6);
        let serial = analyze(&trace).unwrap();
        let par = analyze_parallel(&trace).unwrap();
        assert_eq!(par.events, serial.events);
        assert_eq!(par.anchors, serial.anchors);
        assert_eq!(par.dropped, serial.dropped);
        assert_eq!(par.header, serial.header);
        assert_eq!(par.ctx_names, serial.ctx_names);
    }

    #[test]
    fn ppe_equal_tick_interleave_is_ordered_like_serial() {
        let trace = interleaved_trace(2);
        let par = analyze_parallel(&trace).unwrap();
        // At tick 50 the PPE(0) records sort before PPE(1) despite the
        // PPE(1) records being recorded first.
        let tags: Vec<u8> = par
            .events
            .iter()
            .filter(|e| e.time_tb == 50 && !e.core.is_spe())
            .map(|e| e.core.tag())
            .collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted);
    }

    #[test]
    fn decode_errors_report_first_stream_in_order() {
        let mut trace = interleaved_trace(4);
        // Corrupt two streams; the error must cite the earlier one even
        // though a later worker may hit the other first.
        trace.streams[3].bytes[0] = 0; // zero granule count
        trace.streams[1].bytes[0] = 0;
        let err = analyze_parallel(&trace).unwrap_err();
        assert!(matches!(
            err,
            AnalyzeError::Record {
                core: TraceCore::Spe(0),
                offset: 0,
                ..
            }
        ));
        assert_eq!(err, analyze(&trace).unwrap_err());
    }

    #[test]
    fn missing_anchor_matches_serial() {
        let mut trace = interleaved_trace(2);
        trace.streams[0].bytes.clear(); // drop the PPE sync records
        let err = analyze_parallel(&trace).unwrap_err();
        assert_eq!(err, AnalyzeError::MissingAnchor { spe: 0 });
        assert_eq!(err, analyze(&trace).unwrap_err());
    }

    #[test]
    fn lossy_matches_strict_on_clean_trace() {
        let trace = interleaved_trace(4);
        let strict = analyze(&trace).unwrap();
        let (lossy, report) = analyze_parallel_lossy(&trace, 1);
        assert_eq!(lossy.events, strict.events);
        assert_eq!(lossy.anchors, strict.anchors);
        assert_eq!(lossy.dropped, strict.dropped);
        // Streams 1..4 carry a synthetic nonzero `dropped`, so the
        // report is not clean, but there must be no decode gaps.
        assert_eq!(report.total_gaps(), 0);
        assert_eq!(report.total_gap_bytes(), 0);
        assert_eq!(report.tracer_dropped(), trace.total_dropped());
    }

    #[test]
    fn lossy_matches_lossy_serial_on_damaged_trace() {
        let mut trace = interleaved_trace(4);
        trace.streams[2].bytes[0] = 0; // zero granule count
        let tail = trace.streams[3].bytes.len() - 5;
        trace.streams[3].bytes.truncate(tail); // torn tail
        let (serial, serial_report) = crate::analyze::analyze_lossy(&trace);
        let (par, par_report) = analyze_parallel_lossy(&trace, 1);
        assert_eq!(par.events, serial.events);
        assert_eq!(par.anchors, serial.anchors);
        assert_eq!(par_report, serial_report);
        assert!(serial_report.total_gaps() >= 2);
        assert!(serial_report.total_gap_bytes() > 0);
        assert!(serial_report.total_est_lost() > 0);
        assert!(serial_report.suspect(1));
        assert!(serial_report.suspect(2));
    }

    #[test]
    fn lossy_discards_unanchored_spe_stream_deterministically() {
        let mut trace = interleaved_trace(2);
        trace.streams[0].bytes.clear(); // lose every PPE sync record
        let (serial, serial_report) = crate::analyze::analyze_lossy(&trace);
        assert!(serial.events.iter().all(|e| !e.core.is_spe()));
        assert!(serial_report.streams[1].unanchored);
        assert!(serial_report.total_est_lost() > 0);
        let (par, par_report) = analyze_parallel_lossy(&trace, 1);
        assert_eq!(par.events, serial.events);
        assert_eq!(par_report, serial_report);
    }

    #[test]
    fn empty_trace_yields_no_events() {
        let trace = TraceFile {
            header: header(0),
            streams: vec![],
            ctx_names: vec![],
        };
        let par = analyze_parallel(&trace).unwrap();
        assert!(par.events.is_empty());
        assert!(par.anchors.is_empty());
    }
}
