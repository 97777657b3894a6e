//! CSV export of events, intervals and statistics.

use std::io;

use crate::intervals::{ActivityKind, SpeIntervals};
use crate::loss::LossReport;
use crate::session::Analysis;
use crate::stats::TraceStats;

/// Writes every event, or those in the half-open window
/// `[t0, t1)`, as `time_tb,time_ns,core,event,params`, one row at a
/// time. A window is resolved through the session's index instead of
/// a full rescan. Front door:
/// [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`CsvTable::Events`](crate::report::CsvTable::Events).
pub(crate) fn write_events(
    a: &Analysis,
    window: Option<(u64, u64)>,
    out: &mut dyn io::Write,
) -> io::Result<()> {
    let trace = a.analyzed();
    let events = match window {
        Some((t0, t1)) => &trace.events[a.index().global_range(&trace.events, t0, t1)],
        None => &trace.events[..],
    };
    out.write_all(b"time_tb,time_ns,core,event,params\n")?;
    for e in events {
        write!(
            out,
            "{},{:.1},{},{},",
            e.time_tb,
            trace.tb_to_ns(e.time_tb),
            e.core,
            e.code.name()
        )?;
        for (i, p) in e.params.iter().enumerate() {
            if i > 0 {
                out.write_all(b";")?;
            }
            write!(out, "{p}")?;
        }
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes intervals as `spe,kind,start_tb,end_tb,ticks`.
/// Front door: [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`CsvTable::Intervals`](crate::report::CsvTable::Intervals).
pub(crate) fn write_intervals(
    intervals: &[SpeIntervals],
    out: &mut dyn io::Write,
) -> io::Result<()> {
    out.write_all(b"spe,kind,start_tb,end_tb,ticks\n")?;
    for s in intervals {
        for i in &s.intervals {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.spe,
                i.kind.label(),
                i.start_tb,
                i.end_tb,
                i.ticks()
            )?;
        }
    }
    Ok(())
}

const ACTIVITY_HEADER: &[u8] =
    b"spe,active_tb,compute_tb,dma_wait_tb,mbox_wait_tb,signal_wait_tb,utilization\n";

/// Writes per-SPE activity as
/// `spe,active_tb,compute_tb,dma_wait_tb,mbox_wait_tb,signal_wait_tb,utilization`.
/// Front door: [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`CsvTable::Activity`](crate::report::CsvTable::Activity).
pub(crate) fn write_activity(stats: &TraceStats, out: &mut dyn io::Write) -> io::Result<()> {
    out.write_all(ACTIVITY_HEADER)?;
    for s in &stats.spes {
        writeln!(
            out,
            "{},{},{},{},{},{},{:.4}",
            s.spe,
            s.active_tb,
            s.compute_tb,
            s.dma_wait_tb,
            s.mbox_wait_tb,
            s.signal_wait_tb,
            s.utilization
        )?;
    }
    Ok(())
}

/// Activity CSV computed from already-clipped interval sets (the
/// windowed path): same columns as [`write_activity`], totals and
/// utilization over each clipped window.
pub(crate) fn write_activity_window(
    clipped: &[SpeIntervals],
    out: &mut dyn io::Write,
) -> io::Result<()> {
    out.write_all(ACTIVITY_HEADER)?;
    for s in clipped {
        writeln!(
            out,
            "{},{},{},{},{},{},{:.4}",
            s.spe,
            s.active(),
            s.total(ActivityKind::Compute),
            s.total(ActivityKind::DmaWait),
            s.total(ActivityKind::MboxWait),
            s.total(ActivityKind::SignalWait),
            s.utilization()
        )?;
    }
    Ok(())
}

/// Writes loss accounting as
/// `stream,decoded,gaps,gap_bytes,est_lost,tracer_dropped,unanchored`,
/// then, for a truncated image, one row naming where it ends.
/// Front door: [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`CsvTable::Loss`](crate::report::CsvTable::Loss).
pub(crate) fn write_loss(report: &LossReport, out: &mut dyn io::Write) -> io::Result<()> {
    out.write_all(b"stream,decoded,gaps,gap_bytes,est_lost,tracer_dropped,unanchored\n")?;
    for s in &report.streams {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.core,
            s.decoded_records,
            s.gaps.len(),
            s.gap_bytes(),
            s.est_lost_records(),
            s.tracer_dropped,
            s.unanchored
        )?;
    }
    if let Some(t) = &report.truncated {
        writeln!(out, "truncated: {t},,,,,,")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent};
    use crate::intervals::Interval;
    use pdt::{EventCode, TraceCore, TraceHeader, VERSION};

    /// What `write` puts into a `Vec`, as text.
    fn text(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut out = Vec::new();
        write(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn trace() -> AnalyzedTrace {
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
            events: vec![GlobalEvent {
                time_tb: 40,
                core: TraceCore::Spe(0),
                code: EventCode::SpeUser,
                params: vec![1, 2, 3],
                stream_seq: 0,
            }],
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        }
    }

    #[test]
    fn events_csv_has_header_and_rows() {
        let a = Analysis::from_analyzed(trace());
        let csv = text(|out| write_events(&a, None, out));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("time_tb,"));
        assert_eq!(lines[1], "40,1500.0,SPE0,spe-user,1;2;3");
    }

    #[test]
    fn intervals_csv_rows() {
        let iv = vec![SpeIntervals {
            spe: 2,
            start_tb: 0,
            stop_tb: 100,
            intervals: vec![Interval {
                start_tb: 0,
                end_tb: 100,
                kind: ActivityKind::Compute,
            }],
        }];
        let csv = text(|out| write_intervals(&iv, out));
        assert!(csv.contains("2,compute,0,100,100"));
    }

    #[test]
    fn activity_csv_rows() {
        let stats = crate::stats::compute_stats(&trace());
        let csv = text(|out| write_activity(&stats, out));
        assert!(csv.starts_with("spe,active_tb"));
    }

    #[test]
    fn loss_csv_rows() {
        let report = LossReport {
            streams: vec![crate::loss::StreamLoss {
                core: TraceCore::Spe(1),
                decoded_records: 12,
                tracer_dropped: 3,
                gaps: vec![pdt::DecodeGap {
                    offset: 16,
                    len: 32,
                    est_records: 2,
                    records_before: 1,
                    cause: pdt::RecordError::ZeroLength,
                }],
                unanchored: false,
            }],
            truncated: None,
        };
        let csv = text(|out| write_loss(&report, out));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "stream,decoded,gaps,gap_bytes,est_lost,tracer_dropped,unanchored"
        );
        assert_eq!(lines[1], "SPE1,12,1,32,5,3,false");
        assert_eq!(lines.len(), 2);

        let truncated = LossReport {
            truncated: Some(pdt::Truncation {
                reading: "name entry",
                offset: 2600,
            }),
            ..report
        };
        let csv = text(|out| write_loss(&truncated, out));
        assert_eq!(
            csv.lines().nth(2),
            Some("truncated: image ends inside the name entry at byte 2600,,,,,,")
        );
    }
}
