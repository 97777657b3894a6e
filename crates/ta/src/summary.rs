//! The Trace Analyzer's summary view: one text report covering the
//! session, per-core activity, DMA traffic and event demography.

use crate::columns::ColumnarTrace;
use crate::loss::LossReport;
use crate::stats::TraceStats;

/// Renders the summary with loss accounting: SPE rows whose statistics
/// may be skewed by trace damage are marked `*`, and a `-- loss --`
/// section quantifies gaps and estimated drops per stream.
pub(crate) fn render_summary_with(
    trace: &ColumnarTrace,
    stats: &TraceStats,
    loss: Option<&LossReport>,
) -> String {
    let mut out = String::new();
    let h = &trace.header;
    out.push_str("== PDT trace summary ==\n");
    out.push_str(&format!(
        "machine: {} PPE thread(s), {} SPE(s), core {:.2} GHz, timebase {:.2} MHz\n",
        h.num_ppe_threads,
        h.num_spes,
        h.core_hz as f64 / 1e9,
        (h.core_hz / h.timebase_divider) as f64 / 1e6
    ));
    out.push_str(&format!(
        "session: group mask {:#x}, SPE buffer {} B, {} events, {} dropped\n",
        h.group_mask,
        h.spe_buffer_bytes,
        trace.events.len(),
        trace.dropped
    ));
    out.push_str(&format!(
        "span: {:.3} ms ({} timebase ticks)\n\n",
        trace.tb_to_ns(stats.duration_tb) / 1e6,
        stats.duration_tb
    ));

    out.push_str("-- contexts --\n");
    for a in &trace.anchors {
        let name = trace.ctx_name(a.ctx).unwrap_or("?");
        out.push_str(&format!(
            "ctx{} ({name}) on SPE{}, started at tick {}\n",
            a.ctx, a.spe, a.run_tb
        ));
    }

    out.push_str("\n-- per-SPE activity --\n");
    out.push_str(&format!(
        "{:<5} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        "spe", "active ms", "compute", "dma-wait", "mbox", "signal", "util"
    ));
    for a in &stats.spes {
        let f = |tb: u64| {
            if a.active_tb == 0 {
                0.0
            } else {
                tb as f64 / a.active_tb as f64 * 100.0
            }
        };
        let suspect = loss.is_some_and(|l| l.suspect(a.spe));
        let label = format!("SPE{}{}", a.spe, if suspect { "*" } else { "" });
        out.push_str(&format!(
            "{label:<5} {:>10.3} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6.1}%\n",
            trace.tb_to_ns(a.active_tb) / 1e6,
            f(a.compute_tb),
            f(a.dma_wait_tb),
            f(a.mbox_wait_tb),
            f(a.signal_wait_tb),
            a.utilization * 100.0
        ));
    }
    out.push_str(&format!(
        "mean utilization {:.1}%, imbalance (max/mean compute) {:.2}\n",
        stats.mean_utilization() * 100.0,
        stats.imbalance()
    ));

    out.push_str("\n-- DMA --\n");
    out.push_str(&format!(
        "{} gets, {} puts, {:.1} KiB total\n",
        stats.dma.gets,
        stats.dma.puts,
        stats.dma.bytes as f64 / 1024.0
    ));
    if stats.dma.latency_ticks.count() > 0 {
        out.push_str(&format!(
            "observed latency: mean {:.2} µs, min {:.2} µs, max {:.2} µs over {} commands\n",
            trace.tb_to_ns(stats.dma.latency_ticks.mean().round() as u64) / 1000.0,
            trace.tb_to_ns(stats.dma.latency_ticks.min().unwrap_or(0)) / 1000.0,
            trace.tb_to_ns(stats.dma.latency_ticks.max().unwrap_or(0)) / 1000.0,
            stats.dma.latency_ticks.count()
        ));
    }

    out.push_str("\n-- event counts --\n");
    for (code, n) in stats.counts.sorted() {
        out.push_str(&format!("{:<24} {n}\n", code.name()));
    }

    // Per-core stream sizes.
    out.push_str("\n-- streams --\n");
    for (core, segment) in trace.segments() {
        out.push_str(&format!("{core}: {} events\n", segment.len()));
    }

    if let Some(l) = loss {
        if !l.streams.is_empty() || l.truncated.is_some() {
            out.push_str("\n-- loss --\n");
            out.push_str(&l.render());
            if !l.is_clean() {
                out.push_str("(* = per-SPE statistics may be skewed by trace damage)\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent, SpeAnchor};
    use pdt::{EventCode, TraceCore, TraceHeader, VERSION};

    fn trace() -> AnalyzedTrace {
        use EventCode::*;
        let mk = |t: u64, core, code, params: Vec<u64>| GlobalEvent {
            time_tb: t,
            core,
            code,
            params,
            stream_seq: t,
        };
        AnalyzedTrace {
            header: TraceHeader {
                version: VERSION,
                num_ppe_threads: 1,
                num_spes: 1,
                core_hz: 3_200_000_000,
                timebase_divider: 120,
                dec_start: u32::MAX,
                group_mask: 0xffff,
                spe_buffer_bytes: 2048,
            },
            events: vec![
                mk(0, TraceCore::Ppe(0), PpeCtxRun, vec![0, 0, 0]),
                mk(0, TraceCore::Spe(0), SpeCtxStart, vec![0]),
                mk(5, TraceCore::Spe(0), SpeDmaGet, vec![0x1000, 0, 2048, 1]),
                mk(6, TraceCore::Spe(0), SpeTagWaitBegin, vec![2, 0]),
                mk(40, TraceCore::Spe(0), SpeTagWaitEnd, vec![2]),
                mk(100, TraceCore::Spe(0), SpeStop, vec![0]),
            ],
            ctx_names: vec![(0, "demo".into())],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 0,
                dec_start: u32::MAX,
            }],
            dropped: 3,
        }
    }

    #[test]
    fn summary_contains_all_sections() {
        let t = trace();
        let cols = ColumnarTrace::from_analyzed(&t);
        let s = render_summary_with(&cols, &crate::stats::compute_stats(&t), None);
        for needle in [
            "PDT trace summary",
            "1 SPE(s)",
            "3 dropped",
            "ctx0 (demo) on SPE0",
            "per-SPE activity",
            "SPE0",
            "-- DMA --",
            "1 gets, 0 puts",
            "observed latency",
            "spe-dma-get",
            "-- streams --",
            "PPE.0: 1 events",
            "SPE0: 5 events",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn empty_trace_summary_does_not_panic() {
        let mut t = trace();
        t.events.clear();
        t.anchors.clear();
        let cols = ColumnarTrace::from_analyzed(&t);
        let s = render_summary_with(&cols, &crate::stats::compute_stats(&t), None);
        assert!(s.contains("0 events"));
    }
}
