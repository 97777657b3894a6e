//! Standalone HTML report: summary, per-SPE activity, timeline and DMA
//! histogram in one self-contained file — the closest thing to the
//! original Trace Analyzer's GUI this reproduction ships.

use std::io;

use crate::report::{RenderOptions, Report, SvgReport};
use crate::session::Analysis;

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Writes a self-contained HTML report for a session to `out`: the
/// head, then the SVG timeline straight from its emitter, then the
/// tables. Front door:
/// [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`ReportKind::Html`](crate::report::ReportKind::Html).
pub(crate) fn write_html(
    a: &Analysis,
    opts: &RenderOptions,
    out: &mut dyn io::Write,
) -> io::Result<()> {
    let trace = a.analyzed();
    let stats = a.stats();
    write!(
        out,
        r#"<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>{title}</title>
<style>
body {{ font-family: ui-monospace, monospace; margin: 2em; color: #222; }}
h1 {{ font-size: 1.3em; }} h2 {{ font-size: 1.05em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; }}
td, th {{ border: 1px solid #ccc; padding: 3px 10px; text-align: right; }}
th {{ background: #f0f0f0; }}
td:first-child {{ text-align: left; }}
.bar {{ display: inline-block; height: 10px; background: #1565c0; vertical-align: middle; }}
.meta {{ color: #555; }}
</style></head><body>
<h1>PDT trace report — {title}</h1>
<p class="meta">{spes} SPE(s), {events} events, {dropped} dropped,
span {span_ms:.3} ms · core {ghz:.2} GHz, timebase {tb_mhz:.2} MHz</p>

<h2>Timeline</h2>
"#,
        title = escape(&opts.title),
        spes = stats.spes.len(),
        events = trace.events.len(),
        dropped = trace.dropped,
        span_ms = trace.tb_to_ns(stats.duration_tb) / 1e6,
        ghz = trace.header.core_hz as f64 / 1e9,
        tb_mhz = (trace.header.core_hz / trace.header.timebase_divider) as f64 / 1e6,
    )?;

    SvgReport.write(a, opts, out)?;

    out.write_all(
        b"\n\n<h2>Per-SPE activity</h2>\n<table>\n\
          <tr><th>spe</th><th>active ms</th><th>compute</th><th>dma-wait</th>\n\
          <th>mbox-wait</th><th>sig-wait</th><th>utilization</th></tr>\n",
    )?;
    for a in &stats.spes {
        let f = |tb: u64| {
            if a.active_tb == 0 {
                0.0
            } else {
                tb as f64 / a.active_tb as f64 * 100.0
            }
        };
        writeln!(
            out,
            "<tr><td>SPE{}</td><td>{:.3}</td><td>{:.1}%</td><td>{:.1}%</td>\
             <td>{:.1}%</td><td>{:.1}%</td><td>{:.1}%</td></tr>",
            a.spe,
            trace.tb_to_ns(a.active_tb) / 1e6,
            f(a.compute_tb),
            f(a.dma_wait_tb),
            f(a.mbox_wait_tb),
            f(a.signal_wait_tb),
            a.utilization * 100.0
        )?;
    }
    write!(
        out,
        r#"</table>
<p class="meta">mean utilization {mean_util:.1}% · imbalance {imb:.2}</p>

<h2>DMA</h2>
<p>{gets} gets, {puts} puts, {kib:.1} KiB; observed latency distribution:</p>
<table>"#,
        mean_util = stats.mean_utilization() * 100.0,
        imb = stats.imbalance(),
        gets = stats.dma.gets,
        puts = stats.dma.puts,
        kib = stats.dma.bytes as f64 / 1024.0,
    )?;
    let latency = &stats.dma.latency_ticks;
    if latency.count() > 0 {
        let buckets = latency.buckets();
        let peak = buckets.iter().map(|(_, _, c)| *c).max().unwrap_or(1);
        for (lo, hi, c) in buckets {
            let w = (c as f64 / peak as f64 * 320.0).max(2.0);
            writeln!(
                out,
                "<tr><td>{:.2}–{:.2} µs</td>\
                 <td><div class=\"bar\" style=\"width:{w:.0}px\"></div> {c}</td></tr>",
                trace.tb_to_ns(lo) / 1000.0,
                trace.tb_to_ns(hi) / 1000.0
            )?;
        }
    }
    out.write_all(
        b"</table>\n\n<h2>Event counts</h2>\n\
          <table><tr><th>event</th><th>count</th></tr>\n",
    )?;
    for (code, n) in stats.counts.sorted() {
        writeln!(
            out,
            "<tr><td><code>{}</code></td><td>{n}</td></tr>",
            code.name()
        )?;
    }
    out.write_all(b"</table>\n\n")?;

    // Degraded-analysis section: present whenever loss accounting ran.
    if !a.loss().streams.is_empty() || a.loss().truncated.is_some() {
        write!(
            out,
            "<h2>Loss accounting</h2>\n<pre>{}</pre>\n",
            escape(&a.loss().render())
        )?;
    }
    out.write_all(b"</body></html>\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalyzedTrace, GlobalEvent, SpeAnchor};
    use crate::svg::SvgOptions;
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
                group_mask: u32::MAX,
                spe_buffer_bytes: 2048,
            },
            events: vec![
                mk(0, TraceCore::Ppe(0), PpeCtxRun, vec![0, 0, 0]),
                mk(0, TraceCore::Spe(0), SpeCtxStart, vec![0]),
                mk(2, TraceCore::Spe(0), SpeDmaGet, vec![0x1000, 0, 4096, 1]),
                mk(4, TraceCore::Spe(0), SpeTagWaitBegin, vec![2, 0]),
                mk(30, TraceCore::Spe(0), SpeTagWaitEnd, vec![2]),
                mk(100, TraceCore::Spe(0), SpeStop, vec![0]),
            ],
            ctx_names: vec![(0, "h<tml".into())],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 0,
                dec_start: u32::MAX,
            }],
            dropped: 0,
        }
    }

    fn render(t: &AnalyzedTrace, title: &str) -> String {
        let a = Analysis::from_analyzed(t.clone());
        let opts = RenderOptions::default()
            .with_title(title)
            .with_svg(SvgOptions {
                width: 1100,
                ..SvgOptions::default()
            });
        a.render(crate::report::ReportKind::Html, &opts)
    }

    #[test]
    fn report_is_complete_html() {
        let html = render(&trace(), "unit <test>");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(html.contains("unit &lt;test&gt;"), "title escaped");
        assert!(html.contains("<svg"), "embedded timeline");
        assert!(html.contains("SPE0"));
        assert!(html.contains("spe-dma-get"));
        assert!(html.contains("1 gets, 0 puts"));
        assert!(html.contains("class=\"bar\""), "histogram bars");
        // The context name from the trace is escaped inside the SVG.
        assert!(!html.contains("h<tml"));
    }

    #[test]
    fn empty_trace_renders() {
        let mut t = trace();
        t.events.clear();
        let html = render(&t, "empty");
        assert!(html.contains("0 events"));
        assert!(html.contains("</html>"));
    }
}
