//! ASCII rendering of timelines, for terminals and test assertions.
//!
//! Each lane is one row; each column covers `span / width` ticks and
//! shows the last interval, in lane order, that touches it:
//!
//! ```text
//! =  compute      d  DMA wait      m  mailbox wait      s  signal wait
//! .  idle (outside the context's lifetime)
//! ```

use std::io;

use crate::intervals::ActivityKind;
use crate::timeline::Timeline;

fn glyph(kind: ActivityKind) -> char {
    match kind {
        ActivityKind::Compute => '=',
        ActivityKind::DmaWait => 'd',
        ActivityKind::MboxWait => 'm',
        ActivityKind::SignalWait => 's',
    }
}

/// Writes a timeline as fixed-width text, `width` columns of chart per
/// lane. Front door:
/// [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`ReportKind::Ascii`](crate::report::ReportKind::Ascii).
pub(crate) fn write_ascii(
    timeline: &Timeline,
    width: usize,
    out: &mut dyn io::Write,
) -> io::Result<()> {
    let width = width.max(10);
    let label_w = timeline
        .lanes
        .iter()
        .map(|l| l.label.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let span = timeline.span() as f64;
    writeln!(
        out,
        "timeline {}..{} ticks ({} per column)",
        timeline.start_tb,
        timeline.end_tb,
        (span / width as f64).ceil() as u64
    )?;
    for lane in &timeline.lanes {
        let mut row = vec!['.'; width];
        for seg in timeline.drawn(lane) {
            // Last writer wins: each interval paints every column it
            // touches, so a shared column shows the latest interval.
            let c0 = ((seg.start_tb - timeline.start_tb) as f64 / span * width as f64) as usize;
            let c1 = (((seg.end_tb - timeline.start_tb) as f64 / span * width as f64).ceil()
                as usize)
                .min(width);
            for cell in row.iter_mut().take(c1).skip(c0.min(width)) {
                *cell = glyph(seg.kind);
            }
        }
        for m in &lane.markers {
            let c = (((m.time_tb - timeline.start_tb) as f64 / span) * width as f64) as usize;
            if c < width {
                row[c] = '|';
            }
        }
        writeln!(
            out,
            "{:<label_w$} {}",
            lane.label,
            row.iter().collect::<String>()
        )?;
    }
    writeln!(
        out,
        "{:<label_w$} legend: = compute, d dma-wait, m mbox-wait, s sig-wait, | event, . idle",
        ""
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::Interval;
    use crate::timeline::{Lane, Marker};
    use pdt::{EventCode, TraceCore};

    fn render(t: &Timeline, width: usize) -> String {
        let mut out = Vec::new();
        write_ascii(t, width, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    const SPE0: [Interval; 2] = [
        Interval {
            start_tb: 0,
            end_tb: 50,
            kind: ActivityKind::Compute,
        },
        Interval {
            start_tb: 50,
            end_tb: 100,
            kind: ActivityKind::DmaWait,
        },
    ];

    fn timeline() -> Timeline<'static> {
        Timeline {
            start_tb: 0,
            end_tb: 100,
            lanes: vec![
                Lane {
                    label: "PPE.0".into(),
                    core: TraceCore::Ppe(0),
                    intervals: &[],
                    markers: vec![Marker {
                        time_tb: 0,
                        code: EventCode::PpeCtxRun,
                    }],
                },
                Lane {
                    label: "SPE0".into(),
                    core: TraceCore::Spe(0),
                    intervals: &SPE0,
                    markers: vec![],
                },
            ],
        }
    }

    #[test]
    fn rows_show_expected_glyphs() {
        let s = render(&timeline(), 20);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("timeline 0..100"));
        assert!(lines[1].starts_with("PPE.0"));
        assert!(lines[1].contains('|'));
        let spe = lines[2];
        assert!(spe.starts_with("SPE0"));
        let chart: String = spe.split_whitespace().last().unwrap().to_string();
        assert_eq!(chart.len(), 20);
        assert_eq!(&chart[..10], "==========");
        assert_eq!(&chart[10..], "dddddddddd");
    }

    #[test]
    fn legend_is_present() {
        let s = render(&timeline(), 30);
        assert!(s.contains("legend:"));
    }

    #[test]
    fn narrow_width_is_clamped() {
        let s = render(&timeline(), 1);
        assert!(s.lines().count() >= 3);
    }
}
