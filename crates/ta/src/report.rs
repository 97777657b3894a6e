//! The unified exporter interface.
//!
//! The analyzer historically grew four exporters — [`crate::csv`],
//! [`crate::svg`], [`crate::html`] and [`crate::ascii`] — each with its
//! own free-function signature and option set. This module puts them
//! behind one [`Report`] trait with one shared [`RenderOptions`]
//! struct. Every exporter writes to an [`io::Write`] sink:
//! [`Analysis::write_report`] streams a report to a file or a pipe
//! without holding the document in memory, and [`Analysis::render`]
//! collects the same bytes into a `String`.
//!
//! ```
//! use ta::{Analysis, RenderOptions, ReportKind};
//! # use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};
//! # let mut ppe = Vec::new();
//! # TraceRecord { core: TraceCore::Ppe(0), code: EventCode::PpeCtxRun, timestamp: 10,
//! #     params: vec![0, 0, u32::MAX as u64] }.encode_into(&mut ppe);
//! # let trace = TraceFile {
//! #     header: TraceHeader { version: VERSION, num_ppe_threads: 1, num_spes: 0,
//! #         core_hz: 3_200_000_000, timebase_divider: 120, dec_start: u32::MAX,
//! #         group_mask: u32::MAX, spe_buffer_bytes: 2048 },
//! #     streams: vec![TraceStream { core: TraceCore::Ppe(0), bytes: ppe, dropped: 0 }],
//! #     ctx_names: vec![],
//! # };
//! let a = Analysis::of(&trace).run().unwrap();
//! let svg = a.render(ReportKind::Svg, &RenderOptions::default());
//! assert!(svg.contains("</svg>"));
//! ```

use std::io;

use crate::session::Analysis;
use crate::svg::SvgOptions;

/// Which exporter [`Analysis::write_report`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// CSV table selected by [`RenderOptions::csv`].
    Csv,
    /// SVG timeline.
    Svg,
    /// Self-contained HTML report.
    Html,
    /// Fixed-width ASCII timeline.
    Ascii,
}

/// Which table the CSV exporter emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CsvTable {
    /// Every event: `time_tb,time_ns,core,event,params`.
    #[default]
    Events,
    /// Activity intervals: `spe,kind,start_tb,end_tb,ticks`.
    Intervals,
    /// Per-SPE activity totals.
    Activity,
    /// Loss accounting (gaps, estimated drops) per stream.
    Loss,
}

/// Options shared by every exporter. Each exporter reads the fields it
/// needs and ignores the rest, so one `RenderOptions` value can drive
/// all four report kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderOptions {
    /// Report title (used by the HTML exporter).
    pub title: String,
    /// Timeline geometry for SVG output, including the SVG embedded in
    /// the HTML report.
    pub svg: SvgOptions,
    /// Chart width in columns for ASCII output.
    pub ascii_width: usize,
    /// Which CSV table to emit.
    pub csv: CsvTable,
    /// Optional half-open time window `[start_tb, end_tb)`. When set,
    /// every exporter renders only that window, resolved through the
    /// session's [`TraceIndex`](crate::index::TraceIndex) (the loss
    /// table, which is per-stream rather than per-time, ignores it).
    pub window: Option<(u64, u64)>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            title: "trace".into(),
            svg: SvgOptions::default(),
            ascii_width: 100,
            csv: CsvTable::default(),
            window: None,
        }
    }
}

impl RenderOptions {
    /// Sets the report title.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Sets the SVG timeline geometry.
    pub fn with_svg(mut self, svg: SvgOptions) -> Self {
        self.svg = svg;
        self
    }

    /// Sets the ASCII chart width.
    pub fn with_ascii_width(mut self, width: usize) -> Self {
        self.ascii_width = width;
        self
    }

    /// Selects the CSV table.
    pub fn with_csv(mut self, table: CsvTable) -> Self {
        self.csv = table;
        self
    }

    /// Restricts rendering to the half-open window `[start_tb, end_tb)`.
    pub fn with_window(mut self, start_tb: u64, end_tb: u64) -> Self {
        self.window = Some((start_tb, end_tb));
        self
    }
}

/// One exporter behind the unified interface.
pub trait Report {
    /// Writes `a` in this exporter's output format to `out`. The only
    /// errors are the sink's.
    fn write(&self, a: &Analysis, opts: &RenderOptions, out: &mut dyn io::Write) -> io::Result<()>;
}

/// The CSV exporter; [`RenderOptions::csv`] selects the table.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvReport;

/// The SVG timeline exporter.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvgReport;

/// The self-contained HTML report exporter.
#[derive(Debug, Clone, Copy, Default)]
pub struct HtmlReport;

/// The fixed-width ASCII timeline exporter.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsciiReport;

impl Report for CsvReport {
    fn write(&self, a: &Analysis, opts: &RenderOptions, out: &mut dyn io::Write) -> io::Result<()> {
        use crate::csv;
        match (opts.csv, opts.window) {
            (CsvTable::Events, window) => csv::write_events(a, window, out),
            (CsvTable::Intervals, None) => csv::write_intervals(a.intervals(), out),
            (CsvTable::Intervals, Some((t0, t1))) => {
                csv::write_intervals(&a.intervals_window(t0, t1), out)
            }
            (CsvTable::Activity, None) => csv::write_activity(a.stats(), out),
            (CsvTable::Activity, Some((t0, t1))) => {
                csv::write_activity_window(&a.intervals_window(t0, t1), out)
            }
            (CsvTable::Loss, _) => csv::write_loss(a.loss(), out),
        }
    }
}

impl Report for SvgReport {
    fn write(&self, a: &Analysis, opts: &RenderOptions, out: &mut dyn io::Write) -> io::Result<()> {
        match opts.window {
            Some((t0, t1)) => crate::svg::write_svg(&a.timeline_window(t0, t1), &opts.svg, out),
            None => crate::svg::write_svg(&a.timeline(), &opts.svg, out),
        }
    }
}

impl Report for HtmlReport {
    fn write(&self, a: &Analysis, opts: &RenderOptions, out: &mut dyn io::Write) -> io::Result<()> {
        crate::html::write_html(a, opts, out)
    }
}

impl Report for AsciiReport {
    fn write(&self, a: &Analysis, opts: &RenderOptions, out: &mut dyn io::Write) -> io::Result<()> {
        match opts.window {
            Some((t0, t1)) => {
                crate::ascii::write_ascii(&a.timeline_window(t0, t1), opts.ascii_width, out)
            }
            None => crate::ascii::write_ascii(&a.timeline(), opts.ascii_width, out),
        }
    }
}

impl ReportKind {
    /// The exporter implementing this kind.
    pub fn report(self) -> Box<dyn Report> {
        match self {
            ReportKind::Csv => Box::new(CsvReport),
            ReportKind::Svg => Box::new(SvgReport),
            ReportKind::Html => Box::new(HtmlReport),
            ReportKind::Ascii => Box::new(AsciiReport),
        }
    }
}

impl std::fmt::Debug for dyn Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Report")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};

    fn trace() -> TraceFile {
        let mut ppe = Vec::new();
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: 10,
            params: vec![0, 0, u32::MAX as u64],
        }
        .encode_into(&mut ppe);
        let mut spe = Vec::new();
        let mut dec = u32::MAX;
        for (code, step, params) in [
            (EventCode::SpeCtxStart, 0u32, vec![0]),
            (EventCode::SpeDmaGet, 100, vec![0x1000, 0x100000, 4096, 1]),
            (EventCode::SpeTagWaitBegin, 10, vec![2, 0]),
            (EventCode::SpeTagWaitEnd, 400, vec![2]),
            (EventCode::SpeStop, 500, vec![0]),
        ] {
            dec = dec.wrapping_sub(step);
            TraceRecord {
                core: TraceCore::Spe(0),
                code,
                timestamp: dec as u64,
                params,
            }
            .encode_into(&mut spe);
        }
        TraceFile {
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
            streams: vec![
                TraceStream {
                    core: TraceCore::Ppe(0),
                    bytes: ppe,
                    dropped: 0,
                },
                TraceStream {
                    core: TraceCore::Spe(0),
                    bytes: spe,
                    dropped: 0,
                },
            ],
            ctx_names: vec![(0, "k0".into())],
        }
    }

    #[test]
    fn all_four_kinds_render_through_the_trait() {
        let t = trace();
        let a = Analysis::of(&t).run().unwrap();
        let opts = RenderOptions::default();
        for (kind, needle) in [
            (ReportKind::Csv, "time_tb,"),
            (ReportKind::Svg, "</svg>"),
            (ReportKind::Html, "</html>"),
            (ReportKind::Ascii, "legend"),
        ] {
            let mut out = Vec::new();
            kind.report().write(&a, &opts, &mut out).unwrap();
            let out = String::from_utf8(out).unwrap();
            assert!(out.contains(needle), "{kind:?} missing {needle:?}");
            assert_eq!(out, a.render(kind, &opts), "front door matches trait");
        }
        // `write_report` into a `Vec` is `render`, for every kind and
        // every CSV table, whole-trace and windowed.
        for window in [None, Some((0, 200))] {
            for table in [
                CsvTable::Events,
                CsvTable::Intervals,
                CsvTable::Activity,
                CsvTable::Loss,
            ] {
                let mut opts = RenderOptions::default().with_csv(table);
                opts.window = window;
                for kind in [
                    ReportKind::Csv,
                    ReportKind::Svg,
                    ReportKind::Html,
                    ReportKind::Ascii,
                ] {
                    let mut out = Vec::new();
                    a.write_report(kind, &opts, &mut out).unwrap();
                    assert_eq!(out, a.render(kind, &opts).as_bytes(), "{kind:?} {opts:?}");
                }
            }
        }
    }

    /// A sink that accepts `room` bytes, then fails every write.
    struct FailAfter {
        room: usize,
    }

    impl io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_surfaces_as_an_error() {
        let t = trace();
        let a = Analysis::of(&t).run().unwrap();
        for table in [
            CsvTable::Events,
            CsvTable::Intervals,
            CsvTable::Activity,
            CsvTable::Loss,
        ] {
            let opts = RenderOptions::default().with_csv(table);
            for kind in [
                ReportKind::Csv,
                ReportKind::Svg,
                ReportKind::Html,
                ReportKind::Ascii,
            ] {
                let full = a.render(kind, &opts).len();
                for room in [0, 1, full / 2, full - 1] {
                    let err = a
                        .write_report(kind, &opts, &mut FailAfter { room })
                        .expect_err("short sink");
                    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{kind:?} {room}");
                }
                a.write_report(kind, &opts, &mut FailAfter { room: full })
                    .unwrap();
            }
        }
    }

    #[test]
    fn csv_table_selection() {
        let t = trace();
        let a = Analysis::of(&t).run().unwrap();
        let render = |table| a.render(ReportKind::Csv, &RenderOptions::default().with_csv(table));
        assert!(render(CsvTable::Events).starts_with("time_tb,"));
        assert!(render(CsvTable::Intervals).starts_with("spe,kind,"));
        assert!(render(CsvTable::Activity).starts_with("spe,active_tb"));
        assert!(render(CsvTable::Loss).starts_with("stream,"));
    }

    #[test]
    fn options_builders_chain() {
        let o = RenderOptions::default()
            .with_title("t")
            .with_ascii_width(44)
            .with_csv(CsvTable::Loss)
            .with_svg(SvgOptions {
                width: 500,
                ..SvgOptions::default()
            });
        assert_eq!(o.title, "t");
        assert_eq!(o.ascii_width, 44);
        assert_eq!(o.csv, CsvTable::Loss);
        assert_eq!(o.svg.width, 500);
    }
}
