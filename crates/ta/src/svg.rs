//! SVG rendering of timelines — the reproduction of the Trace
//! Analyzer's Gantt view.

use std::io::{self, Write as _};

use crate::intervals::{ActivityKind, Interval};
use crate::timeline::Timeline;

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvgOptions {
    /// Plot width in pixels (lanes area, excluding the label gutter).
    pub width: u32,
    /// Height of one lane in pixels.
    pub lane_height: u32,
    /// Gap between lanes in pixels.
    pub lane_gap: u32,
    /// Label gutter width in pixels.
    pub gutter: u32,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 960,
            lane_height: 22,
            lane_gap: 6,
            gutter: 140,
        }
    }
}

fn color(kind: ActivityKind) -> &'static str {
    match kind {
        ActivityKind::Compute => "#4caf50",
        ActivityKind::DmaWait => "#e53935",
        ActivityKind::MboxWait => "#fb8c00",
        ActivityKind::SignalWait => "#8e24aa",
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// `"00" "01" .. "99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends `v` in decimal, exactly as `v.to_string()` spells it.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `x` formatted exactly as `format!("{x:.1}")` does. The
/// fast path rounds the exact binary value to tenths in integer
/// arithmetic (ties to even, like `core::fmt`); values outside
/// `[+0, 2^32)` and non-finite values take the `core::fmt` path.
fn push_1dp(out: &mut Vec<u8>, x: f64) {
    if !(x.is_sign_positive() && x < 4_294_967_296.0) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{x:.1}");
        return;
    }
    // x = m * 2^-sh exactly; below 2^32 the exponent is always negative.
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as u32;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, sh) = if exp == 0 {
        (frac, 1074)
    } else {
        (frac | (1u64 << 52), 1075 - exp)
    };
    let v = u128::from(m) * 10;
    let tenths = if sh >= 128 {
        0
    } else {
        let q = v >> sh;
        let rem = v & ((1u128 << sh) - 1);
        let half = 1u128 << (sh - 1);
        let up = rem > half || (rem == half && q & 1 == 1);
        (q + u128::from(up)) as u64
    };
    push_u64(out, tenths / 10);
    out.extend_from_slice(&[b'.', b'0' + (tenths % 10) as u8]);
}

/// Bytes the SVG emitter gathers before each write to its sink.
const CHUNK: usize = 64 * 1024;

/// The SVG emitter's output: one reused chunk, handed to the sink
/// whenever it fills, so a document of any size costs one chunk of
/// memory and one `write` per 64 KiB.
struct Chunked<'w> {
    buf: Vec<u8>,
    sink: &'w mut dyn io::Write,
}

impl<'w> Chunked<'w> {
    fn new(sink: &'w mut dyn io::Write) -> Self {
        Chunked {
            buf: Vec::with_capacity(CHUNK + 1024),
            sink,
        }
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    fn u64(&mut self, v: impl Into<u64>) -> &mut Self {
        push_u64(&mut self.buf, v.into());
        self
    }

    fn dp1(&mut self, x: f64) -> &mut Self {
        push_1dp(&mut self.buf, x);
        self
    }

    /// Hands the chunk to the sink once it is full; called between
    /// elements, so an element never straddles two writes.
    fn spill(&mut self) -> io::Result<()> {
        if self.buf.len() >= CHUNK {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(self) -> io::Result<()> {
        self.sink.write_all(&self.buf)
    }
}

/// Tick `i` of the time axis's eight equal steps, computed in `u128`
/// so that spans above 2^61 do not overflow.
fn axis_tick(timeline: &Timeline, i: u64) -> u64 {
    let step = u128::from(timeline.span()) * u128::from(i) / 8;
    timeline.start_tb + step as u64
}

/// `pre`, then `v` in decimal, then `post`: attribute text that repeats
/// on many elements, spelled once.
fn fragment(pre: &str, v: u64, post: &str) -> Vec<u8> {
    let mut f = pre.as_bytes().to_vec();
    push_u64(&mut f, v);
    f.extend_from_slice(post.as_bytes());
    f
}

/// The plot's pixel columns: column `c` of `width` covers the ticks
/// `[start + ceil(c·span/width), start + ceil((c+1)·span/width))`,
/// computed in `u128`; and a cursor at column `c`, ticks `[lo, hi)`,
/// moved only forward: a tick in the same column costs two compares,
/// the next column one `first_tick`, and only a longer jump `of`.
#[derive(Debug, Clone, Copy)]
struct Columns {
    start: u64,
    span: u64,
    /// At least 1.
    width: u64,
    c: u64,
    lo: u64,
    hi: u64,
}

impl Columns {
    /// The first tick of column `c`; `c == width` gives the plot's end.
    fn first_tick(&self, c: u64) -> u64 {
        let scaled = (u128::from(c) * u128::from(self.span)).div_ceil(u128::from(self.width));
        self.start.saturating_add(scaled as u64)
    }

    /// The column holding tick `t`, clamped into the plot.
    fn of(&self, t: u64) -> u64 {
        let off = u128::from(t.saturating_sub(self.start));
        let scaled = off * u128::from(self.width) / u128::from(self.span);
        scaled.min(u128::from(self.width - 1)) as u64
    }

    /// Moves the cursor to the column holding `t`, [`of`](Self::of)`(t)`;
    /// `t` must not lie before the cursor's column.
    #[inline]
    fn seek(&mut self, t: u64) -> u64 {
        if t >= self.hi && self.c + 1 < self.width {
            let next = self.first_tick(self.c + 2);
            (self.c, self.lo, self.hi) = if t < next {
                (self.c + 1, self.hi, next)
            } else {
                let c = self.of(t);
                (c, self.first_tick(c), self.first_tick(c + 1))
            };
        }
        self.c
    }
}

/// A folded run's ticks in the pixel columns `c0..=c1`: their tick
/// range `[lo, hi)` and the ticks of each activity kind within it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    c0: u64,
    c1: u64,
    lo: u64,
    hi: u64,
    /// The ticks of column `c0`, the share its heights are taken of.
    den: u64,
    ticks: [u64; 4],
}

/// The drawn form of a one-column [`Cell`]: the stack's cumulative
/// height after each kind, in whole pixels, so two columns that draw
/// the same stack compare equal.
type Stack = [u32; 4];

/// One lane's intervals on their way out. An interval at least a pixel
/// wide is an exact rect, and so is a narrower one on its own. Runs of
/// two or more narrower intervals, chained by sharing a pixel column,
/// are folded column by column into [`Cell`]s, and neighbouring cells
/// that draw the same stack are written as one.
struct LaneOut<'a, 'w, X> {
    o: &'a mut Chunked<'w>,
    x_of: &'a X,
    /// The ticks in half a pixel, rounded down.
    half_px: u64,
    /// The column cursor, left where the last narrow interval ended;
    /// `None` on a zero-width plot, which has no columns to fold into.
    cur: Option<Columns>,
    rect_y: Vec<u8>,
    kind_tail: &'a [Vec<u8>; 4],
    gutter: u32,
    y: u32,
    height: u32,
    /// A narrow interval that may yet start a run, and its first column.
    lone: Option<(Interval, Columns)>,
    /// The column of the last narrow interval's last tick, which the
    /// next narrow interval must share to join its run.
    run_last: Option<u64>,
    /// The column being summed.
    column: Option<Cell>,
    /// The cell drawn so far, waiting to see whether the next column
    /// draws the same stack.
    open: Option<(Cell, Stack)>,
}

impl<X: Fn(u64) -> f64> LaneOut<'_, '_, X> {
    fn segment(&mut self, seg: Interval) -> io::Result<()> {
        let len = seg.end_tb - seg.start_tb;
        // The cursor and the run's last tick are in the column summed, so
        // an interval under half a pixel that ends in it only adds ticks.
        if let (Some(cell), Some(cur)) = (&mut self.column, &self.cur) {
            if len > 0 && len <= self.half_px && seg.end_tb <= cur.hi {
                cell.ticks[seg.kind.index()] += len;
                cell.hi = seg.end_tb;
                return Ok(());
            }
        }
        // Half a pixel of ticks is sub-pixel whatever the f64 x error.
        let narrow =
            len <= self.half_px || (self.x_of)(seg.end_tb) - (self.x_of)(seg.start_tb) < 1.0;
        let Some(mut cur) = self.cur.filter(|_| narrow) else {
            self.end_run()?;
            return self.rect(seg);
        };
        let first = cur.seek(seg.start_tb);
        if self.run_last.is_none_or(|last| first > last) {
            self.end_run()?;
            self.lone = Some((seg, cur));
        } else {
            if let Some((prev, at)) = self.lone.take() {
                cur = at;
                self.fold(&mut cur, prev)?;
            }
            self.fold(&mut cur, seg)?;
        }
        // The column of `seg`'s last tick, or of its start when empty.
        self.run_last = Some(cur.seek(seg.end_tb.saturating_sub(1).max(seg.start_tb)));
        self.cur = Some(cur);
        Ok(())
    }

    /// Writes `seg` as an exact rect, after the cell before it.
    fn rect(&mut self, seg: Interval) -> io::Result<()> {
        self.write_open()?;
        let (x0, x1) = ((self.x_of)(seg.start_tb), (self.x_of)(seg.end_tb));
        self.o
            .str(r#"<rect x=""#)
            .dp1(x0)
            .bytes(&self.rect_y)
            .dp1((x1 - x0).max(0.5))
            .bytes(&self.kind_tail[seg.kind.index()])
            .u64(seg.start_tb)
            .str("..")
            .u64(seg.end_tb)
            .str(" ticks</title></rect>\n");
        self.o.spill()
    }

    /// Adds `seg`'s ticks to the columns they fall in, moving `cur` on.
    fn fold(&mut self, cur: &mut Columns, seg: Interval) -> io::Result<()> {
        let k = seg.kind.index();
        let mut t = seg.start_tb;
        while t < seg.end_tb {
            let c = cur.seek(t);
            let end = cur.hi.min(seg.end_tb);
            // Intervals lie inside the plot, so every tick has a column.
            debug_assert!(end > t, "tick {t} past the plot's end");
            match &mut self.column {
                Some(cell) if cell.c0 == c => {
                    cell.ticks[k] += end - t;
                    cell.hi = end;
                }
                _ => {
                    self.close_column()?;
                    let mut ticks = [0; 4];
                    ticks[k] = end - t;
                    self.column = Some(Cell {
                        c0: c,
                        c1: c,
                        lo: t,
                        hi: end,
                        den: cur.hi - cur.lo,
                        ticks,
                    });
                }
            }
            t = end;
        }
        Ok(())
    }

    /// Ends the column being summed: it joins the open cell when both
    /// draw the same stack, and otherwise replaces it.
    fn close_column(&mut self) -> io::Result<()> {
        let Some(cell) = self.column.take() else {
            return Ok(());
        };
        // Heights are shares of the column's ticks.
        let den = u128::from(cell.den);
        let mut stack = [0u32; 4];
        let mut cum = 0u128;
        for (k, h) in stack.iter_mut().enumerate() {
            cum += u128::from(cell.ticks[k]);
            // Rounded to the nearest pixel.
            *h = ((2 * u128::from(self.height) * cum + den) / (2 * den)) as u32;
        }
        if let Some((open, drawn)) = &mut self.open {
            if *drawn == stack && open.c1 + 1 == cell.c0 {
                open.c1 = cell.c1;
                open.hi = cell.hi;
                for (sum, t) in open.ticks.iter_mut().zip(cell.ticks) {
                    *sum += t;
                }
                return Ok(());
            }
        }
        self.write_open()?;
        self.open = Some((cell, stack));
        Ok(())
    }
    /// Writes a cell: its exact per-kind ticks as the tooltip, and one
    /// rect per kind stacked up from the lane's bottom edge.
    fn cell(&mut self, (cell, stack): (Cell, Stack)) -> io::Result<()> {
        let o = &mut *self.o;
        o.str("<g><title>")
            .u64(cell.lo)
            .str("..")
            .u64(cell.hi)
            .str(" ticks:");
        let mut sep = " ";
        for kind in ActivityKind::ALL {
            let t = cell.ticks[kind.index()];
            if t > 0 {
                o.str(sep).str(kind.label()).str(" ").u64(t);
                sep = ", ";
            }
        }
        o.str("</title>");
        let bottom = self.y + self.height;
        let mut below = 0;
        for (kind, top) in ActivityKind::ALL.into_iter().zip(stack) {
            if top > below {
                o.str(r#"<rect x=""#)
                    .u64(u64::from(self.gutter) + cell.c0)
                    .str(r#"" y=""#)
                    .u64(bottom - top)
                    .str(r#"" width=""#)
                    .u64(cell.c1 - cell.c0 + 1)
                    .str(r#"" height=""#)
                    .u64(top - below)
                    .str("\" fill=\"")
                    .str(color(kind))
                    .str("\"/>");
            }
            below = top;
        }
        o.str("</g>\n");
        o.spill()
    }

    /// Ends the run in progress: a lone narrow segment becomes a rect,
    /// and a folded run's last column is closed. The open cell stays
    /// open, so the next run can extend it when its first column comes
    /// next and draws the same stack.
    fn end_run(&mut self) -> io::Result<()> {
        if let Some((seg, _)) = self.lone.take() {
            self.rect(seg)?;
        }
        self.run_last = None;
        self.close_column()
    }

    /// Writes whatever the lane still holds.
    fn finish(mut self) -> io::Result<()> {
        self.end_run()?;
        self.write_open()
    }

    fn write_open(&mut self) -> io::Result<()> {
        match self.open.take() {
            Some(open) => self.cell(open),
            None => Ok(()),
        }
    }
}

/// Writes a timeline as an SVG document to `out`. Front door:
/// [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`ReportKind::Svg`](crate::report::ReportKind::Svg).
///
/// The document's size follows the canvas, not the trace: intervals
/// narrower than a pixel are folded into per-column cells (see
/// [`LaneOut`]) whose tooltips carry each kind's exact ticks, so a lane
/// writes at most one cell per pixel column beside its wide intervals.
///
/// The text that repeats on every element of a lane (its `y`, the
/// height, colour and tooltip prefix of each activity kind) is built
/// once; per element only the coordinates and tick values are
/// formatted, by hand, into a reused chunk.
pub(crate) fn write_svg(
    timeline: &Timeline,
    opts: &SvgOptions,
    out: &mut dyn io::Write,
) -> io::Result<()> {
    let n = timeline.lanes.len() as u32;
    let axis_h = 28u32;
    let legend_h = 22u32;
    let height = n * (opts.lane_height + opts.lane_gap) + axis_h + legend_h + 10;
    let total_w = opts.gutter + opts.width + 20;
    let span = timeline.span() as f64;
    let x_of = |tb: u64| -> f64 {
        opts.gutter as f64 + (tb - timeline.start_tb) as f64 / span * opts.width as f64
    };
    let (start, ticks, width) = (timeline.start_tb, timeline.span(), u64::from(opts.width));
    let cur = (width > 0).then(|| Columns {
        start,
        span: ticks,
        width,
        c: 0,
        lo: start,
        // `first_tick(1)`, where `span` alone cannot overflow.
        hi: start.saturating_add(ticks.div_ceil(width)),
    });

    let mut o = Chunked::new(out);
    o.str(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#)
        .u64(total_w)
        .str(r#"" height=""#)
        .u64(height)
        .str("\" font-family=\"monospace\" font-size=\"11\">\n");
    o.str(r#"<rect width=""#)
        .u64(total_w)
        .str(r#"" height=""#)
        .u64(height)
        .str("\" fill=\"#ffffff\"/>\n");

    let kind_tail = ActivityKind::ALL.map(|kind| {
        let tail = ["\" fill=\"", color(kind), "\"><title>", kind.label(), ": "].concat();
        fragment("\" height=\"", opts.lane_height.into(), &tail)
    });

    // Lanes.
    for (i, lane) in timeline.lanes.iter().enumerate() {
        let y = legend_h + i as u32 * (opts.lane_height + opts.lane_gap);
        o.str(r#"<text x="4" y=""#)
            .u64(y + opts.lane_height / 2 + 4)
            .str("\" fill=\"#333\">")
            .str(&escape(&lane.label))
            .str("</text>\n");
        // Lane background.
        o.str(r#"<rect x=""#)
            .u64(opts.gutter)
            .str(r#"" y=""#)
            .u64(y)
            .str(r#"" width=""#)
            .u64(opts.width)
            .str(r#"" height=""#)
            .u64(opts.lane_height)
            .str("\" fill=\"#f2f2f2\"/>\n");

        let mut lane_out = LaneOut {
            o: &mut o,
            x_of: &x_of,
            half_px: ticks / (2 * width).max(1),
            cur,
            rect_y: fragment("\" y=\"", y.into(), "\" width=\""),
            kind_tail: &kind_tail,
            gutter: opts.gutter,
            y,
            height: opts.lane_height,
            lone: None,
            run_last: None,
            column: None,
            open: None,
        };
        for seg in timeline.drawn(lane) {
            lane_out.segment(seg)?;
        }
        lane_out.finish()?;

        let line_y1 = fragment("\" y1=\"", y.into(), "\" x2=\"");
        let line_y2 = fragment(
            "\" y2=\"",
            (y + opts.lane_height).into(),
            "\" stroke=\"#1565c0\" stroke-width=\"1\"><title>",
        );
        for m in &lane.markers {
            let x = x_of(m.time_tb);
            o.str(r#"<line x1=""#)
                .dp1(x)
                .bytes(&line_y1)
                .dp1(x)
                .bytes(&line_y2)
                .str(m.code.name())
                .str(" @ ")
                .u64(m.time_tb)
                .str(" ticks</title></line>\n");
            o.spill()?;
        }
    }

    // Time axis with ~8 ticks.
    let axis_y = legend_h + n * (opts.lane_height + opts.lane_gap) + 12;
    o.str(r#"<line x1=""#)
        .u64(opts.gutter)
        .str(r#"" y1=""#)
        .u64(axis_y)
        .str(r#"" x2=""#)
        .u64(opts.gutter + opts.width)
        .str(r#"" y2=""#)
        .u64(axis_y)
        .str("\" stroke=\"#999\"/>\n");
    for i in 0..=8u64 {
        let tb = axis_tick(timeline, i);
        let x = x_of(tb);
        o.str(r#"<line x1=""#)
            .dp1(x)
            .str(r#"" y1=""#)
            .u64(axis_y)
            .str(r#"" x2=""#)
            .dp1(x)
            .str(r#"" y2=""#)
            .u64(axis_y + 4)
            .str("\" stroke=\"#999\"/><text x=\"")
            .dp1(x)
            .str(r#"" y=""#)
            .u64(axis_y + 15)
            .str("\" text-anchor=\"middle\" fill=\"#666\">")
            .u64(tb)
            .str("</text>\n");
    }

    // Legend.
    let mut lx = opts.gutter;
    for kind in ActivityKind::ALL {
        o.str(r#"<rect x=""#)
            .u64(lx)
            .str("\" y=\"4\" width=\"12\" height=\"12\" fill=\"")
            .str(color(kind))
            .str(r#""/><text x=""#)
            .u64(lx + 16)
            .str("\" y=\"14\" fill=\"#333\">")
            .str(kind.label())
            .str("</text>\n");
        lx += 110;
    }

    o.str("</svg>\n");
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Lane, Marker};
    use pdt::{EventCode, TraceCore};
    use proptest::prelude::*;

    fn render(t: &Timeline, opts: &SvgOptions) -> String {
        let mut out = Vec::new();
        write_svg(t, opts, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    const SPE0: [Interval; 2] = [
        Interval {
            start_tb: 0,
            end_tb: 400,
            kind: ActivityKind::Compute,
        },
        Interval {
            start_tb: 400,
            end_tb: 1000,
            kind: ActivityKind::DmaWait,
        },
    ];

    fn timeline() -> Timeline<'static> {
        Timeline {
            start_tb: 0,
            end_tb: 1000,
            lanes: vec![Lane {
                label: "SPE0 <&test>".into(),
                core: TraceCore::Spe(0),
                intervals: &SPE0,
                markers: vec![Marker {
                    time_tb: 500,
                    code: EventCode::SpeUser,
                }],
            }],
        }
    }

    #[test]
    fn svg_is_structurally_sound() {
        let svg = render(&timeline(), &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One rect per segment, with the right colors.
        assert!(svg.contains("#4caf50"));
        assert!(svg.contains("#e53935"));
        // Marker line and tooltip.
        assert!(svg.contains("spe-user @ 500 ticks"));
        // Label is escaped.
        assert!(svg.contains("SPE0 &lt;&amp;test&gt;"));
        assert!(!svg.contains("<&test>"));
    }

    #[test]
    fn segment_geometry_scales_to_width() {
        let opts = SvgOptions {
            width: 1000,
            ..SvgOptions::default()
        };
        let svg = render(&timeline(), &opts);
        // Compute segment: 40% of 1000 px = 400 px wide at x=gutter.
        assert!(svg.contains(r#"width="400.0""#), "svg: {svg}");
    }

    #[test]
    fn one_decimal_fast_path_matches_core_fmt() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut values = vec![
            0.0,
            -0.0,
            0.05,
            0.15,
            0.25,
            0.35,
            1.25,
            2.5,
            5e-324,
            1099.95,
            4_294_967_295.95,
            f64::NAN,
            f64::INFINITY,
            -3.25,
        ];
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.push((state % 2_000_000) as f64 / 1000.0);
            values.push(f64::from_bits(state));
        }
        for x in values {
            let mut got = Vec::new();
            push_1dp(&mut got, x);
            assert_eq!(got, format!("{x:.1}").as_bytes(), "{x:e}");
        }
    }

    #[test]
    fn integer_formatter_matches_to_string() {
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.push(state);
            // Short values too, so every digit count is exercised.
            values.push(state >> (state % 64));
        }
        for v in values {
            let mut got = Vec::new();
            push_u64(&mut got, v);
            assert_eq!(got, v.to_string().as_bytes(), "{v}");
        }
    }

    #[test]
    fn documents_larger_than_a_chunk_reach_the_sink_whole() {
        let segments = vec![SPE0[0]; 4 * CHUNK / 64];
        let mut t = timeline();
        t.lanes[0].intervals = &segments;
        let svg = render(&t, &SvgOptions::default());
        assert!(svg.len() > 2 * CHUNK);
        assert_eq!(svg.matches("<rect x=").count(), 4 * CHUNK / 64 + 1 + 4);
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn empty_timeline_renders_without_panic() {
        let t = Timeline {
            start_tb: 0,
            end_tb: 0,
            lanes: vec![],
        };
        let svg = render(&t, &SvgOptions::default());
        assert!(svg.contains("</svg>"));
    }

    /// The emitter before sub-pixel folding, kept as the oracle: one
    /// exact rect per segment, every number formatted by `core::fmt`.
    fn unfolded_svg(timeline: &Timeline, opts: &SvgOptions) -> String {
        use std::fmt::Write as _;
        let n = timeline.lanes.len() as u32;
        let (axis_h, legend_h) = (28u32, 22u32);
        let height = n * (opts.lane_height + opts.lane_gap) + axis_h + legend_h + 10;
        let total_w = opts.gutter + opts.width + 20;
        let span = timeline.span() as f64;
        let x_of = |tb: u64| -> f64 {
            opts.gutter as f64 + (tb - timeline.start_tb) as f64 / span * opts.width as f64
        };
        let lh = opts.lane_height;
        let mut s = String::new();
        let _ = writeln!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{height}" font-family="monospace" font-size="11">"#
        );
        let _ = writeln!(
            s,
            r##"<rect width="{total_w}" height="{height}" fill="#ffffff"/>"##
        );
        for (i, lane) in timeline.lanes.iter().enumerate() {
            let y = legend_h + i as u32 * (lh + opts.lane_gap);
            let _ = writeln!(
                s,
                r##"<text x="4" y="{}" fill="#333">{}</text>"##,
                y + lh / 2 + 4,
                escape(&lane.label)
            );
            let _ = writeln!(
                s,
                r##"<rect x="{}" y="{y}" width="{}" height="{lh}" fill="#f2f2f2"/>"##,
                opts.gutter, opts.width
            );
            for seg in timeline.drawn(lane) {
                let (x0, x1) = (x_of(seg.start_tb), x_of(seg.end_tb));
                let _ = writeln!(
                    s,
                    r#"<rect x="{x0:.1}" y="{y}" width="{:.1}" height="{lh}" fill="{}"><title>{}: {}..{} ticks</title></rect>"#,
                    (x1 - x0).max(0.5),
                    color(seg.kind),
                    seg.kind.label(),
                    seg.start_tb,
                    seg.end_tb
                );
            }
            for m in &lane.markers {
                let x = x_of(m.time_tb);
                let _ = writeln!(
                    s,
                    r##"<line x1="{x:.1}" y1="{y}" x2="{x:.1}" y2="{}" stroke="#1565c0" stroke-width="1"><title>{} @ {} ticks</title></line>"##,
                    y + lh,
                    m.code.name(),
                    m.time_tb
                );
            }
        }
        let axis_y = legend_h + n * (lh + opts.lane_gap) + 12;
        let _ = writeln!(
            s,
            r##"<line x1="{}" y1="{axis_y}" x2="{}" y2="{axis_y}" stroke="#999"/>"##,
            opts.gutter,
            opts.gutter + opts.width
        );
        for i in 0..=8u128 {
            let tb = timeline.start_tb + (u128::from(timeline.span()) * i / 8) as u64;
            let x = x_of(tb);
            let _ = writeln!(
                s,
                r##"<line x1="{x:.1}" y1="{axis_y}" x2="{x:.1}" y2="{}" stroke="#999"/><text x="{x:.1}" y="{}" text-anchor="middle" fill="#666">{tb}</text>"##,
                axis_y + 4,
                axis_y + 15
            );
        }
        let mut lx = opts.gutter;
        for kind in ActivityKind::ALL {
            let _ = writeln!(
                s,
                r##"<rect x="{lx}" y="4" width="12" height="12" fill="{}"/><text x="{}" y="14" fill="#333">{}</text>"##,
                color(kind),
                lx + 16,
                kind.label()
            );
            lx += 110;
        }
        s.push_str("</svg>\n");
        s
    }

    fn kind_of(label: &str) -> usize {
        ActivityKind::ALL
            .iter()
            .position(|k| k.label() == label)
            .unwrap_or_else(|| panic!("unknown kind {label:?}"))
    }

    /// A folded cell read back from the document: its tooltip's tick
    /// range and per-kind ticks, each kind's drawn height, and the
    /// first and last pixel column its rects cover, if it drew any.
    #[derive(Debug)]
    struct DrawnCell {
        lo: u64,
        hi: u64,
        ticks: [u64; 4],
        heights: [u64; 4],
        cols: Option<(u64, u64)>,
    }

    /// One lane as the document draws it: the exact rects as `(kind,
    /// start, end)` and the folded cells, in document order.
    #[derive(Debug, Default)]
    struct Drawn {
        rects: Vec<(usize, u64, u64)>,
        cells: Vec<DrawnCell>,
    }

    fn range(s: &str) -> (u64, u64) {
        let (a, b) = s.split_once("..").unwrap();
        (a.parse().unwrap(), b.parse().unwrap())
    }

    /// The value of attribute `name` in one element's text.
    fn attr<'s>(element: &'s str, name: &str) -> &'s str {
        let key = format!(" {name}=\"");
        let at = element.find(&key).unwrap() + key.len();
        &element[at..at + element[at..].find('"').unwrap()]
    }

    /// The pixel column holding tick `tb`, by the definition.
    fn column(t: &Timeline, opts: &SvgOptions, tb: u64) -> u64 {
        let (w, span) = (u128::from(opts.width), u128::from(t.span()));
        ((u128::from(tb - t.start_tb) * w / span).min(w - 1)) as u64
    }

    /// The first tick of pixel column `c`, by the definition.
    fn column_start(t: &Timeline, opts: &SvgOptions, c: u64) -> u64 {
        let (w, span) = (u128::from(opts.width), u128::from(t.span()));
        t.start_tb + (u128::from(c) * span).div_ceil(w) as u64
    }

    /// The heights `ticks` draw in a column of `col_ticks` ticks: the
    /// kinds' cumulative shares of the lane height, each rounded to the
    /// nearest pixel.
    fn stack_heights(ticks: [u64; 4], col_ticks: u64, lane_height: u32) -> [u64; 4] {
        let den = u128::from(col_ticks);
        let h = u128::from(lane_height);
        let (mut heights, mut cum, mut below) = ([0; 4], 0u128, 0u64);
        for (out, n) in heights.iter_mut().zip(ticks) {
            cum += u128::from(n);
            let top = ((2 * h * cum + den) / (2 * den)) as u64;
            *out = top - below;
            below = top;
        }
        heights
    }

    fn drawn(svg: &str) -> Vec<Drawn> {
        let mut lanes: Vec<Drawn> = Vec::new();
        for line in svg.lines() {
            if line.starts_with(r#"<text x="4""#) {
                lanes.push(Drawn::default());
            } else if let Some(rest) = line.strip_prefix("<g><title>") {
                let title = &rest[..rest.find("</title>").unwrap()];
                let (lohi, kinds) = title.split_once(" ticks:").unwrap();
                let (lo, hi) = range(lohi);
                let mut ticks = [0; 4];
                for part in kinds.split(',') {
                    let (label, n) = part.trim().split_once(' ').unwrap();
                    ticks[kind_of(label)] += n.parse::<u64>().unwrap();
                }
                let mut heights = [0; 4];
                let mut cols = None;
                for rect in rest.split("<rect").skip(1) {
                    let kind = ActivityKind::ALL
                        .iter()
                        .position(|&k| color(k) == attr(rect, "fill"))
                        .unwrap();
                    heights[kind] += attr(rect, "height").parse::<u64>().unwrap();
                    let x: u64 = attr(rect, "x").parse().unwrap();
                    let w: u64 = attr(rect, "width").parse().unwrap();
                    cols = Some((x, x + w - 1));
                }
                lanes.last_mut().unwrap().cells.push(DrawnCell {
                    lo,
                    hi,
                    ticks,
                    heights,
                    cols,
                });
            } else if line.starts_with("<rect x=") && line.ends_with(" ticks</title></rect>") {
                let title = &line[line.find("<title>").unwrap() + 7..line.len() - 21];
                let (label, se) = title.split_once(": ").unwrap();
                let (s, e) = range(se);
                lanes.last_mut().unwrap().rects.push((kind_of(label), s, e));
            }
        }
        lanes
    }

    /// Each kind's ticks of `lane` as `t` draws it inside `[lo, hi)`, by
    /// a plain scan.
    fn scan(t: &Timeline, lane: &Lane, lo: u64, hi: u64) -> [u64; 4] {
        let mut ticks = [0; 4];
        for seg in t.drawn(lane) {
            let (s, e) = (seg.start_tb.max(lo), seg.end_tb.min(hi));
            if s < e {
                ticks[seg.kind.index()] += e - s;
            }
        }
        ticks
    }

    /// The exactness property: every cell's ticks equal a scan of its
    /// lane over the cell's range, the rects and cells together hold
    /// each kind's exact total, and a lane writes at most one cell per
    /// pixel column. A cell draws over exactly the columns its ticks
    /// fall in, no taller than the lane, and only kinds it has ticks of.
    fn assert_exact(t: &Timeline, opts: &SvgOptions, svg: &str) {
        let lanes = drawn(svg);
        assert_eq!(lanes.len(), t.lanes.len());
        for (lane, d) in t.lanes.iter().zip(&lanes) {
            let mut total = [0; 4];
            let mut prev_hi = t.start_tb;
            for cell in &d.cells {
                let (lo, hi) = (cell.lo, cell.hi);
                assert!(prev_hi <= lo && lo < hi, "cell {lo}..{hi} after {prev_hi}");
                assert_eq!(
                    cell.ticks,
                    scan(t, lane, lo, hi),
                    "cell {lo}..{hi} of {}",
                    lane.label
                );
                if let Some((x0, x1)) = cell.cols {
                    let g = u64::from(opts.gutter);
                    let want = (column(t, opts, lo), column(t, opts, hi - 1));
                    assert_eq!((x0 - g, x1 - g), want, "columns of cell {lo}..{hi}");
                    // Every column the cell covers draws its stack.
                    for c in want.0..=want.1 {
                        let (a, b) = (column_start(t, opts, c), column_start(t, opts, c + 1));
                        let ticks = scan(t, lane, lo.max(a), hi.min(b));
                        assert_eq!(
                            stack_heights(ticks, b - a, opts.lane_height),
                            cell.heights,
                            "column {c} of cell {lo}..{hi}"
                        );
                    }
                }
                assert!(cell.heights.iter().sum::<u64>() <= opts.lane_height.into());
                for (h, n) in cell.heights.iter().zip(cell.ticks) {
                    assert!(*h == 0 || n > 0, "cell {lo}..{hi} draws a kind it lacks");
                }
                prev_hi = hi;
                for (sum, n) in total.iter_mut().zip(cell.ticks) {
                    *sum += n;
                }
            }
            for &(kind, s, e) in &d.rects {
                total[kind] += e - s;
            }
            assert_eq!(total, scan(t, lane, 0, u64::MAX), "lane {}", lane.label);
            assert!(d.cells.len() <= opts.width as usize);
        }
    }

    /// True when no pixel column holds two segments narrower than a
    /// pixel, counting each segment in every column one of its ticks
    /// (or, empty, its start) falls in.
    fn no_column_shared(t: &Timeline, opts: &SvgOptions) -> bool {
        if opts.width == 0 {
            return true;
        }
        let col = |tb: u64| column(t, opts, tb);
        let px = |tb: u64| {
            opts.gutter as f64 + (tb - t.start_tb) as f64 / t.span() as f64 * opts.width as f64
        };
        t.lanes.iter().all(|lane| {
            let mut held = std::collections::HashMap::new();
            t.drawn(lane)
                .filter(|s| px(s.end_tb) - px(s.start_tb) < 1.0)
                .flat_map(|s| col(s.start_tb)..=col(s.end_tb.max(s.start_tb + 1) - 1))
                .all(|c| {
                    let n = held.entry(c).or_insert(0);
                    *n += 1;
                    *n == 1
                })
        })
    }

    fn check(t: &Timeline, opts: &SvgOptions) {
        let svg = render(t, opts);
        assert_exact(t, opts, &svg);
        if no_column_shared(t, opts) {
            assert_eq!(svg, unfolded_svg(t, opts));
        }
    }

    fn seg(start_tb: u64, end_tb: u64, kind: usize) -> Interval {
        Interval {
            start_tb,
            end_tb,
            kind: ActivityKind::ALL[kind],
        }
    }

    fn lane(intervals: &[Interval]) -> Lane<'_> {
        Lane {
            label: "SPE0".into(),
            core: TraceCore::Spe(0),
            intervals,
            markers: Vec::new(),
        }
    }

    /// A lane of `(kind, length, gap before)` triples laid end to end
    /// from `start`.
    fn tile(start: u64, parts: &[(usize, u64, u64)]) -> Vec<Interval> {
        let mut t = start;
        parts
            .iter()
            .map(|&(kind, len, gap)| {
                t += gap;
                t += len;
                seg(t - len, t, kind)
            })
            .collect()
    }

    #[test]
    fn old_emitter_oracle_matches_when_nothing_folds() {
        let opts = SvgOptions::default();
        // Wide segments, with lone narrow ones between them.
        let segments = tile(
            0,
            &[
                (0, 3000, 0),
                (1, 2, 0),
                (0, 3000, 0),
                (2, 5, 0),
                (3, 3993, 0),
            ],
        );
        let t = Timeline {
            start_tb: 0,
            end_tb: 10_000,
            lanes: vec![lane(&segments)],
        };
        assert!(no_column_shared(&t, &opts));
        assert_eq!(render(&t, &opts), unfolded_svg(&t, &opts));
        assert_eq!(render(&timeline(), &opts), unfolded_svg(&timeline(), &opts));
        // Two narrow segments that meet on a column boundary share no
        // column, so neither folds.
        let opts = SvgOptions {
            width: 10,
            ..SvgOptions::default()
        };
        let segments = tile(0, &[(0, 450, 0), (1, 50, 0), (2, 50, 0), (0, 450, 0)]);
        let t = Timeline {
            start_tb: 0,
            end_tb: 1000,
            lanes: vec![lane(&segments)],
        };
        assert!(no_column_shared(&t, &opts));
        assert_eq!(render(&t, &opts), unfolded_svg(&t, &opts));
    }

    #[test]
    fn narrow_runs_fold_into_one_cell_per_column() {
        let opts = SvgOptions {
            width: 10,
            ..SvgOptions::default()
        };
        // 1000 ticks over 10 px: 100 ticks a column. Alternating 10-tick
        // compute and dma-wait segments draw one 50/50 stack throughout.
        let parts: Vec<_> = (0..100).map(|i| (i % 2, 10, 0)).collect();
        let segments = tile(0, &parts);
        let t = Timeline {
            start_tb: 0,
            end_tb: 1000,
            lanes: vec![lane(&segments)],
        };
        let svg = render(&t, &opts);
        assert_exact(&t, &opts, &svg);
        assert!(!no_column_shared(&t, &opts));
        assert_eq!(svg.matches("<g>").count(), 1, "{svg}");
        assert!(svg.contains(
            r##"<g><title>0..1000 ticks: compute 500, dma-wait 500</title><rect x="140" y="33" width="10" height="11" fill="#4caf50"/><rect x="140" y="22" width="10" height="11" fill="#e53935"/></g>"##
        ), "{svg}");
    }

    #[test]
    fn partly_covered_columns_draw_shorter_stacks() {
        let opts = SvgOptions {
            width: 10,
            ..SvgOptions::default()
        };
        // A wide compute segment ends a quarter into column 2; narrow
        // ones fill the rest of that column and all of column 3.
        let mut parts = vec![(0, 225, 0)];
        parts.extend((0..7).map(|i| (1 + i % 2, 25, 0)));
        let segments = tile(0, &parts);
        let t = Timeline {
            start_tb: 0,
            end_tb: 1000,
            lanes: vec![lane(&segments)],
        };
        let svg = render(&t, &opts);
        assert_exact(&t, &opts, &svg);
        let d = drawn(&svg);
        assert_eq!(d[0].rects, vec![(0, 0, 225)]);
        let cells: Vec<_> = d[0]
            .cells
            .iter()
            .map(|c| (c.lo, c.hi, c.ticks, c.heights, c.cols))
            .collect();
        // Column 2 is three quarters the run's: 75 ticks of 100 draw
        // 17 of the lane's 22 px.
        assert_eq!(
            cells,
            vec![
                (225, 300, [0, 50, 25, 0], [0, 11, 6, 0], Some((142, 142))),
                (300, 400, [0, 50, 50, 0], [0, 11, 11, 0], Some((143, 143)))
            ]
        );
    }

    #[test]
    fn column_products_past_u64_fold_exactly() {
        // 3000 segments of 2^49 ticks: a span near 2^60.6, so `c·span`
        // overflows `u64` from column 11 on, with about three segments
        // a column at 960 px.
        let parts: Vec<_> = (0..3000).map(|i| (i % 3, 1 << 49, 0)).collect();
        let segments = tile(7, &parts);
        let t = Timeline {
            start_tb: 7,
            end_tb: segments.last().unwrap().end_tb,
            lanes: vec![lane(&segments)],
        };
        let opts = SvgOptions::default();
        assert!(t.span().checked_mul(11).is_none());
        let svg = render(&t, &opts);
        assert_exact(&t, &opts, &svg);
        assert_eq!(drawn(&svg)[0].cells.last().unwrap().hi, t.end_tb);
    }

    #[test]
    fn axis_labels_past_u64_products_are_exact() {
        // A span of 2^63 + 2^62 ticks: `span * i` overflows `u64` from
        // the third tick on.
        let parts = [(0, 1 << 63, 0), (1, 1 << 62, 0)];
        let segments = tile(5, &parts);
        let t = Timeline {
            start_tb: 5,
            end_tb: segments.last().unwrap().end_tb,
            lanes: vec![lane(&segments)],
        };
        assert!(t.span() > 1 << 61);
        let svg = render(&t, &SvgOptions::default());
        let labels: Vec<u64> = svg
            .split("fill=\"#666\">")
            .skip(1)
            .map(|rest| rest.split('<').next().unwrap().parse().unwrap())
            .collect();
        let span = u128::from(t.span());
        let want: Vec<u64> = (0..=8u128).map(|i| 5 + (span * i / 8) as u64).collect();
        assert_eq!(labels, want);
        assert_eq!(labels[8], t.end_tb);
    }

    /// A timeline's bounds and lanes, owned, for a strategy to return.
    #[derive(Debug, Clone)]
    struct Owned {
        start_tb: u64,
        end_tb: u64,
        lanes: Vec<Vec<Interval>>,
    }

    impl Owned {
        fn view(&self) -> Timeline<'_> {
            Timeline {
                start_tb: self.start_tb,
                end_tb: self.end_tb,
                lanes: self.lanes.iter().map(|l| lane(l)).collect(),
            }
        }
    }

    fn arb_timeline() -> impl Strategy<Value = (Owned, SvgOptions)> {
        let part = || {
            (
                0usize..4,
                prop_oneof![0u64..3, 0u64..40, 0u64..4000],
                prop_oneof![Just(0u64), Just(0u64), 0u64..200],
            )
        };
        (
            prop_oneof![Just(0u32), Just(1u32), 2u32..40, 40u32..1500],
            prop::collection::vec(
                prop_oneof![
                    prop::collection::vec(part(), 0..8),
                    prop::collection::vec(part(), 0..120)
                ],
                1..4,
            ),
            0u64..1_000_000,
            any::<bool>(),
            prop_oneof![Just(None), (any::<u64>(), any::<u64>()).prop_map(Some)],
        )
            .prop_map(|(width, lanes, start, zero_span, window)| {
                let mut lanes: Vec<Vec<Interval>> = lanes
                    .into_iter()
                    .map(|parts| {
                        let parts: Vec<_> = parts
                            .into_iter()
                            .map(|(k, len, gap)| (k, if zero_span { 0 } else { len }, gap))
                            .collect();
                        tile(start, &parts)
                    })
                    .collect();
                let end = if zero_span {
                    start
                } else {
                    lanes
                        .iter()
                        .flatten()
                        .map(|s| s.end_tb)
                        .max()
                        .unwrap_or(start)
                };
                let (start_tb, end_tb) = match window {
                    None => (start, end),
                    // A window as `clip_lane` cuts one: inverted and
                    // past-the-end windows included.
                    Some((a, b)) => {
                        let room = end - start + 2;
                        let (t0, t1) = (start + a % room, start + b % room);
                        let e = t1.min(end).max(t0);
                        for segs in &mut lanes {
                            *segs = segs
                                .iter()
                                .filter(|s| s.end_tb > t0 && s.start_tb < e)
                                .map(|s| seg(s.start_tb.max(t0), s.end_tb.min(e), s.kind.index()))
                                .collect();
                        }
                        (t0, t1.max(t0))
                    }
                };
                let timeline = Owned {
                    start_tb,
                    end_tb,
                    lanes,
                };
                let opts = SvgOptions {
                    width,
                    ..SvgOptions::default()
                };
                (timeline, opts)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn folded_cells_hold_exact_ticks((t, opts) in arb_timeline()) {
            check(&t.view(), &opts);
        }

        /// Along any rising run of ticks, the cursor names the column
        /// and column bounds that `Columns::of` and
        /// `Columns::first_tick` compute, spans near `u64::MAX` (whose
        /// products need `u128`) and one-column plots included.
        #[test]
        fn cursor_follows_the_column_formulas(
            start in prop_oneof![Just(0u64), any::<u64>()],
            span in prop_oneof![1u64..2000, any::<u64>(), (u64::MAX - 1000)..=u64::MAX],
            width in prop_oneof![Just(1u64), 2u64..64, 64u64..5000],
            steps in prop::collection::vec((0u8..4, any::<u64>()), 1..200),
        ) {
            let span = span.max(1);
            let start = start.min(u64::MAX - span);
            // The cursor as `write_svg` starts it, in column 0.
            let hi = start.saturating_add(span.div_ceil(width));
            let cols = Columns { start, span, width, c: 0, lo: start, hi };
            prop_assert_eq!(hi, cols.first_tick(1));
            let end = start + span;
            let mut cur = cols;
            let mut t = start;
            for (kind, r) in steps {
                let step = match kind {
                    0 => r % 3,
                    1 => r % (span / width).max(2),
                    2 => r % (span / 8 + 1),
                    _ => 0,
                };
                t = t.saturating_add(step).min(end);
                let c = cur.seek(t);
                prop_assert_eq!(c, cols.of(t), "tick {}", t);
                prop_assert_eq!(cur.lo, cols.first_tick(c));
                prop_assert_eq!(cur.hi, cols.first_tick(c + 1));
            }
        }
    }

    #[test]
    fn golden_timelines_fold_exactly() {
        use crate::report::{RenderOptions, ReportKind};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pdt"))
            .collect();
        names.sort();
        assert!(names.len() >= 7, "goldens under {}", dir.display());
        for path in names {
            let file = pdt::TraceFile::read_from(&path).unwrap();
            let a = crate::session::Analysis::of(&file).run().unwrap();
            let (s, e) = (a.timeline().start_tb, a.timeline().end_tb);
            let windows = [None, Some((s + (e - s) / 3, s + (e - s) / 2)), Some((e, s))];
            for width in [960, 97, 8, 1] {
                let svg_opts = SvgOptions {
                    width,
                    ..SvgOptions::default()
                };
                for window in windows {
                    let mut opts = RenderOptions::default().with_svg(svg_opts);
                    let t = match window {
                        None => a.timeline(),
                        Some((t0, t1)) => {
                            opts = opts.with_window(t0, t1);
                            a.timeline_window(t0, t1)
                        }
                    };
                    let svg = a.render(ReportKind::Svg, &opts);
                    assert_exact(&t, &svg_opts, &svg);
                    if no_column_shared(&t, &svg_opts) {
                        assert_eq!(svg, unfolded_svg(&t, &svg_opts), "{}", path.display());
                    }
                }
            }
        }
    }
}
