//! SVG rendering of timelines — the reproduction of the Trace
//! Analyzer's Gantt view.

use std::io::{self, Write as _};

use crate::intervals::ActivityKind;
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

/// `pre`, then `v` in decimal, then `post`: attribute text that repeats
/// on many elements, spelled once.
fn fragment(pre: &str, v: u64, post: &str) -> Vec<u8> {
    let mut f = pre.as_bytes().to_vec();
    push_u64(&mut f, v);
    f.extend_from_slice(post.as_bytes());
    f
}

/// Writes a timeline as an SVG document to `out`. Front door:
/// [`Analysis::write_report`](crate::session::Analysis::write_report)
/// with [`ReportKind::Svg`](crate::report::ReportKind::Svg).
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

        let rect_y = fragment("\" y=\"", y.into(), "\" width=\"");
        for seg in &lane.segments {
            let x0 = x_of(seg.start_tb);
            let x1 = x_of(seg.end_tb);
            o.str(r#"<rect x=""#)
                .dp1(x0)
                .bytes(&rect_y)
                .dp1((x1 - x0).max(0.5))
                .bytes(&kind_tail[seg.kind.index()])
                .u64(seg.start_tb)
                .str("..")
                .u64(seg.end_tb)
                .str(" ticks</title></rect>\n");
            o.spill()?;
        }

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
        let tb = timeline.start_tb + timeline.span() * i / 8;
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
    use crate::timeline::{Lane, Marker, Segment};
    use pdt::{EventCode, TraceCore};

    fn render(t: &Timeline, opts: &SvgOptions) -> String {
        let mut out = Vec::new();
        write_svg(t, opts, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn timeline() -> Timeline {
        Timeline {
            start_tb: 0,
            end_tb: 1000,
            lanes: vec![Lane {
                label: "SPE0 <&test>".into(),
                core: TraceCore::Spe(0),
                segments: vec![
                    Segment {
                        start_tb: 0,
                        end_tb: 400,
                        kind: ActivityKind::Compute,
                    },
                    Segment {
                        start_tb: 400,
                        end_tb: 1000,
                        kind: ActivityKind::DmaWait,
                    },
                ],
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
        let mut t = timeline();
        let seg = t.lanes[0].segments[0];
        t.lanes[0].segments = vec![seg; 4 * CHUNK / 64];
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
}
