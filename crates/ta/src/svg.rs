//! SVG rendering of timelines — the reproduction of the Trace
//! Analyzer's Gantt view.

use std::fmt::Write as _;

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

/// Appends `x` formatted exactly as `format!("{x:.1}")` does. The
/// fast path rounds the exact binary value to tenths in integer
/// arithmetic (ties to even, like `core::fmt`); values outside
/// `[+0, 2^32)` and non-finite values take the `core::fmt` path.
fn push_1dp(out: &mut String, x: f64) {
    if !(x.is_sign_positive() && x < 4_294_967_296.0) {
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
    let _ = write!(out, "{}.{}", tenths / 10, tenths % 10);
}

/// Renders a timeline to an SVG document string. Front door:
/// [`Analysis::render`](crate::session::Analysis::render) with
/// [`ReportKind::Svg`](crate::report::ReportKind::Svg).
///
/// Elements are formatted straight into the output (writing to a
/// `String` cannot fail, so the `fmt::Result`s are ignored).
pub(crate) fn render_svg_impl(timeline: &Timeline, opts: &SvgOptions) -> String {
    let n = timeline.lanes.len() as u32;
    let axis_h = 28u32;
    let legend_h = 22u32;
    let height = n * (opts.lane_height + opts.lane_gap) + axis_h + legend_h + 10;
    let total_w = opts.gutter + opts.width + 20;
    let span = timeline.span() as f64;
    let x_of = |tb: u64| -> f64 {
        opts.gutter as f64 + (tb - timeline.start_tb) as f64 / span * opts.width as f64
    };

    let mut svg = String::with_capacity(4096);
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{height}" font-family="monospace" font-size="11">"#
    );
    let _ = writeln!(
        svg,
        r##"<rect width="{total_w}" height="{height}" fill="#ffffff"/>"##
    );

    // Lanes. Coordinates are formatted once into scratch strings.
    let (mut x, mut w) = (String::new(), String::new());
    for (i, lane) in timeline.lanes.iter().enumerate() {
        svg.reserve(256 + lane.segments.len() * 112 + lane.markers.len() * 128);
        let y = legend_h + i as u32 * (opts.lane_height + opts.lane_gap);
        let _ = writeln!(
            svg,
            r##"<text x="4" y="{}" fill="#333">{}</text>"##,
            y + opts.lane_height / 2 + 4,
            escape(&lane.label)
        );
        // Lane background.
        let _ = writeln!(
            svg,
            r##"<rect x="{}" y="{y}" width="{}" height="{}" fill="#f2f2f2"/>"##,
            opts.gutter, opts.width, opts.lane_height
        );
        for seg in &lane.segments {
            let x0 = x_of(seg.start_tb);
            let x1 = x_of(seg.end_tb);
            x.clear();
            push_1dp(&mut x, x0);
            w.clear();
            push_1dp(&mut w, (x1 - x0).max(0.5));
            let _ = writeln!(
                svg,
                r#"<rect x="{x}" y="{y}" width="{w}" height="{}" fill="{}"><title>{}: {}..{} ticks</title></rect>"#,
                opts.lane_height,
                color(seg.kind),
                seg.kind.label(),
                seg.start_tb,
                seg.end_tb,
            );
        }
        for m in &lane.markers {
            x.clear();
            push_1dp(&mut x, x_of(m.time_tb));
            let _ = writeln!(
                svg,
                r##"<line x1="{x}" y1="{y}" x2="{x}" y2="{}" stroke="#1565c0" stroke-width="1"><title>{} @ {} ticks</title></line>"##,
                y + opts.lane_height,
                m.code.name(),
                m.time_tb,
            );
        }
    }

    // Time axis with ~8 ticks.
    let axis_y = legend_h + n * (opts.lane_height + opts.lane_gap) + 12;
    let _ = writeln!(
        svg,
        r##"<line x1="{}" y1="{axis_y}" x2="{}" y2="{axis_y}" stroke="#999"/>"##,
        opts.gutter,
        opts.gutter + opts.width
    );
    for i in 0..=8u64 {
        let tb = timeline.start_tb + timeline.span() * i / 8;
        let x = x_of(tb);
        let _ = writeln!(
            svg,
            r##"<line x1="{x:.1}" y1="{axis_y}" x2="{x:.1}" y2="{}" stroke="#999"/><text x="{x:.1}" y="{}" text-anchor="middle" fill="#666">{tb}</text>"##,
            axis_y + 4,
            axis_y + 15,
        );
    }

    // Legend.
    let mut lx = opts.gutter;
    for kind in [
        ActivityKind::Compute,
        ActivityKind::DmaWait,
        ActivityKind::MboxWait,
        ActivityKind::SignalWait,
    ] {
        let _ = writeln!(
            svg,
            r##"<rect x="{lx}" y="4" width="12" height="12" fill="{}"/><text x="{}" y="14" fill="#333">{}</text>"##,
            color(kind),
            lx + 16,
            kind.label()
        );
        lx += 110;
    }

    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Lane, Marker, Segment};
    use pdt::{EventCode, TraceCore};

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
        let svg = render_svg_impl(&timeline(), &SvgOptions::default());
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
        let svg = render_svg_impl(&timeline(), &opts);
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
            let mut got = String::new();
            push_1dp(&mut got, x);
            assert_eq!(got, format!("{x:.1}"), "{x:e}");
        }
    }

    #[test]
    fn empty_timeline_renders_without_panic() {
        let t = Timeline {
            start_tb: 0,
            end_tb: 0,
            lanes: vec![],
        };
        let svg = render_svg_impl(&t, &SvgOptions::default());
        assert!(svg.contains("</svg>"));
    }
}
