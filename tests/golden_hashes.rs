//! Byte-identity pins for the analyzer's answers on every golden: FNV-1a
//! hashes of the summary report, the middle-1% window summary and the
//! default SVG timeline, for both the `.pdt` and the `.pdt2` form of
//! each trace. The pins were taken from the row-decoding analyzer that
//! the one-shot columnar ingest replaced, so they hold the ingest to
//! the exact answers it inherited. A second table pins the HTML report
//! and the SVG timeline of the middle-1% window, taken from the
//! `String`-building exporters that the streaming ones replaced. A
//! third table pins the answers that read the global event order: the
//! events CSV, the SARIF lint report, the event listings of the
//! middle-1% window and of one core, and the causality and phases
//! text, taken from the store that kept its events globally sorted.
//!
//! Print the current hashes with
//! `cargo test --test golden_hashes -- --ignored --nocapture`.

use std::sync::Arc;

use pdt::TraceCore;
use ta::{analyze_v2, Analysis, EventFilter, GlobalEvent, Parallelism, RenderOptions, ReportKind};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_v2_bytes, GOLDEN};

/// `(trace, summary, middle-1% window summary, default SVG)` hashes,
/// shared by both containers: the `.pdt2` answers equal the `.pdt` ones.
const PINS: [(&str, u64, u64, u64); 7] = [
    (
        "matmul.pdt",
        0x9aab490b4362ed3f,
        0xfdd24436d4f2faeb,
        0x6dde7636b61c95e6,
    ),
    (
        "stream.pdt",
        0xb21c70bd6045f275,
        0x22235f0491053d74,
        0x0f260ecd21663268,
    ),
    (
        "pipeline.pdt",
        0x4bf173f5241cae27,
        0xc9fafb41beebbb45,
        0x48ac51d1e368b1b3,
    ),
    (
        "stream_faulted.pdt",
        0x6c8cd98113108d52,
        0xe794ef9e077918b3,
        0x561bed729197f020,
    ),
    (
        "stream_racy.pdt",
        0xb39b56ab614ac4b9,
        0x0ff7540897ebfcfd,
        0x9cfa18112fa336de,
    ),
    (
        "stream_mbox_sync.pdt",
        0x65448e694ce5350b,
        0xc31a26956e585445,
        0xa51968ccd204de69,
    ),
    (
        "stream_tag_hidden.pdt",
        0x2f19822fdf4e064e,
        0xdaa634cebb005269,
        0x6850066afd1079f6,
    ),
];

/// `(trace, HTML report, middle-1% window SVG)` hashes, shared by both
/// containers like [`PINS`].
const RENDER_PINS: [(&str, u64, u64); 7] = [
    ("matmul.pdt", 0x1d315234d0524aaa, 0xbdecb4e806219ebf),
    ("stream.pdt", 0x393f8e909224b075, 0xa11029eb7471f94d),
    ("pipeline.pdt", 0x626444c45d90ac6e, 0x9bdfaa1f53822067),
    ("stream_faulted.pdt", 0xfc52c22f558cd39c, 0x9a64d6ef9e4f3a8e),
    ("stream_racy.pdt", 0xa8ca062a07ad4811, 0x0cbe12ba32d88235),
    (
        "stream_mbox_sync.pdt",
        0x5990459d9724f873,
        0x676c1c956241beb4,
    ),
    (
        "stream_tag_hidden.pdt",
        0x66bc1b5640745ceb,
        0xd62e87c850462c39,
    ),
];

/// `(trace, events CSV, SARIF lint, middle-1% window listing, listing
/// of the middle 1% of events, SPE0 listing, causality text, phases
/// text)` hashes, shared by both containers like [`PINS`].
type OrderPin = (&'static str, u64, u64, u64, u64, u64, u64, u64);
const ORDER_PINS: [OrderPin; 7] = [
    (
        "matmul.pdt",
        0xfcb8575101d55c62,
        0x37b626ea272e702b,
        0xcbf29ce484222325,
        0x85188833a94e3bb3,
        0x0afb96d391a2d585,
        0xd351f5580f2113b2,
        0x4c9775dfd8a77b5c,
    ),
    (
        "stream.pdt",
        0x353b72b6b75c8000,
        0x26bf7e6040e90072,
        0xcbf29ce484222325,
        0x770267a58d40080d,
        0xb81f35c642a4f97e,
        0xb58f95b4d0eec858,
        0x4c9775dfd8a77b5c,
    ),
    (
        "pipeline.pdt",
        0xf7005d8bad992128,
        0x37b626ea272e702b,
        0xe4870b8eb63140ee,
        0x9a9a28526cb64526,
        0x8a267f6930adf07c,
        0x3102ef9c4fad2f96,
        0x4c9775dfd8a77b5c,
    ),
    (
        "stream_faulted.pdt",
        0x46652b08d09c569b,
        0xa44638a2519e42b8,
        0xcbf29ce484222325,
        0x2d2112c2d097ca32,
        0xefde7e98bb8918a8,
        0x790f62393de0bff6,
        0x4c9775dfd8a77b5c,
    ),
    (
        "stream_racy.pdt",
        0xfe7d45a63a8915b1,
        0x4f2d9126eaa258d7,
        0xe896f6ac11662835,
        0x92829f08f45173d3,
        0x5ffd0ff46388cb7c,
        0x9d06ba9a787edd62,
        0x4c9775dfd8a77b5c,
    ),
    (
        "stream_mbox_sync.pdt",
        0x5c40ec48204b9759,
        0x37b626ea272e702b,
        0xcbf29ce484222325,
        0x87dc71a0f9d915f8,
        0x3ce0e3691331bc05,
        0xac07e2cab6a18715,
        0x4c9775dfd8a77b5c,
    ),
    (
        "stream_tag_hidden.pdt",
        0x2d023b7a6d029c6b,
        0x29d2b9e9ab976438,
        0x1d9d6dca6a749577,
        0x4be66692116f2736,
        0x1f3fbdfd45d430c3,
        0x8bbdaa9623383a02,
        0x4c9775dfd8a77b5c,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The middle 1% of the span, placed the way `ta-cli query --summary`
/// callers place it.
fn middle_window(a: &Analysis) -> (u64, u64) {
    let (s, e) = (a.index().start_tb(), a.index().end_tb());
    let w = (e - s) / 100;
    let t0 = s + (e - s) / 2 - w / 2;
    (t0, t0 + w)
}

/// The three answer hashes of one session.
fn answers(a: &Analysis) -> (u64, u64, u64) {
    let (t0, t1) = middle_window(a);
    let window = format!("{:?}", a.summarize(t0, t1));
    let svg = a.render(ReportKind::Svg, &RenderOptions::default());
    (
        fnv1a(a.summary().as_bytes()),
        fnv1a(window.as_bytes()),
        fnv1a(svg.as_bytes()),
    )
}

/// The HTML report and windowed SVG hashes of one session.
fn renders(a: &Analysis) -> (u64, u64) {
    let (t0, t1) = middle_window(a);
    let html = a.render(
        ReportKind::Html,
        &RenderOptions::default().with_title("golden"),
    );
    let svg = a.render(
        ReportKind::Svg,
        &RenderOptions::default().with_window(t0, t1),
    );
    (fnv1a(html.as_bytes()), fnv1a(svg.as_bytes()))
}

/// One `ta-cli query` listing line per event.
fn listing<'a>(events: impl IntoIterator<Item = &'a GlobalEvent>) -> String {
    events
        .into_iter()
        .map(|e| {
            format!(
                "{},{},{},{:?}\n",
                e.time_tb,
                e.core,
                e.code.name(),
                e.params
            )
        })
        .collect()
}

/// The hashes of every answer that walks the global event order.
fn ordered(a: &Analysis) -> (u64, u64, u64, u64, u64, u64, u64) {
    let (t0, t1) = middle_window(a);
    // The middle 1% of the events, which is never empty (the middle 1%
    // of the time span is, on traces with idle stretches).
    let events = a.events();
    let (lo, hi) = (
        events.len() / 2 - events.len() / 200,
        events.len() / 2 + events.len() / 200,
    );
    let dense = EventFilter::new().in_window(events[lo].time_tb, events[hi].time_tb + 1);
    let csv = a.render(ReportKind::Csv, &RenderOptions::default());
    let sarif = a.lint().to_sarif();
    let window = listing(a.query(&EventFilter::new().in_window(t0, t1)));
    let dense = listing(a.query(&dense));
    let core = listing(a.query(&EventFilter::new().on_core(TraceCore::Spe(0))));
    let mut causality = format!(
        "{} provable edges violated\n",
        ta::violations(a.analyzed()).len()
    );
    for est in ta::estimate_skew(a.analyzed()) {
        causality += &format!("{est:?}\n");
    }
    for edge in a.sync_edges() {
        causality += &format!("{edge:?}\n");
    }
    let phases = format!("{:?}", a.phases());
    (
        fnv1a(csv.as_bytes()),
        fnv1a(sarif.as_bytes()),
        fnv1a(window.as_bytes()),
        fnv1a(dense.as_bytes()),
        fnv1a(core.as_bytes()),
        fnv1a(causality.as_bytes()),
        fnv1a(phases.as_bytes()),
    )
}

/// Every golden's `.pdt` and `.pdt2` sessions.
fn sessions() -> Vec<(String, Arc<Analysis>)> {
    let mut out = Vec::new();
    for name in GOLDEN {
        let a = Analysis::of(&golden(name)).run().unwrap();
        out.push((name.to_string(), Arc::new(a)));
        let (a, _) = analyze_v2(&golden_v2_bytes(name), Parallelism::Auto).unwrap();
        out.push((name.replace(".pdt", ".pdt2"), a));
    }
    out
}

#[test]
fn answers_match_the_pinned_hashes() {
    let sessions = sessions();
    assert_eq!(sessions.len(), 2 * PINS.len());
    for (name, a) in &sessions {
        let v1_name = name.trim_end_matches('2');
        let (_, summary, window, svg) = PINS
            .into_iter()
            .find(|p| p.0 == v1_name)
            .unwrap_or_else(|| panic!("{name} has no pin"));
        assert_eq!(answers(a), (summary, window, svg), "{name}");
    }
}

#[test]
fn renders_match_the_pinned_hashes() {
    let sessions = sessions();
    assert_eq!(sessions.len(), 2 * RENDER_PINS.len());
    for (name, a) in &sessions {
        let v1_name = name.trim_end_matches('2');
        let (_, html, svg) = RENDER_PINS
            .into_iter()
            .find(|p| p.0 == v1_name)
            .unwrap_or_else(|| panic!("{name} has no render pin"));
        assert_eq!(renders(a), (html, svg), "{name}");
    }
}

#[test]
fn ordered_answers_match_the_pinned_hashes() {
    let sessions = sessions();
    assert_eq!(sessions.len(), 2 * ORDER_PINS.len());
    for (name, a) in &sessions {
        let v1_name = name.trim_end_matches('2');
        let (_, csv, sarif, window, dense, core, causality, phases) = ORDER_PINS
            .into_iter()
            .find(|p| p.0 == v1_name)
            .unwrap_or_else(|| panic!("{name} has no order pin"));
        assert_eq!(
            ordered(a),
            (csv, sarif, window, dense, core, causality, phases),
            "{name}"
        );
    }
}

#[test]
#[ignore = "prints the pin tables"]
fn print_pins() {
    for (name, a) in sessions() {
        let (summary, window, svg) = answers(&a);
        println!("    ({name:?}, {summary:#018x}, {window:#018x}, {svg:#018x}),");
    }
    for (name, a) in sessions() {
        let (html, svg) = renders(&a);
        println!("    ({name:?}, {html:#018x}, {svg:#018x}),");
    }
    for (name, a) in sessions() {
        let (csv, sarif, window, dense, core, causality, phases) = ordered(&a);
        println!("    ({name:?}, {csv:#018x}, {sarif:#018x}, {window:#018x}, {dense:#018x}, {core:#018x}, {causality:#018x}, {phases:#018x}),");
    }
}
