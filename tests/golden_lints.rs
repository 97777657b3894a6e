//! Golden-trace lint suite: runs the `ta::lint` rule registry over the
//! seeded corpus in `tests/golden/` and pins the exact findings.
//!
//! `stream_racy.pdt` is generated from the deliberately broken
//! [`Buffering::RacyDouble`] stream kernel, so its defects are known by
//! construction: the prefetch GET lands in the same LS buffer as the
//! in-flight GET on a never-waited tag group, and the kernel opens
//! with a wait on an unused tag. Two further goldens pin the
//! happens-before engine's precision and recall against the old window
//! heuristic:
//!
//! - `stream_mbox_sync.pdt` — mailbox-paced, barrier-protected buffer
//!   reuse: correct code the window heuristic false-positives on; the
//!   engine must stay silent.
//! - `stream_tag_hidden.pdt` — a same-tag prefetch race the window
//!   heuristic (which only pairs differing tags) cannot see; the
//!   engine must report it.
//!
//! The clean goldens must produce zero firm (non-suspect)
//! error-severity diagnostics — including the fault-injected trace,
//! whose truncation artifacts must be downgraded to suspect rather
//! than reported firm. Every pinned report is checked on both the v1
//! `.pdt` bytes and the blocked `.pdt2` container.
//!
//! Regenerate the corpus with `cargo run -p bench --bin make_golden`.

use pdt::{TraceCore, TraceFile};
use ta::{
    dma_race_window_heuristic, Analysis, LintConfig, LintReport, Parallelism, Severity, V2Trace,
};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::golden_v2_bytes;

const CLEAN: [&str; 5] = [
    "matmul.pdt",
    "stream.pdt",
    "pipeline.pdt",
    "stream_faulted.pdt",
    "stream_mbox_sync.pdt",
];

fn golden(name: &str) -> TraceFile {
    goldens::golden(name)
}

fn analysis(name: &str) -> Analysis {
    Analysis::of(&golden(name))
        .parallelism(Parallelism::Workers(2))
        .run()
        .unwrap()
}

/// The same trace through the v2 container, for the `.pdt2` pins.
fn analysis_v2(name: &str) -> std::sync::Arc<Analysis> {
    let bytes = golden_v2_bytes(name);
    let (a, stats) = V2Trace::parse(&bytes)
        .unwrap()
        .analyze(Parallelism::Workers(2))
        .unwrap();
    assert_eq!(stats.blocks_corrupt, 0, "{name}.pdt2");
    a
}

fn assert_racy_report(report: &LintReport) {
    // The seeded race: every tag-0 GET overlaps an outstanding tag-1
    // prefetch into the same buffer. 3 blocks per SPE → 6 race pairs
    // per SPE (the happens-before engine also pairs the two unordered
    // prefetches, which share tag 1), each reported once, anchored at
    // the later issue.
    let races: Vec<_> = report.of_rule("dma-race").collect();
    assert_eq!(races.len(), 12, "{races:#?}");
    for spe in [0u8, 1] {
        let anchors: Vec<u64> = races
            .iter()
            .filter(|d| d.anchor.unwrap().core == TraceCore::Spe(spe))
            .map(|d| d.anchor.unwrap().seq)
            .collect();
        assert_eq!(anchors, [4, 10, 11, 11, 17, 17], "SPE{spe} race anchors");
    }
    for d in &races {
        assert_eq!(d.severity, Severity::Error);
        assert!(!d.suspect, "clean trace: races must be firm");
        assert_eq!(d.related.len(), 1, "each race names the other half: {d:#?}");
    }

    // The never-waited prefetch tag: one finding per (SPE, tag),
    // anchored at the first unwaited issue — the tag-1 GET at seq 4.
    let unwaited: Vec<_> = report.of_rule("unwaited-tag-group").collect();
    assert_eq!(unwaited.len(), 2, "{unwaited:#?}");
    for (d, spe) in unwaited.iter().zip([0u8, 1]) {
        let a = d.anchor.unwrap();
        assert_eq!((a.core, a.seq), (TraceCore::Spe(spe), 4));
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("tag 1"), "{}", d.message);
    }

    // The gratuitous startup wait on tag 5 (mask 0x20), seq 1 on each
    // SPE — warn severity, not a CI gate.
    let vacuous: Vec<_> = report.of_rule("wait-without-dma").collect();
    assert_eq!(vacuous.len(), 2, "{vacuous:#?}");
    for (d, spe) in vacuous.iter().zip([0u8, 1]) {
        let a = d.anchor.unwrap();
        assert_eq!((a.core, a.seq), (TraceCore::Spe(spe), 1));
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("0x20"), "{}", d.message);
    }

    // Nothing else fires, and the gate counts exactly the errors.
    assert_eq!(report.diagnostics.len(), 16, "{report:#?}");
    assert_eq!(report.firm_errors().count(), 14);
    assert!(!report.is_clean());
}

#[test]
fn racy_stream_reports_the_seeded_defects_exactly() {
    assert_racy_report(analysis("stream_racy.pdt").lint());
}

#[test]
fn racy_stream_pdt2_reports_the_same_defects() {
    assert_racy_report(analysis_v2("stream_racy.pdt").lint());
}

#[test]
fn racy_timestamps_are_pinned_to_the_golden_bytes() {
    // The corpus is committed, so reconstructed anchor times are
    // stable; pin the first race per SPE to catch silent drift in
    // timestamp reconstruction or sweep windowing.
    let a = analysis("stream_racy.pdt");
    let report = a.lint();
    let first: Vec<(TraceCore, u64, u64)> = report
        .of_rule("dma-race")
        .map(|d| d.anchor.unwrap())
        .map(|a| (a.core, a.seq, a.time_tb))
        .take(2)
        .collect();
    assert_eq!(
        first,
        [(TraceCore::Spe(0), 4, 75), (TraceCore::Spe(0), 10, 127),]
    );
}

#[test]
fn clean_goldens_produce_no_firm_errors() {
    for name in CLEAN {
        let a = analysis(name);
        let report = a.lint();
        let firm: Vec<_> = report.firm_errors().collect();
        assert!(firm.is_empty(), "{name}: {firm:#?}");
        assert!(report.is_clean(), "{name}");
    }
}

#[test]
fn faulted_stream_downgrades_truncation_artifacts_to_suspect() {
    // The fault-injected trace cuts SPE0's stream mid-flight, leaving
    // PUTs without their covering waits. Those ARE unwaited tag
    // groups on the evidence — but the loss report explains them, so
    // they must come back suspect, never firm.
    let a = analysis("stream_faulted.pdt");
    let report = a.lint();
    let unwaited: Vec<_> = report.of_rule("unwaited-tag-group").collect();
    assert!(!unwaited.is_empty(), "truncation should strand transfers");
    for d in &unwaited {
        assert_eq!(d.severity, Severity::Error);
        assert!(d.suspect, "must be downgraded: {d:#?}");
    }
    // And the downgrade is the only thing standing between the trace
    // and a gate failure.
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error));
    assert_eq!(report.firm_errors().count(), 0);
}

#[test]
fn baseline_config_suppresses_and_gates() {
    let a = analysis("stream_racy.pdt");

    // Suppress the races on SPE0 only: 6 fewer diagnostics.
    let config = LintConfig::from_toml_str(
        r#"
        [[suppress]]
        rule = "dma-race"
        core = "spe0"
        reason = "seeded on purpose; SPE0 covered by kernel review"
        "#,
    )
    .unwrap();
    let report = a.lint_with(&config);
    assert_eq!(report.suppressed, 6);
    assert_eq!(report.of_rule("dma-race").count(), 6);
    assert!(report
        .of_rule("dma-race")
        .all(|d| d.anchor.unwrap().core == TraceCore::Spe(1)));

    // Allow-listing a rule removes it from the run entirely.
    let config =
        LintConfig::from_toml_str(r#"allow = ["dma-race", "unwaited-tag-group"]"#).unwrap();
    let report = a.lint_with(&config);
    assert_eq!(report.of_rule("dma-race").count(), 0);
    assert!(!report.rules.iter().any(|r| r.id == "dma-race"));
    assert!(report.is_clean(), "only warns remain");

    // Denying a warn-level rule promotes it to a gating error.
    let config = LintConfig::from_toml_str(
        r#"
        allow = ["dma-race", "unwaited-tag-group"]
        deny = ["wait-without-dma"]
        "#,
    )
    .unwrap();
    let report = a.lint_with(&config);
    assert!(!report.is_clean());
    assert!(report
        .of_rule("wait-without-dma")
        .all(|d| d.severity == Severity::Error));
}

#[test]
fn renderers_cover_the_racy_report() {
    let a = analysis("stream_racy.pdt");
    let report = a.lint();

    let text = report.render_text();
    assert!(text.contains("error[dma-race]"));
    assert!(text.contains("14 firm error(s)"));

    let json = report.to_json();
    assert!(json.contains("\"firm_errors\":14"));
    assert!(json.contains("\"rule\":\"unwaited-tag-group\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let sarif = report.to_sarif();
    assert!(sarif.contains("\"version\":\"2.1.0\""));
    assert!(sarif.contains("\"ruleId\":\"dma-race\""));
    assert!(sarif.contains("\"name\":\"SPE0\""));
    // Every diagnostic with witness anchors (each race's partner
    // access, the unwaited group's remaining issues) carries them as
    // SARIF relatedLocations.
    assert_eq!(
        sarif.matches("\"relatedLocations\":").count(),
        report
            .diagnostics
            .iter()
            .filter(|d| !d.related.is_empty())
            .count()
    );
    assert_eq!(sarif.matches("\"relatedLocations\":").count(), 14);
    assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
}

#[test]
fn session_lint_is_memoized() {
    let a = analysis("stream_racy.pdt");
    let first: *const _ = a.lint();
    let second: *const _ = a.lint();
    assert_eq!(first, second);
}

/// The barrier-protected, mailbox-paced buffer reuse is provably
/// ordered — but its PUTs are only tag-waited at the final drain, so
/// the window heuristic sees each PUT's wait window stretch over the
/// GET that refills the same buffer and reports races that cannot
/// happen. Precision pin: the engine is silent, the heuristic is not.
#[test]
fn mbox_sync_overlaps_are_proved_synchronized() {
    for a in [
        std::sync::Arc::new(analysis("stream_mbox_sync.pdt")),
        analysis_v2("stream_mbox_sync.pdt"),
    ] {
        let report = a.lint();
        assert!(report.diagnostics.is_empty(), "{report:#?}");
        assert!(report.is_clean());

        let false_positives = dma_race_window_heuristic(a.columns());
        assert!(
            !false_positives.is_empty(),
            "the golden no longer traps the window heuristic — \
             regenerate or rework stream_mbox_sync"
        );
    }
}

fn assert_tag_hidden_report(report: &LintReport) {
    // 3 blocks per SPE, each non-final round prefetching the next
    // block into the same buffer on the same tag: 2 races per SPE,
    // anchored at the prefetch issues (seq 2 and 9).
    let races: Vec<_> = report.of_rule("dma-race").collect();
    assert_eq!(races.len(), 4, "{races:#?}");
    for spe in [0u8, 1] {
        let anchors: Vec<u64> = races
            .iter()
            .filter(|d| d.anchor.unwrap().core == TraceCore::Spe(spe))
            .map(|d| d.anchor.unwrap().seq)
            .collect();
        assert_eq!(anchors, [2, 9], "SPE{spe} race anchors");
    }
    for d in &races {
        assert_eq!(d.severity, Severity::Error);
        assert!(!d.suspect);
        assert_eq!(d.related.len(), 1);
        assert!(
            d.message.contains("same tag group"),
            "the witness must explain why the shared tag orders nothing: {}",
            d.message
        );
    }
    // The race is the only defect: every tag is waited, every wait
    // covers outstanding transfers.
    assert_eq!(report.diagnostics.len(), 4, "{report:#?}");
    assert_eq!(report.firm_errors().count(), 4);
}

/// The same-tag prefetch race: invisible to the window heuristic
/// (which only pairs transfers on differing tags), reported with a
/// full witness by the engine. Recall pin.
#[test]
fn tag_hidden_race_is_reported_despite_the_shared_tag() {
    for a in [
        std::sync::Arc::new(analysis("stream_tag_hidden.pdt")),
        analysis_v2("stream_tag_hidden.pdt"),
    ] {
        assert_tag_hidden_report(a.lint());
        assert!(
            dma_race_window_heuristic(a.columns()).is_empty(),
            "the window heuristic should still be blind to same-tag races"
        );
    }
}
