//! Shared experiment plumbing: scales, traced/untraced run pairs, and
//! table formatting.

use cellsim::MachineConfig;
use pdt::TracingConfig;
use workloads::{run_workload, Workload, WorkloadResult};

/// Experiment scale: `Quick` for CI/tests, `Full` for the published
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small problem sizes, seconds per experiment.
    Quick,
    /// Paper-scale problem sizes.
    Full,
}

impl Scale {
    /// Picks `q` for quick and `f` for full scale.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// A baseline/traced run pair of the same workload.
#[derive(Debug)]
pub struct OverheadPair {
    /// Untraced run.
    pub base: WorkloadResult,
    /// Traced run.
    pub traced: WorkloadResult,
}

impl OverheadPair {
    /// Runtime dilation `(traced - base) / base`.
    pub fn overhead(&self) -> f64 {
        let b = self.base.report.cycles as f64;
        (self.traced.report.cycles as f64 - b) / b
    }

    /// Baseline wall time in milliseconds.
    pub fn base_ms(&self) -> f64 {
        self.base.report.wall_ns / 1e6
    }

    /// Traced wall time in milliseconds.
    pub fn traced_ms(&self) -> f64 {
        self.traced.report.wall_ns / 1e6
    }
}

/// Runs `workload` untraced and traced with `tcfg`.
///
/// # Panics
///
/// Panics if either run fails — experiments are expected to be
/// well-formed.
pub fn overhead_pair(
    workload: &dyn Workload,
    mcfg: &MachineConfig,
    tcfg: TracingConfig,
) -> OverheadPair {
    let base = run_workload(workload, mcfg.clone(), None).expect("baseline run");
    let traced = run_workload(workload, mcfg.clone(), Some(tcfg)).expect("traced run");
    OverheadPair { base, traced }
}

/// A plain-text table builder with aligned columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// One benchmark measurement destined for a machine-readable
/// `BENCH_*.json` at the repo root. The schema is stable:
/// `{"name", "events_per_sec", "wall_ms", "threads"}` per record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable benchmark identifier (e.g. `products_row_serial`).
    pub name: String,
    /// Throughput in events per second over the measured span.
    pub events_per_sec: f64,
    /// Median wall time in milliseconds.
    pub wall_ms: f64,
    /// Worker threads the measurement used.
    pub threads: usize,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A metadata value with four significant digits (one decimal from
/// 1000 up), so sub-millisecond stage times do not round to zero.
fn meta_number(v: f64) -> String {
    if v == 0.0 || !v.is_finite() || v.abs() >= 1000.0 {
        return format!("{v:.1}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(1, 12) as usize;
    format!("{v:.decimals$}")
}

/// Renders records (plus free-form numeric metadata) as the
/// `BENCH_*.json` document. JSON is written by hand; the workspace
/// has no serialization dependency.
pub fn bench_json(records: &[BenchRecord], meta: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"bench-v1\",\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events_per_sec\": {:.1}, \"wall_ms\": {:.3}, \"threads\": {}}}{}\n",
            json_escape(&r.name),
            r.events_per_sec,
            r.wall_ms,
            r.threads,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{}\": {}",
            if i == 0 { "" } else { ", " },
            json_escape(k),
            meta_number(*v)
        ));
    }
    out.push_str("}\n}\n");
    out
}

/// The workspace root (two levels above the bench crate).
pub fn repo_root() -> std::path::PathBuf {
    let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    here.join("../..").canonicalize().unwrap_or(here)
}

/// Writes `BENCH_<file_name>` (records + metadata) to the repo root
/// and returns the path.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_bench_json(
    file_name: &str,
    records: &[BenchRecord],
    meta: &[(&str, f64)],
) -> std::io::Result<std::path::PathBuf> {
    let path = repo_root().join(file_name);
    std::fs::write(&path, bench_json(records, meta))?;
    Ok(path)
}

/// Reads `VmHWM` (peak resident set, kB) from `/proc/self/status` —
/// the cheap peak-RSS proxy the product benchmarks record. Returns 0
/// where procfs is unavailable.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Resets the peak-RSS mark to the current resident set (via
/// `/proc/self/clear_refs`) and returns that set in kB, so a later
/// [`peak_rss_kb`] reads the peak of what ran in between. Returns 0
/// where procfs is unavailable.
pub fn reset_peak_rss_kb() -> u64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_kb("VmRSS:")
}

/// One kB field of `/proc/self/status`, or 0.
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)
                    .and_then(|r| r.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        let csv = t.to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("longer,22"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn meta_keeps_significant_digits() {
        let doc = bench_json(
            &[],
            &[
                ("a", 0.0),
                ("b", 0.004),
                ("c", 0.0371),
                ("d", 12.3456),
                ("e", 1941.0),
            ],
        );
        assert!(
            doc.contains(r#""a": 0.0, "b": 0.004000, "c": 0.03710, "d": 12.35, "e": 1941.0"#),
            "{doc}"
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn overhead_pair_measures_dilation() {
        use workloads::{EventRateConfig, EventRateWorkload};
        let w = EventRateWorkload::new(EventRateConfig {
            events: 200,
            gap_cycles: 1000,
            spes: 1,
        });
        let p = overhead_pair(
            &w,
            &MachineConfig::default().with_num_spes(1),
            TracingConfig::default(),
        );
        assert!(p.overhead() > 0.0);
        assert!(p.traced_ms() > p.base_ms());
    }
}
