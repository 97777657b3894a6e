//! Trace-volume smoke gate: `volume_smoke [EVENTS]`.
//!
//! Guards the v2 container's reason to exist — smaller traces that
//! still decode fast in bounded memory — exiting nonzero on the first
//! violation so `scripts/check.sh` can run it as a tier-1 gate:
//!
//! - **Density is fatal.** Packing the dense goldens (`stream.pdt`,
//!   `pipeline.pdt`) at the default block size must cost at most
//!   6 bytes/event against 16 for a raw minimal record, and the
//!   ≥10M-event synthetic must hit the same target.
//! - **Memory is fatal.** The synthetic is written through
//!   [`V2Writer`] to a temp file and decoded from the file through a
//!   file-backed [`ta::V2Trace`], whose decode shards each read their
//!   stream one block at a time, so the image is never held whole;
//!   peak RSS (`VmHWM`) must stay under a fixed budget, and the decoded
//!   in-memory store ([`ColumnarTrace::bytes_in_memory`](ta::ColumnarTrace::bytes_in_memory)) must stay at
//!   or under 100 B/event, so the decode path can never regress into
//!   buffering the whole image or fattening the columns. Each stream
//!   decodes into a run that the one-shot placement copies into the
//!   store, freeing each run as it is copied, so the peak sits near the
//!   final store.
//! - **Throughput is fatal** (release builds). The file-backed decode
//!   and the in-memory decode of the same image must each clear 3x the
//!   pre-direct-path baseline of 1,233,175 events/s: the
//!   direct-to-columns decoder's reason to exist.
//! - **Reads are fatal.** A window over ~1% of the trace span, queried
//!   on the file, may decode at most 5% of the blocks and read at most
//!   5% of the file's bytes ([`ta::reader::bytes_read`], the container
//!   walk included).
//! - **Drift is fatal.** If a previous `BENCH_volume.json` exists, any
//!   bytes/event figure more than 5% worse than the recorded one fails
//!   the gate (the codec is deterministic, so this never flakes).
//!
//! When the measured 10M-event rates project the 100M-event point to
//! fit a fixed wall-clock budget (release builds only), the gate also
//! writes 100M events through [`V2Writer`] **to disk** and decodes the
//! file through a file-backed [`ta::V2Trace`] — the full-scale point
//! must clear the same RSS budget, proving the container + slim store
//! hold a 100M-event session under 2 GiB.
//!
//! Event counts come from the columnar store, never from the
//! materialized row view — rows would triple the footprint and turn
//! the RSS gate into a measurement of the test harness.
//!
//! Decode throughput (events/s) is measured and recorded for the perf
//! trajectory. Emits `BENCH_volume.json` at the repo root.

use std::fs::File;
use std::io::{self, Seek, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bench::{peak_rss_kb, repo_root, write_bench_json, BenchRecord};
use pdt::v2::V2Writer;
use pdt::{
    pack, EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, DEFAULT_BLOCK_RECORDS, VERSION,
};
use ta::reader::bytes_read;
use ta::{Analysis, Parallelism, V2Trace};

/// Dense traces must pack to at most this many bytes per event
/// (a raw minimal record is 16).
const DENSE_MAX_BYTES_PER_EVENT: f64 = 6.0;

/// Goldens dense enough for the absolute density gate; the others
/// (tiny or gap-ridden) are reported but not gated, since fixed
/// per-stream overhead dominates a 130-record trace.
const DENSE_GOLDEN: [&str; 2] = ["stream.pdt", "pipeline.pdt"];

const GOLDEN: [&str; 5] = [
    "matmul.pdt",
    "stream.pdt",
    "pipeline.pdt",
    "stream_faulted.pdt",
    "stream_racy.pdt",
];

/// Peak-RSS ceiling for the whole run, including the 100M-event point
/// when it fires: the slim columnar store costs ~19 B/event resident
/// (~1.8 GiB at 100M), and placement frees each decoded run column as
/// it copies it into the store, so the full-scale session fits.
const RSS_BUDGET_MIB: u64 = 2048;

/// Ceiling on the decoded store's resident bytes per event
/// ([`ta::ColumnarTrace::bytes_in_memory`] over the column count).
/// The slim store sits near 19; 100 catches a regression to anything
/// row-shaped without flaking on allocator rounding.
const MEM_MAX_BYTES_PER_EVENT: f64 = 100.0;

/// The last events/s figure the v1-roundtrip path recorded before the
/// direct-to-columns decoder landed (BENCH_volume.json history).
const ROUNDTRIP_BASELINE_EVPS: f64 = 1_233_175.0;

/// Decode floor (release builds), in memory and file-backed alike:
/// the headline acceptance figure for the direct path.
const MIN_ONESHOT_EVPS: f64 = 3.0 * ROUNDTRIP_BASELINE_EVPS;

/// The most of the file a 1% window may read, container walk included.
const WINDOW_MAX_READ_FRACTION: f64 = 0.05;

/// The full-scale point.
const BIG_EVENTS: usize = 100_000_000;

/// Wall-clock budget for the 100M-event point (write + decode),
/// projected from the measured 10M rates before committing to it.
const BIG_TIME_BUDGET_S: f64 = 180.0;

/// Worse-than-recorded tolerance for deterministic volume figures.
const MAX_REGRESSION: f64 = 0.05;

/// Writes a ≥`events`-event synthetic trace straight through the
/// streaming [`V2Writer`] into `sink` — it never exists as a raw v1
/// byte buffer. Returns the sink, the event count and the raw
/// (v1-equivalent) byte size.
fn write_synthetic<W: Write + Seek>(sink: W, events: usize) -> io::Result<(W, usize, u64)> {
    let spes: u8 = 8;
    let header = TraceHeader {
        version: VERSION,
        num_ppe_threads: 1,
        num_spes: spes,
        core_hz: 3_200_000_000,
        timebase_divider: 120,
        dec_start: u32::MAX,
        group_mask: u32::MAX,
        spe_buffer_bytes: 2048,
    };
    let mut w = V2Writer::new(sink, header, DEFAULT_BLOCK_RECORDS)?;
    let mut total = 0usize;
    let mut raw = 0u64;

    // PPE stream first: one sync anchor per SPE.
    w.begin_stream(TraceCore::Ppe(0), 0)?;
    for spe in 0..spes {
        let rec = TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: 100 + u64::from(spe),
            params: vec![u64::from(spe), u64::from(spe), u64::from(u32::MAX)],
        };
        raw += 16 + 8 * rec.params.len() as u64;
        w.push(&rec)?;
        total += 1;
    }
    w.end_stream()?;

    // SPE streams: a DMA/wait burst every 16 records, user markers in
    // between — varying deltas and params so compression is honest.
    let per_spe = events / spes as usize + 1;
    for spe in 0..spes {
        w.begin_stream(TraceCore::Spe(spe), 0)?;
        let mut dec: u32 = u32::MAX;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ u64::from(spe);
        for k in 0..per_spe {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            dec = dec.wrapping_sub(20 + ((x >> 33) % 200) as u32);
            let (code, params) = match k % 16 {
                0 => (
                    EventCode::SpeDmaGet,
                    vec![
                        0x1000 + (k as u64 % 64) * 4096,
                        0x10_0000,
                        4096,
                        k as u64 % 16,
                    ],
                ),
                1 => (EventCode::SpeTagWaitBegin, vec![1 << (k % 16), 0]),
                2 => (EventCode::SpeTagWaitEnd, vec![1 << ((k - 1) % 16)]),
                _ => (EventCode::SpeUser, vec![(x >> 40) % 50]),
            };
            let rec = TraceRecord {
                core: TraceCore::Spe(spe),
                code,
                timestamp: u64::from(dec),
                params,
            };
            raw += 16 + 8 * rec.params.len() as u64;
            w.push(&rec)?;
            total += 1;
        }
        w.end_stream()?;
    }
    let sink = w.finish(
        &(0..u32::from(spes))
            .map(|c| (c, format!("vol{c}")))
            .collect::<Vec<_>>(),
    )?;
    Ok((sink, total, raw))
}

/// Bytes/event of each golden packed at the default block size.
fn golden_density() -> Result<Vec<(&'static str, f64)>, String> {
    let dir = repo_root().join("tests/golden");
    let mut out = Vec::new();
    for name in GOLDEN {
        let path = dir.join(name);
        let trace = TraceFile::read_from(&path).map_err(|e| format!("{name}: {e}"))?;
        let records: usize = trace.streams.iter().map(|s| s.bytes.len() / 16).sum();
        let packed = pack(&trace, DEFAULT_BLOCK_RECORDS).len();
        out.push((name, packed as f64 / records as f64));
    }
    Ok(out)
}

/// Pulls `"key": <number>` out of a previous `BENCH_volume.json` —
/// enough of a parser for the flat meta object this tool writes.
fn prior_metric(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))?;
    let rest = &json[at + key.len() + 3..];
    let num: String = rest
        .chars()
        .skip_while(|c| *c == ' ')
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Fails if `new` is more than 5% worse (bigger) than the figure the
/// previous `BENCH_volume.json` recorded for `key`.
fn check_regression(prior: Option<&str>, key: &str, new: f64) -> Result<(), String> {
    if let Some(old) = prior.and_then(|j| prior_metric(j, key)) {
        if old > 0.0 && new > old * (1.0 + MAX_REGRESSION) {
            return Err(format!(
                "{key} regressed {old:.2} -> {new:.2} B/event (max +{:.0}%)",
                MAX_REGRESSION * 100.0
            ));
        }
    }
    Ok(())
}

/// Throughput floors only gate optimized builds; a debug run reports
/// the figure but cannot meaningfully fail it.
fn check_throughput(what: &str, evps: f64, floor: f64) -> Result<(), String> {
    if !cfg!(debug_assertions) && evps < floor {
        return Err(format!(
            "{what}: {:.2} M events/s under the {:.2} M events/s floor \
             (baseline {:.2} M, pre-direct roundtrip path)",
            evps / 1e6,
            floor / 1e6,
            ROUNDTRIP_BASELINE_EVPS / 1e6
        ));
    }
    Ok(())
}

/// A temp file path, removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!("ta-volume-{tag}-{}.pdt2", std::process::id())))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Writes a ≥`events`-event synthetic to `path`. Returns the event
/// count, the raw (v1-equivalent) byte size, the file's length and the
/// write time in ms.
fn write_file(path: &TempPath, events: usize) -> Result<(usize, u64, u64, f64), String> {
    let t = Instant::now();
    let file = File::create(&path.0).map_err(|e| e.to_string())?;
    let (file, total, raw) = write_synthetic(file, events).map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    Ok((total, raw, len, t.elapsed().as_nanos() as f64 / 1e6))
}

/// Decodes `v2` under four workers and checks the result: no corrupt
/// block, `total` events in the store, at most
/// [`MEM_MAX_BYTES_PER_EVENT`] resident. Returns the analysis, its
/// resident bytes per event, the decode time in ms and the rate.
fn decode(
    what: &str,
    v2: &V2Trace<'_>,
    total: usize,
    t: Instant,
) -> Result<(Arc<Analysis>, f64, f64, f64), String> {
    let (a, stats) = v2
        .analyze(Parallelism::Workers(4))
        .map_err(|e| format!("{what}: {e}"))?;
    let ms = t.elapsed().as_nanos() as f64 / 1e6;
    if stats.blocks_corrupt != 0 {
        return Err(format!(
            "{what}: {} corrupt blocks in a clean image",
            stats.blocks_corrupt
        ));
    }
    // Count from the columns, never the materialized rows: rows would
    // triple the footprint and corrupt the RSS measurement.
    let decoded = a.columns().events.len();
    if decoded != total {
        return Err(format!("{what}: decoded {decoded} of {total} events"));
    }
    let mem_bpe = a.columns().bytes_in_memory() as f64 / total as f64;
    if mem_bpe > MEM_MAX_BYTES_PER_EVENT {
        return Err(format!(
            "{what}: {mem_bpe:.1} B/event in memory exceeds {MEM_MAX_BYTES_PER_EVENT}"
        ));
    }
    let evps = total as f64 / (ms / 1e3);
    println!(
        "{what}: {} blocks, {total} events in {ms:.0} ms \
         ({:.2} M events/s, {mem_bpe:.1} B/event resident)",
        stats.blocks_decoded,
        evps / 1e6
    );
    check_throughput(what, evps, MIN_ONESHOT_EVPS)?;
    Ok((a, mem_bpe, ms, evps))
}

/// The 100M-event point: write the synthetic through [`V2Writer`] to
/// a temp file, decode the file through a file-backed [`V2Trace`], and
/// verify the count, the per-event memory and the RSS budget at full
/// scale. Returns `(events, write_ms, decode_ms, evps)`.
fn run_big_point() -> Result<(usize, f64, f64, f64), String> {
    let path = TempPath::new("big");
    let (total, _, _, write_ms) = write_file(&path, BIG_EVENTS)?;
    let t = Instant::now();
    let file = File::open(&path.0).map_err(|e| e.to_string())?;
    let v2 = V2Trace::read(&file).map_err(|e| e.to_string())?;
    println!("100m: {total} events written in {write_ms:.0} ms");
    let (_, _, decode_ms, evps) = decode("100m file-backed decode", &v2, total, t)?;
    Ok((total, write_ms, decode_ms, evps))
}

fn run() -> Result<(), String> {
    let events: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().map_err(|_| format!("bad size {v:?}")))
        .transpose()?
        .unwrap_or(10_000_000);
    let prior = std::fs::read_to_string(repo_root().join("BENCH_volume.json")).ok();

    // Golden density.
    let density = golden_density()?;
    for (name, bpe) in &density {
        let gated = DENSE_GOLDEN.contains(name);
        println!(
            "golden {name:<20} {bpe:.2} B/event (raw 16){}",
            if gated { "  [gated <= 6]" } else { "" }
        );
        if gated && *bpe > DENSE_MAX_BYTES_PER_EVENT {
            return Err(format!(
                "{name}: {bpe:.2} B/event exceeds the {DENSE_MAX_BYTES_PER_EVENT} B/event target"
            ));
        }
    }

    // Synthetic volume: bounded-memory write to a file, then a
    // bounded-memory decode from the file.
    let path = TempPath::new("10m");
    let (total, raw, image_len, write_ms) = write_file(&path, events)?;
    let bpe = image_len as f64 / total as f64;
    let raw_bpe = raw as f64 / total as f64;
    println!(
        "synthetic: {total} events, raw {:.1} MiB ({raw_bpe:.1} B/event) -> \
         packed {:.1} MiB ({bpe:.2} B/event, {:.2}x) in {write_ms:.0} ms",
        raw as f64 / (1 << 20) as f64,
        image_len as f64 / (1 << 20) as f64,
        raw as f64 / image_len as f64,
    );
    if total < events {
        return Err(format!("synthetic produced {total} < {events} events"));
    }
    if bpe > DENSE_MAX_BYTES_PER_EVENT {
        return Err(format!(
            "synthetic: {bpe:.2} B/event exceeds the {DENSE_MAX_BYTES_PER_EVENT} B/event target"
        ));
    }

    let t = Instant::now();
    let file = File::open(&path.0).map_err(|e| e.to_string())?;
    let v2 = V2Trace::read(&file).map_err(|e| e.to_string())?;
    let (snap, mem_bpe, decode_ms, evps) = decode("file-backed decode", &v2, total, t)?;
    let (lo, hi) = (snap.columns().start_tb(), snap.columns().end_tb());
    drop(snap);

    // The same image decoded from memory.
    let image = std::fs::read(&path.0).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let memory = V2Trace::parse(&image).map_err(|e| e.to_string())?;
    let (_, _, oneshot_ms, oneshot_evps) = decode("in-memory decode", &memory, total, t)?;
    drop(image);

    // Block-skip win: a window covering ~1% of the trace span, queried
    // on the file, must read and decode only the footer-overlapping
    // blocks, not the whole file.
    let (mid, half) = (lo + (hi - lo) / 2, (hi - lo) / 200);
    let (t, read0) = (Instant::now(), bytes_read());
    let v2 = V2Trace::read(&file).map_err(|e| e.to_string())?;
    let wq = v2
        .window_events(mid - half, mid + half)
        .map_err(|e| e.to_string())?;
    let window_ms = t.elapsed().as_nanos() as f64 / 1e6;
    let window_read = bytes_read() - read0;
    let total_blocks = v2.file().total_blocks();
    println!(
        "1% window: {} events, {} of {total_blocks} blocks decoded, \
         {window_read} of {image_len} file bytes read in {window_ms:.1} ms",
        wq.events.len(),
        wq.stats.blocks_decoded,
    );
    if wq.suspect || wq.events.is_empty() {
        return Err("1% window suspect or empty on a clean image".into());
    }
    if wq.stats.blocks_decoded * 20 > total_blocks {
        return Err(format!(
            "1% window decoded {} of {total_blocks} blocks (max 5%)",
            wq.stats.blocks_decoded
        ));
    }
    if window_read as f64 > WINDOW_MAX_READ_FRACTION * image_len as f64 {
        return Err(format!(
            "1% window read {window_read} of {image_len} file bytes (max {:.0}%)",
            WINDOW_MAX_READ_FRACTION * 100.0
        ));
    }
    let window_evps = wq.events.len() as f64 / (window_ms / 1e3);
    let window_blocks = wq.stats.blocks_decoded;
    // Free the 10M-point structures before the full-scale point so
    // its RSS high-water mark measures the 100M session alone.
    drop(wq);
    drop(v2);
    drop(file);
    drop(path);

    // The full-scale point, behind a wall-clock budget projected from
    // the measured rates (with 25% headroom): only worth the disk and
    // the minutes when the optimized decoder is actually present.
    let mut big: Option<(usize, f64, f64, f64)> = None;
    if !cfg!(debug_assertions) && events >= 1_000_000 {
        let scale = BIG_EVENTS as f64 / total as f64;
        let projected_s = (write_ms + decode_ms) * scale * 1.25 / 1e3;
        if projected_s <= BIG_TIME_BUDGET_S {
            println!(
                "100m point: projected {projected_s:.0} s fits the {BIG_TIME_BUDGET_S:.0} s budget"
            );
            big = Some(run_big_point()?);
        } else {
            println!(
                "100m point: projected {projected_s:.0} s over the {BIG_TIME_BUDGET_S:.0} s \
                 budget, skipped"
            );
        }
    }

    let rss_mib = peak_rss_kb() / 1024;
    println!("peak RSS: {rss_mib} MiB (budget {RSS_BUDGET_MIB})");
    if rss_mib > RSS_BUDGET_MIB {
        return Err(format!(
            "peak RSS {rss_mib} MiB over the {RSS_BUDGET_MIB} MiB budget"
        ));
    }

    // Deterministic figures may not drift against the recorded run.
    check_regression(prior.as_deref(), "bytes_per_event_10m", bpe)?;
    check_regression(prior.as_deref(), "mem_bytes_per_event_10m", mem_bpe)?;
    for (name, v) in &density {
        let key = format!("bytes_per_event_{}", name.trim_end_matches(".pdt"));
        check_regression(prior.as_deref(), &key, *v)?;
    }

    let mut records = vec![
        BenchRecord {
            name: "volume_file_10m".into(),
            events_per_sec: evps,
            wall_ms: decode_ms,
            threads: 4,
        },
        BenchRecord {
            name: "volume_memory_10m".into(),
            events_per_sec: oneshot_evps,
            wall_ms: oneshot_ms,
            threads: 4,
        },
        BenchRecord {
            name: "volume_window_1pct".into(),
            events_per_sec: window_evps,
            wall_ms: window_ms,
            threads: 1,
        },
    ];
    let mut meta: Vec<(String, f64)> = vec![
        ("events_10m".into(), total as f64),
        ("image_bytes_10m".into(), image_len as f64),
        ("raw_bytes_10m".into(), raw as f64),
        ("bytes_per_event_10m".into(), bpe),
        ("raw_bytes_per_event_10m".into(), raw_bpe),
        ("mem_bytes_per_event_10m".into(), mem_bpe),
        ("write_ms_10m".into(), write_ms),
        ("peak_rss_mib".into(), rss_mib as f64),
        ("window_blocks_decoded".into(), window_blocks as f64),
        ("window_bytes_read".into(), window_read as f64),
        ("total_blocks".into(), total_blocks as f64),
    ];
    if let Some((big_total, big_write_ms, big_decode_ms, big_evps)) = big {
        records.push(BenchRecord {
            name: "volume_file_100m".into(),
            events_per_sec: big_evps,
            wall_ms: big_decode_ms,
            threads: 4,
        });
        meta.push(("events_100m".into(), big_total as f64));
        meta.push(("write_ms_100m".into(), big_write_ms));
    }
    for (name, v) in &density {
        meta.push((
            format!("bytes_per_event_{}", name.trim_end_matches(".pdt")),
            *v,
        ));
    }
    let meta_refs: Vec<(&str, f64)> = meta.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let path =
        write_bench_json("BENCH_volume.json", &records, &meta_refs).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    // The 100M-event point stays under the RSS budget because
    // placement (`EventColumns::extend_core`, called by the one-shot
    // placement the v2 reader shares) frees each decoded run column
    // as soon as it is copied into the store — which only returns
    // memory to the OS if those multi-MiB buffers were mmap'd.
    // glibc's *dynamic* mmap threshold defeats that: once an earlier
    // phase frees an mmap'd block, the threshold rises past the run
    // size and the runs land on the main heap, where frees shrink
    // nothing (observed: +1.5 GiB peak). Pinning the threshold via
    // glibc's documented env knob (read before main, hence the one-time
    // re-exec) disables the dynamic adjustment; on other allocators the
    // variable is inert and the child runs identically.
    const THRESHOLD_VAR: &str = "MALLOC_MMAP_THRESHOLD_";
    if std::env::var_os(THRESHOLD_VAR).is_none() {
        if let Ok(exe) = std::env::current_exe() {
            if let Ok(status) = std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env(THRESHOLD_VAR, "1048576")
                .status()
            {
                return if status.success() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
        }
        // Re-exec unavailable: run in-process with default behavior.
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("volume_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
