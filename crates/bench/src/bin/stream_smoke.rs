//! Streaming-ingestion smoke gate: `stream_smoke [EVENTS_PER_SPE]`.
//!
//! Guards the incremental ingestion path two ways, exiting nonzero on
//! the first violation so `scripts/check.sh` can run it as a tier-1
//! gate:
//!
//! - **Parity is fatal.** On every golden trace, feeding the `.pdt`
//!   image to [`ta::ImageIngest`] in chunks (small and page-sized)
//!   must produce a snapshot identical to the one-shot
//!   [`Analysis::of`] in events, loss accounting, statistics and
//!   index.
//! - **Ingestion must actually be incremental.** On a synthetic trace
//!   whose SPE lanes hold thousands of intervals (125 lane checkpoints
//!   each, 1,000 in all), appending the final ~1% of each SPE stream
//!   after a snapshot, which closes more intervals on every lane, must
//!   grow the open streams' runs, not rebuild an index: the snapshot
//!   taken with the streams still open must count every one of the
//!   trace's lane checkpoints and write at most 5% of them.
//! - **A growing `.pdt` file costs O(tail) per poll.** Every clean
//!   golden and the storm trace, fed to [`ta::ImageIngest`] in 120
//!   equal appends with a snapshot and a `summarize` after each (the
//!   `ta-serve` follow loop), must rebuild the index from scratch at
//!   most once per stream directory entry, and end equal to the
//!   one-shot analysis.
//!
//! Also measures two costs and emits `BENCH_stream.json` at the repo
//! root (stable schema: name, events_per_sec, wall_ms, threads) for
//! the tracked perf trajectory:
//!
//! - side-by-side appends (every stream registered up front and grown
//!   a slice at a time): the median snapshot over 50 append rounds and
//!   the peak-RSS growth of the run;
//! - live-tail latency: the cost of taking a fresh snapshot after each
//!   appended chunk, across chunk sizes.

use std::process::ExitCode;
use std::time::Instant;

use bench::{peak_rss_kb, repo_root, reset_peak_rss_kb, write_bench_json, BenchRecord};
use pdt::{EventCode, TraceCore, TraceFile, TraceHeader, TraceRecord, TraceStream, VERSION};
use ta::{Analysis, ImageIngest, IngestSession, Parallelism, StreamId};

const MAX_REBUILT_FRACTION: f64 = 0.05;

const GOLDEN: [&str; 5] = [
    "matmul.pdt",
    "stream.pdt",
    "pipeline.pdt",
    "stream_faulted.pdt",
    "stream_racy.pdt",
];

/// A deterministic storm trace built directly from records: one PPE
/// anchor stream, then per SPE a lifecycle whose tail (`SpeUser`
/// events after `SpeStop`) extends the timeline without changing any
/// activity interval — the shape a live tracer appends.
fn storm_trace(spes: u8, users_per_spe: usize) -> TraceFile {
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
    let mut ppe = Vec::new();
    for spe in 0..spes {
        TraceRecord {
            core: TraceCore::Ppe(0),
            code: EventCode::PpeCtxRun,
            timestamp: 100 + spe as u64,
            params: vec![spe as u64, spe as u64, u32::MAX as u64],
        }
        .encode_into(&mut ppe);
    }
    let mut streams = vec![TraceStream {
        core: TraceCore::Ppe(0),
        bytes: ppe,
        dropped: 0,
    }];
    for spe in 0..spes {
        let mut bytes = Vec::new();
        let mut dec = u32::MAX;
        let mut emit = |code, step: u32, params: Vec<u64>, bytes: &mut Vec<u8>| {
            dec = dec.wrapping_sub(step);
            TraceRecord {
                core: TraceCore::Spe(spe),
                code,
                timestamp: dec as u64,
                params,
            }
            .encode_into(bytes);
        };
        emit(EventCode::SpeCtxStart, 0, vec![spe as u64], &mut bytes);
        emit(
            EventCode::SpeDmaGet,
            40,
            vec![0x1000, 0x100000, 4096, 1],
            &mut bytes,
        );
        emit(EventCode::SpeTagWaitBegin, 10, vec![2, 0], &mut bytes);
        emit(EventCode::SpeTagWaitEnd, 300, vec![2], &mut bytes);
        emit(EventCode::SpeStop, 1000, vec![0], &mut bytes);
        for k in 0..users_per_spe {
            emit(
                EventCode::SpeUser,
                3,
                vec![(k % 50) as u64, k as u64, spe as u64],
                &mut bytes,
            );
        }
        streams.push(TraceStream {
            core: TraceCore::Spe(spe),
            bytes,
            dropped: 0,
        });
    }
    TraceFile {
        header,
        streams,
        ctx_names: (0..spes as u32).map(|c| (c, format!("storm{c}"))).collect(),
    }
}

/// A deterministic trace whose SPE lanes are long: per SPE, two
/// context runs on the same SPE, each `cycles` rounds of compute, a
/// DMA get and a tag wait (two intervals a round). The lane spans both
/// runs, so the last records of each stream close intervals at the end
/// of a lane of `4 * cycles` intervals.
fn checkpoint_trace(spes: u8, cycles: usize) -> TraceFile {
    let mut trace = storm_trace(spes, 0);
    for (spe, stream) in (0..spes).zip(trace.streams.iter_mut().skip(1)) {
        let mut bytes = Vec::new();
        let mut dec = u32::MAX;
        let mut emit = |code, step: u32, params: Vec<u64>| {
            dec = dec.wrapping_sub(step);
            TraceRecord {
                core: TraceCore::Spe(spe),
                code,
                timestamp: dec as u64,
                params,
            }
            .encode_into(&mut bytes);
        };
        for _ in 0..2 {
            emit(EventCode::SpeCtxStart, 5, vec![spe as u64]);
            for k in 0..cycles {
                let work = 200 + (k % 7) as u32 * 30;
                emit(EventCode::SpeDmaGet, work, vec![0x1000, 0x100000, 4096, 1]);
                emit(EventCode::SpeTagWaitBegin, 10, vec![2, 0]);
                emit(EventCode::SpeTagWaitEnd, 50 + (k % 5) as u32 * 10, vec![2]);
            }
            emit(EventCode::SpeStop, 20, vec![0]);
        }
        stream.bytes = bytes;
    }
    trace
}

/// Chunked image ingestion must be indistinguishable from the
/// one-shot analysis on every golden trace.
fn check_parity() -> Result<(), String> {
    let dir = repo_root().join("tests/golden");
    for name in GOLDEN {
        let path = dir.join(name);
        let image = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let trace = TraceFile::read_from(&path).map_err(|e| format!("{name}: {e}"))?;
        let one = Analysis::of(&trace)
            .parallelism(Parallelism::Workers(2))
            .run()
            .map_err(|e| format!("{name}: {e}"))?;
        for chunk in [137usize, 4096] {
            let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
            for piece in image.chunks(chunk) {
                ing.push(piece).map_err(|e| format!("{name}: {e}"))?;
            }
            ing.finish().map_err(|e| format!("{name}: {e}"))?;
            let snap = ing
                .snapshot()
                .ok_or_else(|| format!("{name}: no snapshot"))?;
            let bad =
                |what: &str| Err(format!("{name}: chunked {what} diverged ({chunk}B chunks)"));
            if snap.analyzed().events != one.analyzed().events {
                return bad("events");
            }
            if snap.loss() != one.loss() {
                return bad("loss");
            }
            if snap.stats() != one.stats() {
                return bad("stats");
            }
            if snap.index() != one.index() {
                return bad("index");
            }
        }
    }
    Ok(())
}

/// Per-append stage times of one 120-append follow, in ms: medians of
/// the push (decode), the snapshot, and the summarize of the newest 1%.
struct TailStages {
    push_ms: f64,
    snapshot_ms: f64,
    summarize_ms: f64,
}

/// Follows `image` through [`ImageIngest`] in 120 equal appends, with a
/// snapshot and a `summarize` after each, and holds the session to its
/// bounds: at most one full index rebuild per stream, and a final epoch
/// equal to `one`.
fn check_follow(name: &str, image: &[u8], one: &Analysis) -> Result<TailStages, String> {
    let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
    let (mut push, mut snap, mut summ) = (Vec::new(), Vec::new(), Vec::new());
    let end = one.columns().end_tb() + 1;
    let newest = end - (end - one.columns().start_tb()).div_ceil(100);
    for piece in image.chunks(image.len().div_ceil(120)) {
        let t = Instant::now();
        ing.push(piece).map_err(|e| format!("{name}: {e}"))?;
        push.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let Some(epoch) = ing.snapshot() else {
            continue;
        };
        snap.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(epoch.summarize(newest, end));
        summ.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ing.finish().map_err(|e| format!("{name}: {e}"))?;
    let last = ing
        .snapshot()
        .ok_or_else(|| format!("{name}: no snapshot"))?;
    let session = ing.session().ok_or_else(|| format!("{name}: no session"))?;
    let streams = session.stream_count() as u64;
    if session.full_rebuilds() > streams {
        return Err(format!(
            "{name}: {} full index rebuilds for {streams} streams",
            session.full_rebuilds()
        ));
    }
    if last.analyzed().events != one.analyzed().events
        || last.loss() != one.loss()
        || last.stats() != one.stats()
        || last.index() != one.index()
    {
        return Err(format!("{name}: 120-append follow diverged from one-shot"));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    Ok(TailStages {
        push_ms: median(push),
        snapshot_ms: median(snap),
        summarize_ms: median(summ),
    })
}

/// Appending the last ~1% of every SPE stream after a snapshot must
/// grow the open runs, not rebuild an index: the snapshot taken with
/// the streams still open counts all of the trace's lane checkpoints
/// and writes few of them. Returns the written fraction, the written
/// and the total checkpoints.
fn check_incremental_bound(trace: &TraceFile) -> Result<(f64, usize, usize), String> {
    let mut s = IngestSession::new(trace.header, trace.streams.len())
        .with_parallelism(Parallelism::Workers(2));
    let ids: Vec<StreamId> = trace
        .streams
        .iter()
        .map(|st| s.add_stream(st.core, st.dropped))
        .collect();
    s.set_ctx_names(trace.ctx_names.clone());
    s.append(ids[0], &trace.streams[0].bytes);
    s.close_stream(ids[0]);
    let head = |bytes: &[u8]| bytes.len() * 99 / 100;
    for (i, st) in trace.streams.iter().enumerate().skip(1) {
        s.append(ids[i], &st.bytes[..head(&st.bytes)]);
    }
    let _ = s.snapshot(); // the base index, and the runs over ~99%
    for (i, st) in trace.streams.iter().enumerate().skip(1) {
        s.append(ids[i], &st.bytes[head(&st.bytes)..]);
    }
    let snap = s.snapshot();
    let delta = s.last_delta().ok_or("no index delta recorded")?;
    s.finish();
    let one = Analysis::of(trace)
        .parallelism(Parallelism::Workers(2))
        .run()
        .map_err(|e| e.to_string())?;
    for (epoch, when) in [
        (&snap, "with the streams open"),
        (&s.snapshot(), "finished"),
    ] {
        if epoch.analyzed().events != one.analyzed().events || epoch.index() != one.index() {
            return Err(format!(
                "tail-appended session diverged from one-shot ({when})"
            ));
        }
    }
    if delta.full_rebuild {
        return Err("appending a 1% tail triggered a full index rebuild".into());
    }
    let checkpoints = one.index().lane_checkpoints();
    if delta.blocks_total != checkpoints {
        return Err(format!(
            "the tail epoch counted {} lane checkpoints, the trace has {checkpoints}",
            delta.blocks_total
        ));
    }
    let frac = delta.rebuilt_fraction();
    if frac > MAX_REBUILT_FRACTION {
        return Err(format!(
            "appending a 1% tail rewrote {:.1}% of lane checkpoints ({}/{}, max {:.0}%)",
            frac * 100.0,
            delta.blocks_rebuilt,
            delta.blocks_total,
            MAX_REBUILT_FRACTION * 100.0
        ));
    }
    Ok((frac, delta.blocks_rebuilt, delta.blocks_total))
}

/// Side-by-side cost: `trace`'s streams, every one registered up
/// front, appended in 50 equal rounds with a snapshot after each.
/// Returns the median per-snapshot ms and the peak resident growth
/// over the run, in kB.
fn side_by_side_follow(trace: &TraceFile) -> (f64, u64) {
    const ROUNDS: usize = 50;
    let rss = reset_peak_rss_kb();
    let mut s = IngestSession::new(trace.header, trace.streams.len())
        .with_parallelism(Parallelism::Workers(2));
    let ids: Vec<StreamId> = trace
        .streams
        .iter()
        .map(|st| s.add_stream(st.core, st.dropped))
        .collect();
    s.set_ctx_names(trace.ctx_names.clone());
    let mut snap = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        for (&id, st) in ids.iter().zip(&trace.streams) {
            let cut = |r: usize| st.bytes.len() * r / ROUNDS;
            s.append(id, &st.bytes[cut(round)..cut(round + 1)]);
        }
        let t = Instant::now();
        std::hint::black_box(s.snapshot());
        snap.push(t.elapsed().as_secs_f64() * 1e3);
    }
    s.finish();
    std::hint::black_box(s.snapshot());
    drop(s);
    snap.sort_by(f64::total_cmp);
    (snap[ROUNDS / 2], peak_rss_kb().saturating_sub(rss))
}

/// Live-tail cost: ingest the image in `chunk`-byte pieces, taking a
/// fresh snapshot after every piece. Returns (total wall ms, mean
/// per-snapshot ms, snapshot count).
fn live_tail(image: &[u8], chunk: usize, threads: usize) -> (f64, f64, usize) {
    let mut ing = ImageIngest::new().with_parallelism(Parallelism::from_threads(threads));
    let mut snap_ns = 0u128;
    let mut snaps = 0usize;
    let start = Instant::now();
    for piece in image.chunks(chunk) {
        ing.push(piece).unwrap();
        let t = Instant::now();
        if ing.snapshot().is_some() {
            snaps += 1;
        }
        snap_ns += t.elapsed().as_nanos();
    }
    ing.finish().unwrap();
    let total_ms = start.elapsed().as_nanos() as f64 / 1e6;
    (total_ms, snap_ns as f64 / 1e6 / snaps.max(1) as f64, snaps)
}

fn run() -> Result<(), String> {
    let users_per_spe: usize = std::env::args()
        .nth(1)
        .map(|v| v.parse().map_err(|_| format!("bad size {v:?}")))
        .transpose()?
        .unwrap_or(4_000);

    // First, while the process is small: its peak-RSS growth is the
    // session's own.
    let trace = storm_trace(8, users_per_spe);
    let (sbs_snapshot_ms, sbs_rss_kb) = side_by_side_follow(&trace);
    println!(
        "side-by-side appends: 50 rounds, median snapshot {sbs_snapshot_ms:.3} ms, \
         peak RSS growth {sbs_rss_kb} kB"
    );

    check_parity()?;
    println!(
        "golden parity: OK (chunked ImageIngest == one-shot on {} traces)",
        GOLDEN.len()
    );

    let storm = Analysis::of(&trace)
        .parallelism(Parallelism::Workers(2))
        .run()
        .map_err(|e| e.to_string())?;
    let n = storm.events().len();
    let (frac, rebuilt, total) = check_incremental_bound(&checkpoint_trace(8, 2_000))?;
    println!(
        "incremental bound: OK (1% tail wrote {rebuilt}/{total} lane checkpoints = {:.2}%, max 5%)",
        frac * 100.0
    );

    let dir = repo_root().join("tests/golden");
    for name in GOLDEN.iter().filter(|n| !n.contains("faulted")) {
        let path = dir.join(name);
        let image = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let trace = TraceFile::from_bytes(&image).map_err(|e| format!("{name}: {e}"))?;
        let one = Analysis::of(&trace)
            .parallelism(Parallelism::Workers(2))
            .run()
            .map_err(|e| format!("{name}: {e}"))?;
        check_follow(name, &image, &one)?;
    }
    let image = trace.to_bytes();
    let stages = check_follow("storm", &image, &storm)?;
    println!(
        "120-append follow: OK (<= 1 full rebuild per stream; storm median \
         push {:.3} ms, snapshot {:.3} ms, summarize {:.3} ms)",
        stages.push_ms, stages.snapshot_ms, stages.summarize_ms
    );

    println!(
        "live-tail trace: {n} events, {} KiB image",
        image.len() / 1024
    );
    let mut records = Vec::new();

    // One-shot baseline: the whole image in a single push.
    let oneshot_ms = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(4));
            ing.push(&image).unwrap();
            ing.finish().unwrap();
            std::hint::black_box(ing.snapshot().map(|a| a.events().len()));
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .fold(f64::INFINITY, f64::min);
    records.push(BenchRecord {
        name: "stream_oneshot".into(),
        events_per_sec: n as f64 / (oneshot_ms / 1e3),
        wall_ms: oneshot_ms,
        threads: 4,
    });

    let mut meta: Vec<(String, f64)> = vec![
        ("events".into(), n as f64),
        ("image_bytes".into(), image.len() as f64),
        ("tail_rebuilt_pct".into(), frac * 100.0),
        ("tail_blocks_total".into(), total as f64),
        ("follow_push_ms".into(), stages.push_ms),
        ("follow_snapshot_ms".into(), stages.snapshot_ms),
        ("follow_summarize_ms".into(), stages.summarize_ms),
        ("side_by_side_snapshot_ms".into(), sbs_snapshot_ms),
        ("side_by_side_rss_growth_kb".into(), sbs_rss_kb as f64),
    ];
    for chunk_kib in [4usize, 16, 64] {
        let (total_ms, mean_snap_ms, snaps) = live_tail(&image, chunk_kib * 1024, 4);
        println!(
            "live-tail {chunk_kib:>2} KiB chunks: {snaps} snapshots, \
             mean {mean_snap_ms:.3} ms/snapshot, {total_ms:.1} ms total"
        );
        records.push(BenchRecord {
            name: format!("stream_tail_{chunk_kib}k"),
            events_per_sec: n as f64 / (total_ms / 1e3),
            wall_ms: total_ms,
            threads: 4,
        });
        meta.push((format!("snapshot_ms_{chunk_kib}k"), mean_snap_ms));
    }

    let meta_refs: Vec<(&str, f64)> = meta.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let path =
        write_bench_json("BENCH_stream.json", &records, &meta_refs).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stream_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
