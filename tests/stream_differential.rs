//! Streaming-ingestion differential suite: every golden trace, fed to
//! [`ta::ImageIngest`] as appended chunks — one byte at a time, 4 KiB
//! at a time, and at seeded pseudo-random split points — must produce
//! an [`Analysis`] snapshot identical to the one-shot [`Analysis::of`]
//! in every derived product: events, anchors, loss accounting,
//! intervals, statistics, timeline, index, and lint diagnostics.
//!
//! The corpus includes the fault-injected goldens, so chunk boundaries
//! land inside torn and corrupt records too; the per-stream resync
//! cursors must carry that state across the boundary.

use std::sync::Arc;

use pdt::{TraceFile, TraceStream};
use ta::{Analysis, ImageIngest, IngestSession, Parallelism, StreamId};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden_path, GOLDEN};

fn oneshot(name: &str) -> Analysis {
    let trace = TraceFile::read_from(golden_path(name)).unwrap_or_else(|e| {
        panic!("{name}: {e}\nregenerate with `cargo run -p bench --bin make_golden`")
    });
    Analysis::of(&trace)
        .parallelism(Parallelism::Workers(2))
        .run()
        .unwrap()
}

/// Feeds `image` to a fresh ingest in pieces whose sizes come from
/// `splits` (cycled), returning the final snapshot.
fn ingest_split(image: &[u8], splits: &[usize]) -> Arc<Analysis> {
    let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
    let mut off = 0;
    let mut i = 0;
    while off < image.len() {
        let n = splits[i % splits.len()].max(1).min(image.len() - off);
        ing.push(&image[off..off + n]).unwrap();
        off += n;
        i += 1;
    }
    assert!(ing.is_complete());
    ing.finish().unwrap();
    ing.snapshot().expect("complete image has a session")
}

fn assert_identical(name: &str, chunked: &Analysis, oneshot: &Analysis, how: &str) {
    let (ca, oa) = (chunked.analyzed(), oneshot.analyzed());
    assert_eq!(ca.header, oa.header, "{name} [{how}] header");
    assert_eq!(ca.events, oa.events, "{name} [{how}] events");
    assert_eq!(ca.anchors, oa.anchors, "{name} [{how}] anchors");
    assert_eq!(ca.ctx_names, oa.ctx_names, "{name} [{how}] ctx names");
    assert_eq!(ca.dropped, oa.dropped, "{name} [{how}] dropped");
    assert_eq!(chunked.loss(), oneshot.loss(), "{name} [{how}] loss");
    assert_eq!(
        chunked.intervals(),
        oneshot.intervals(),
        "{name} [{how}] intervals"
    );
    assert_eq!(chunked.stats(), oneshot.stats(), "{name} [{how}] stats");
    assert_eq!(
        chunked.timeline(),
        oneshot.timeline(),
        "{name} [{how}] timeline"
    );
    assert_eq!(chunked.index(), oneshot.index(), "{name} [{how}] index");
    assert_eq!(chunked.lint(), oneshot.lint(), "{name} [{how}] lint");
}

#[test]
fn byte_at_a_time_matches_oneshot() {
    for name in GOLDEN {
        let image = std::fs::read(golden_path(name)).unwrap();
        let snap = ingest_split(&image, &[1]);
        assert_identical(name, &snap, &oneshot(name), "1-byte chunks");
    }
}

#[test]
fn four_kib_chunks_match_oneshot() {
    for name in GOLDEN {
        let image = std::fs::read(golden_path(name)).unwrap();
        let snap = ingest_split(&image, &[4096]);
        assert_identical(name, &snap, &oneshot(name), "4KiB chunks");
    }
}

#[test]
fn random_split_points_match_oneshot() {
    for name in GOLDEN {
        let image = std::fs::read(golden_path(name)).unwrap();
        let one = oneshot(name);
        // Seeded LCG so failures replay; sizes cover 1..=257 bytes and
        // land chunk boundaries inside headers, records and faults.
        let mut state: u64 = 0x243F_6A88_85A3_08D3 ^ image.len() as u64;
        for round in 0..4 {
            let mut splits = Vec::with_capacity(64);
            for _ in 0..64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                splits.push(((state >> 33) % 257 + 1) as usize);
            }
            let snap = ingest_split(&image, &splits);
            assert_identical(name, &snap, &one, &format!("random splits, round {round}"));
        }
    }
}

/// Mid-ingest snapshots must be usable and frozen: each epoch keeps
/// serving its own event list after further appends mutate the
/// session, and the event count never goes backwards.
#[test]
fn intermediate_snapshots_are_frozen_and_monotone() {
    let image = std::fs::read(golden_path("stream_faulted.pdt")).unwrap();
    let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
    let mut epochs: Vec<(Arc<Analysis>, Vec<u64>)> = Vec::new();
    for piece in image.chunks(293) {
        ing.push(piece).unwrap();
        if let Some(snap) = ing.snapshot() {
            let times: Vec<u64> = snap.events().iter().map(|e| e.time_tb).collect();
            if let Some((_, prev)) = epochs.last() {
                assert!(
                    times.len() >= prev.len(),
                    "event count went backwards: {} < {}",
                    times.len(),
                    prev.len()
                );
            }
            epochs.push((snap, times));
        }
    }
    ing.finish().unwrap();
    for (snap, times) in &epochs {
        let now: Vec<u64> = snap.events().iter().map(|e| e.time_tb).collect();
        assert_eq!(&now, times, "epoch mutated after later appends");
    }
}

/// Snapshots serve queries concurrently with ingestion: reader threads
/// hammer each epoch while the writer keeps appending.
#[test]
fn concurrent_readers_during_ingest() {
    use std::sync::mpsc;
    use std::thread;

    let image = std::fs::read(golden_path("pipeline.pdt")).unwrap();
    let one = oneshot("pipeline.pdt");

    let (tx, rx) = mpsc::channel::<Arc<Analysis>>();
    let reader = thread::spawn(move || {
        let mut seen = 0usize;
        for snap in rx {
            // Touch every lazy product; a torn epoch would panic or
            // disagree with itself here.
            let events = snap.events().len();
            assert!(events >= seen);
            seen = events;
            let stats = snap.stats();
            assert!(stats.spes.len() <= snap.analyzed().header.num_spes as usize);
            let end = snap.index().end_tb();
            let s = snap.summarize(0, end.saturating_add(1));
            assert_eq!(s.total_events(), events as u64);
            let _ = snap.timeline();
            let _ = snap.summary();
        }
        seen
    });

    let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
    for piece in image.chunks(173) {
        ing.push(piece).unwrap();
        if let Some(snap) = ing.snapshot() {
            tx.send(snap).unwrap();
        }
    }
    ing.finish().unwrap();
    let last = ing.snapshot().unwrap();
    tx.send(Arc::clone(&last)).unwrap();
    drop(tx);

    let seen = reader.join().unwrap();
    assert_eq!(seen, one.events().len());
    assert_identical("pipeline.pdt", &last, &one, "concurrent ingest");
}

/// The trace a `.pdt` image's first `n` bytes describe, as
/// [`ImageIngest`] sees it: the header, every stream whose directory
/// entry has arrived (its record bytes cut at `n`), and the name table
/// only once the image is complete. `None` before the header.
fn prefix_trace(full: &TraceFile, image_len: usize, n: usize) -> Option<TraceFile> {
    if n < 40 {
        return None;
    }
    let mut streams = Vec::new();
    let mut off = 40;
    for s in &full.streams {
        if off + 20 > n {
            break;
        }
        off += 20;
        let have = (n - off).min(s.bytes.len());
        streams.push(TraceStream {
            core: s.core,
            bytes: s.bytes[..have].to_vec(),
            dropped: s.dropped,
        });
        off += s.bytes.len();
    }
    Some(TraceFile {
        header: full.header,
        streams,
        ctx_names: if n == image_len {
            full.ctx_names.clone()
        } else {
            Vec::new()
        },
    })
}

/// Follows `full`'s image in 120 equal appends as `ta-serve` does:
/// after each append the epoch's event count, three window summaries
/// (all, first half, newest 1%) and its last five events must equal
/// the one-shot analysis of the same byte prefix, and the final epoch
/// the one-shot analysis of the whole trace. Returns the session's
/// full index rebuilds.
fn follow_matches_prefixes(name: &str, full: &TraceFile) -> u64 {
    let image = full.to_bytes();
    let mut ing = ImageIngest::new().with_parallelism(Parallelism::Workers(2));
    let step = image.len().div_ceil(120);
    let mut at = 0;
    while at < image.len() {
        let end = (at + step).min(image.len());
        ing.push(&image[at..end]).unwrap();
        at = end;
        let (Some(snap), Some(prefix)) = (ing.snapshot(), prefix_trace(full, image.len(), at))
        else {
            continue;
        };
        let one = Analysis::of(&prefix)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        let how = format!("{name} at byte {at}");
        let n = one.columns().events.len();
        assert_eq!(snap.event_count(), n, "{how}: event count");
        if n > 0 {
            let (t0, t1) = (one.columns().start_tb(), one.columns().end_tb() + 1);
            let newest = t1 - (t1 - t0).div_ceil(100);
            for (a, b) in [(t0, t1), (t0, t0 + (t1 - t0) / 2), (newest, t1)] {
                assert_eq!(
                    snap.summarize(a, b),
                    one.summarize(a, b),
                    "{how}: [{a}, {b})"
                );
            }
        }
        let (se, oe) = (&snap.columns().events, &one.columns().events);
        let last = |ev: &ta::EventColumns| {
            (ev.len().saturating_sub(5)..ev.len())
                .map(|i| ev.view(i).to_event())
                .collect::<Vec<_>>()
        };
        assert_eq!(last(se), last(oe), "{how}: events 5");
    }
    assert!(ing.is_complete(), "{name}");
    let one = Analysis::of(full)
        .parallelism(Parallelism::Workers(2))
        .run()
        .unwrap();
    assert_identical(name, &ing.snapshot().unwrap(), &one, "120 appends");
    ing.session().unwrap().full_rebuilds()
}

/// Every golden followed in 120 appends matches the one-shot analysis
/// of each byte prefix, with at most one full index rebuild per stream
/// directory entry.
#[test]
fn hundred_twenty_appends_match_prefix_oneshot() {
    for name in GOLDEN {
        let full = TraceFile::read_from(golden_path(name)).unwrap();
        let rebuilds = follow_matches_prefixes(name, &full);
        let streams = full.streams.len() as u64;
        assert!(
            rebuilds <= streams,
            "{name}: {rebuilds} full rebuilds for {streams} streams"
        );
    }
}

/// Stream layouts the tracer never writes still follow exactly: SPE
/// streams ahead of the PPE stream that anchors them (their records
/// wait for the anchor after the stream closed), and two streams
/// recording the same SPE (the overlay decomposition does not apply,
/// so epochs merge up front).
#[test]
fn unusual_stream_layouts_follow_exactly() {
    let base = TraceFile::read_from(golden_path("pipeline.pdt")).unwrap();
    let mut ppe_last = base.clone();
    ppe_last.streams.rotate_left(1);
    let mut shared_core = base.clone();
    let copy = shared_core.streams[1].clone();
    shared_core.streams.push(copy);
    for (name, trace) in [("ppe-last", ppe_last), ("shared-core", shared_core)] {
        follow_matches_prefixes(name, &trace);
    }
}

/// An append: a stream and a byte range of its records.
type Append = (usize, std::ops::Range<usize>);

/// The orders a session may receive a trace's streams in, as lists of
/// appends: each stream end to end in directory order, round-robin over
/// the streams, and each stream end to end in reverse directory order,
/// in 4 KiB pieces. The goldens' streams are shorter than 4 KiB, so
/// round-robin also runs in 256-byte pieces, which interleave.
fn arrival_orders(trace: &TraceFile) -> Vec<(&'static str, Vec<Append>)> {
    let pieces = |i: usize, piece: usize| {
        let len = trace.streams[i].bytes.len();
        (0..len)
            .step_by(piece)
            .map(move |at| (i, at..(at + piece).min(len)))
    };
    let n = trace.streams.len();
    let round_robin = |piece: usize| {
        let mut iters: Vec<_> = (0..n).map(|i| pieces(i, piece)).collect();
        let mut out = Vec::new();
        loop {
            let before = out.len();
            for it in &mut iters {
                out.extend(it.next());
            }
            if out.len() == before {
                return out;
            }
        }
    };
    vec![
        ("end to end", (0..n).flat_map(|i| pieces(i, 4096)).collect()),
        ("round-robin 4 KiB", round_robin(4096)),
        ("round-robin 256 B", round_robin(256)),
        (
            "reverse directory order",
            (0..n).rev().flat_map(|i| pieces(i, 4096)).collect(),
        ),
    ]
}

/// Any arrival order of a trace's streams ends in the one-shot
/// analysis: every golden, at `Serial` and `Workers(2)`, appended in
/// each of [`arrival_orders`] with an epoch taken after every append.
/// Each stream is closed once its last byte has arrived.
#[test]
fn any_arrival_order_matches_oneshot() {
    for name in GOLDEN {
        let trace = TraceFile::read_from(golden_path(name)).unwrap();
        for par in [Parallelism::Serial, Parallelism::Workers(2)] {
            let one = Analysis::of(&trace).parallelism(par).run().unwrap();
            for (order, appends) in arrival_orders(&trace) {
                let how = format!("{order}, {par:?}");
                let mut s =
                    IngestSession::new(trace.header, trace.streams.len()).with_parallelism(par);
                let ids: Vec<StreamId> = (trace.streams.iter())
                    .map(|st| s.add_stream(st.core, st.dropped))
                    .collect();
                s.set_ctx_names(trace.ctx_names.clone());
                for (i, range) in appends {
                    let last = range.end == trace.streams[i].bytes.len();
                    s.append(ids[i], &trace.streams[i].bytes[range]);
                    if last {
                        s.close_stream(ids[i]);
                    }
                    let epoch = s.snapshot();
                    let span = epoch.summarize(0, u64::MAX);
                    assert_eq!(
                        span.total_events(),
                        epoch.event_count() as u64,
                        "{name} [{how}]"
                    );
                }
                s.finish();
                assert_identical(name, &s.snapshot(), &one, &how);
                assert_eq!(
                    s.open_events(),
                    0,
                    "{name} [{how}]: every stream in the base"
                );
            }
        }
    }
}

/// Corrupt input whose PPE records run backwards in time cannot be
/// answered as an overlay: its epochs merge up front, counted as full
/// rebuilds, and still match the serial row oracle.
#[test]
fn non_monotone_ppe_stream_splices_exactly() {
    let mut trace = TraceFile::read_from(golden_path("pipeline.pdt")).unwrap();
    let ppe = trace.streams.iter_mut().find(|s| !s.core.is_spe()).unwrap();
    let mut records = pdt::decode_stream(&ppe.bytes).unwrap();
    let late = (1..records.len() - 1)
        .find(|&k| records[k].code != pdt::EventCode::PpeCtxRun)
        .unwrap();
    let moved = records.remove(late);
    records.push(moved); // its timestamp now runs backwards
    ppe.bytes.clear();
    for r in &records {
        r.encode_into(&mut ppe.bytes);
    }

    let mut s = IngestSession::new(trace.header, trace.streams.len())
        .with_parallelism(Parallelism::Workers(2));
    let ids: Vec<StreamId> = (trace.streams.iter())
        .map(|st| s.add_stream(st.core, st.dropped))
        .collect();
    s.set_ctx_names(trace.ctx_names.clone());
    // Everything but the late record first, so the events it belongs
    // before are already placed when it arrives.
    let ppe_at = trace
        .streams
        .iter()
        .position(|st| !st.core.is_spe())
        .unwrap();
    let ppe_bytes = &trace.streams[ppe_at].bytes;
    let cut = ppe_bytes.len() - records.last().unwrap().encoded_len();
    for (i, st) in trace.streams.iter().enumerate() {
        let bytes = if i == ppe_at {
            &st.bytes[..cut]
        } else {
            &st.bytes[..]
        };
        for piece in bytes.chunks(48) {
            s.append(ids[i], piece);
            let _ = s.snapshot();
        }
        if i != ppe_at {
            s.close_stream(ids[i]);
        }
    }
    let _ = s.snapshot();
    s.append(ids[ppe_at], &ppe_bytes[cut..]);
    s.finish();
    let snap = s.snapshot();
    assert!(s.full_rebuilds() > 0, "the late PPE record must merge");
    let oracle = ta::analyze(&trace).unwrap();
    assert_eq!(snap.analyzed().events, oracle.events);
    assert_eq!(snap.analyzed().anchors, oracle.anchors);
    let one = Analysis::of(&trace).run().unwrap();
    assert_eq!(snap.index(), one.index());
    assert_eq!(snap.stats(), one.stats());
}
