//! v2-container corruption battery: damage must degrade to
//! [`DecodeGap`]/`LossReport` accounting and suspect flags — never a
//! panic, never silent data loss. Covers the three shapes the issue
//! names: a truncated final block, flipped footer-directory bytes,
//! and fault-style damage inside a compressed payload, plus truncation
//! at every offset. Every damaged image is read both in memory
//! ([`analyze_v2`], [`V2Trace::parse`]) and from a file
//! ([`V2Trace::read`]), and the two must agree.

use std::sync::Arc;

use pdt::v2::{pack, unpack, BlockKind, V2Error, V2File, ENTRY_BYTES, PREFIX_BYTES};
use pdt::{CodecStats, Truncation};
use ta::{analyze_v2, Analysis, Parallelism, V2Trace};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_v2_bytes, GOLDEN};
#[path = "common/roundtrip.rs"]
mod roundtrip;
use roundtrip::Roundtrip;
#[path = "common/tempfile.rs"]
mod tempfile;
use tempfile::TempFile;

const BLOCK_RECORDS: usize = 8;

/// Records decoded across all streams in the loss report.
fn decoded_total(a: &Analysis) -> u64 {
    a.loss().streams.iter().map(|s| s.decoded_records).sum()
}

/// Gap count across all streams in the loss report.
fn gap_total(a: &Analysis) -> usize {
    a.loss().streams.iter().map(|s| s.gaps.len()).sum()
}

/// Analyzes `image` read from a file, asserting that the file-backed
/// reader agrees with [`analyze_v2`] on the same bytes in memory:
/// events, loss report and codec counters.
fn from_file(what: &str, image: &[u8]) -> (Arc<Analysis>, CodecStats) {
    let tmp = TempFile::new(what, image);
    let file = tmp.open();
    let (a, stats) = V2Trace::read(&file)
        .unwrap()
        .analyze(Parallelism::Serial)
        .unwrap();
    let (m, mstats) = analyze_v2(image, Parallelism::Serial).unwrap();
    assert_eq!(a.events(), m.events(), "{what}: file vs memory events");
    assert_eq!(a.loss(), m.loss(), "{what}: file vs memory loss");
    assert_eq!(stats, mstats, "{what}: file vs memory codec stats");
    (a, stats)
}

/// Truncating the image anywhere inside the final block (or later)
/// must not panic: the strict parse reports truncation, the lossy
/// readers zero-fill the missing tail so it shows up as decode gaps
/// and lost records — and whatever *was* decoded is retained.
#[test]
fn truncated_final_block_degrades_to_loss() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = pack(&trace, BLOCK_RECORDS);
        let (full, _) = analyze_v2(&image, Parallelism::Serial).unwrap();
        let full_decoded = decoded_total(&full);
        assert!(full_decoded > 0, "{name}: empty golden");
        assert_eq!(full.loss().truncated, None, "{name}: whole image");

        for cut in [1usize, 17, 100, ENTRY_BYTES, image.len() / 2] {
            let cut = cut.min(image.len() - 40);
            let short = &image[..image.len() - cut];

            // The strict parse names the missing structure.
            assert!(
                matches!(V2Trace::parse(short), Err(V2Error::Truncated { .. })),
                "{name} -{cut}: strict parse"
            );

            // The lossy readers analyze what arrived.
            let (a, _) = from_file(&format!("{name}-{cut}"), short);
            assert!(a.loss().truncated.is_some(), "{name} -{cut}: no record");
            let decoded = decoded_total(&a);
            assert!(
                decoded <= full_decoded,
                "{name} -{cut}: decoded more than the full image"
            );
            // Truncation inside a stream's promised bytes must be
            // visible as a gap — unless the cut removed the stream
            // header itself, in which case the whole stream is absent
            // from the report (cuts confined to the trailing footer
            // directory / name table legitimately lose nothing).
            if decoded < full_decoded {
                assert!(
                    gap_total(&a) > 0 || a.loss().streams.len() < full.loss().streams.len(),
                    "{name} -{cut}: silent loss"
                );
            }
        }
    }
}

/// Flipping bytes inside a footer directory entry must surface as a
/// corrupt block (the directory/prefix cross-check zero-fills it → a
/// `DecodeGap`), and taint the windowed query as suspect — never trust
/// a footer that fails its CRC.
#[test]
fn flipped_footer_bytes_surface_as_loss_and_suspect() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = pack(&trace, BLOCK_RECORDS);

        // Pick the first stream that has blocks and flip one byte in
        // the middle of its first directory entry (the min_tb field).
        let probe = V2Trace::parse(&image).unwrap();
        let meta = *probe
            .file()
            .streams
            .iter()
            .find(|m| m.n_blocks > 0)
            .expect("golden with blocks");
        let mut bad = image.clone();
        bad[meta.dir_off + 40] ^= 0xff;

        let v2 = V2Trace::parse(&bad).unwrap();
        let (a, stats) = v2.analyze(Parallelism::Serial).unwrap();
        assert!(stats.blocks_corrupt >= 1, "{name}: corrupt not counted");
        assert!(gap_total(&a) > 0, "{name}: no gap from flipped footer");
        let (b, bstats) = from_file(name, &bad);
        assert_eq!((a.events(), a.loss()), (b.events(), b.loss()), "{name}");
        assert_eq!(stats, bstats, "{name}");

        // The damaged entry fails its CRC, so any window over that
        // stream is suspect and the block is never trusted.
        let wq = v2.window_events(0, u64::MAX).unwrap();
        assert!(wq.suspect, "{name}: window not marked suspect");
        assert!(wq.stats.blocks_corrupt >= 1, "{name}: window stats");
    }
}

/// Damage inside a compressed payload (the fault-injector shape: bit
/// flips landing mid-block) must fail the payload CRC and degrade to
/// a zero-filled gap range, in memory and from a file alike, with
/// products still produced and decoded records strictly fewer — never
/// a panic.
#[test]
fn damage_inside_compressed_block_degrades_to_gaps() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = pack(&trace, BLOCK_RECORDS);
        let (full, _) = analyze_v2(&image, Parallelism::Serial).unwrap();
        let full_decoded = decoded_total(&full);

        let probe = V2Trace::parse(&image).unwrap();
        let (si, meta) = probe
            .file()
            .streams
            .iter()
            .enumerate()
            .find(|(_, m)| m.n_blocks > 0)
            .expect("golden with blocks");
        // Seeded pseudo-random flips inside the first packed payload.
        let entry = (0..meta.n_blocks)
            .map(|bi| probe.file().entry(si, bi).unwrap())
            .find(|e| e.kind == BlockKind::Packed && e.payload_len > 0)
            .expect("packed block");
        let payload_at = meta.blocks_off + entry.block_off as usize + PREFIX_BYTES;
        let mut bad = image.clone();
        let mut x: u32 = 0x9e37_79b9;
        for _ in 0..4 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let off = payload_at + (x as usize % entry.payload_len as usize);
            bad[off] ^= 1 << (x >> 29);
        }

        let v2 = V2Trace::parse(&bad).unwrap();
        let (a, stats) = v2.analyze(Parallelism::Serial).unwrap();
        assert!(stats.blocks_corrupt >= 1, "{name}: corrupt count");
        assert!(gap_total(&a) > 0, "{name}: gaps");
        assert!(
            decoded_total(&a) < full_decoded,
            "{name}: corrupt block still counted as decoded"
        );
        // Products are still derivable from the damaged trace (the
        // event list may legitimately shrink to nothing when the
        // damaged block held the sync anchors).
        a.build_products(Parallelism::Serial);

        // The file-backed reader agrees exactly.
        let (b, bstats) = from_file(name, &bad);
        assert_eq!(bstats, stats, "{name}: file-backed corrupt count");
        assert_eq!(a.events(), b.events(), "{name}: readers disagree (events)");
        assert_eq!(a.loss(), b.loss(), "{name}: readers disagree (loss)");

        // A window over the damaged region is suspect.
        let wq = v2.window_events(0, u64::MAX).unwrap();
        assert!(wq.suspect, "{name}: damaged window not suspect");
    }
}

/// `analyze_v2` degrades truncated images to loss accounting instead
/// of failing, and still rejects non-v2 bytes outright.
#[test]
fn analyze_v2_falls_back_on_truncation() {
    let trace = golden("stream.pdt");
    let image = pack(&trace, BLOCK_RECORDS);

    let (whole, _) = analyze_v2(&image, Parallelism::Serial).unwrap();
    assert_eq!(whole.loss().truncated, None);
    let short = &image[..image.len() - 64];
    let (cut, _) = analyze_v2(short, Parallelism::Serial).unwrap();
    assert!(decoded_total(&cut) <= decoded_total(&whole));
    assert!(cut.loss().truncated.is_some());
    assert!(!cut.loss().is_clean());

    // v1 bytes are not a v2 image.
    assert!(analyze_v2(&trace.to_bytes(), Parallelism::Serial).is_err());
    // Nor is an empty or sub-header image.
    assert!(analyze_v2(&[], Parallelism::Serial).is_err());
    assert!(analyze_v2(&image[..10], Parallelism::Serial).is_err());
}

/// A flipped high byte in the stream count or the name count claims
/// billions of entries. The parser must not reserve room for them up
/// front (that aborts the process): the strict parse reports the
/// truncation it runs into, and the lossy readers decode every record
/// the streams hold and record where the image ran out — in the name
/// table read as a stream header, or after the last name.
#[test]
fn flipped_header_counts_fail_cleanly_instead_of_aborting() {
    let image = golden_v2_bytes("stream.pdt");
    let v2 = V2Trace::parse(&image).unwrap();
    let (clean, _) = v2.analyze(Parallelism::Serial).unwrap();
    // The stream count is the u32 after the 36-byte header; the name
    // count is the u32 after the last stream's footer directory.
    let last = v2.file().streams.last().unwrap();
    let name_count = last.dir_off + last.n_blocks as usize * ENTRY_BYTES;
    for (at, stop) in [
        (
            36 + 3,
            Truncation {
                reading: "stream header",
                offset: name_count,
            },
        ),
        (
            name_count + 3,
            Truncation {
                reading: "name entry",
                offset: image.len(),
            },
        ),
    ] {
        let mut bad = image.clone();
        bad[at] = 0xff;
        assert_eq!(
            V2Trace::parse(&bad).unwrap_err(),
            V2Error::Truncated {
                reading: stop.reading
            },
            "byte {at}: strict parse"
        );
        let (a, stats) = from_file(&format!("count{at}"), &bad);
        assert_eq!(stats.blocks_corrupt, 0, "byte {at}");
        assert_eq!(a.events(), clean.events(), "byte {at}: events");
        assert_eq!(
            a.loss().streams,
            clean.loss().streams,
            "byte {at}: per-stream loss"
        );
        assert_eq!(a.loss().truncated, Some(stop), "byte {at}: truncation");
        assert!(!a.loss().is_clean(), "byte {at}");
    }
}

/// A stream header whose raw length claims petabytes: strict unpacking
/// must report the mismatch rather than reserve the claimed length up
/// front (that aborts the process), and analysis accounts the stream's
/// missing bytes as a decode gap.
#[test]
fn flipped_raw_length_fails_cleanly_instead_of_aborting() {
    let mut image = golden_v2_bytes("stream.pdt");
    // Byte 6 of the first stream header's u64 raw length; the stream
    // header follows the 36-byte container header and the u32 count.
    image[40 + 16 + 6] = 0x7f;
    assert!(matches!(
        unpack(&image),
        Err(V2Error::Corrupt {
            what: "stream raw length"
        })
    ));
    let (a, _) = from_file("rawlen", &image);
    assert!(gap_total(&a) > 0, "the missing bytes are a gap");
}

/// Sweep: truncate every golden `.pdt2` at *every* byte offset and
/// read it in memory and from a file. No cut point may panic; once the
/// header is complete both readers produce the same analysis, and the
/// loss report records a truncation exactly when the container walk
/// stopped early, naming where.
#[test]
fn every_truncation_offset_is_survivable() {
    for name in GOLDEN {
        let image = golden_v2_bytes(name);
        // One file, shortened cut by cut.
        let tmp = TempFile::new(name, &image);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tmp.0)
            .unwrap();
        for cut in (0..=image.len()).rev() {
            file.set_len(cut as u64).unwrap();
            let memory = analyze_v2(&image[..cut], Parallelism::Serial);
            let read = V2Trace::read(&file).map_err(|e| e.to_string());
            let (a, stats) = match memory {
                Ok(out) => out,
                Err(e) => {
                    assert!(cut < 36, "{name}: lossy read refused at offset {cut}: {e}");
                    assert_eq!(read.err(), Some(e.to_string()), "{name} @{cut}");
                    continue;
                }
            };
            let walk = V2File::walk(&image[..cut]).unwrap();
            assert_eq!(
                walk.truncation.is_some(),
                cut < image.len(),
                "{name} @{cut}"
            );
            assert_eq!(a.loss().truncated, walk.truncation, "{name} @{cut}");
            let (b, bstats) = read.unwrap().analyze(Parallelism::Serial).unwrap();
            assert_eq!(a.events(), b.events(), "{name} @{cut}: events");
            assert_eq!(a.loss(), b.loss(), "{name} @{cut}: loss");
            assert_eq!(stats, bstats, "{name} @{cut}: codec stats");
        }
    }
}

/// A `.pdt2` that shrinks after its structure was read is an I/O error
/// from every file-backed read — analysis, the roundtrip oracle and the
/// windowed query — never a panic.
#[test]
fn a_file_that_shrinks_after_open_is_an_error() {
    let image = golden_v2_bytes("stream.pdt");
    let tmp = TempFile::new("shrink", &image);
    let file = tmp.open();
    let v2 = V2Trace::read(&file).unwrap();
    let oracle = Roundtrip::read(&file).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&tmp.0)
        .unwrap()
        .set_len(100)
        .unwrap();
    for par in [Parallelism::Serial, Parallelism::Workers(2)] {
        for err in [
            v2.analyze(par).unwrap_err(),
            oracle.analyze(par).err().unwrap(),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{par:?}");
            assert!(err.to_string().contains("shrank"), "{par:?}: {err}");
        }
    }
    assert!(v2.window_events(0, u64::MAX).is_err());
}
