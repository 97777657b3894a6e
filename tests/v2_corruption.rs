//! v2-container corruption battery: damage must degrade to
//! [`DecodeGap`]/`LossReport` accounting and suspect flags — never a
//! panic, never silent data loss. Covers the three shapes the issue
//! names: a truncated final block, flipped footer-directory bytes,
//! and fault-style damage inside a compressed payload.

use pdt::v2::{pack, unpack, BlockKind, V2Error, ENTRY_BYTES, PREFIX_BYTES};
use ta::{analyze_v2, Parallelism, V2Ingest, V2Trace};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_v2_bytes, GOLDEN};

const BLOCK_RECORDS: usize = 8;

/// Records decoded across all streams in the loss report.
fn decoded_total(a: &ta::Analysis) -> u64 {
    a.loss().streams.iter().map(|s| s.decoded_records).sum()
}

/// Gap count across all streams in the loss report.
fn gap_total(a: &ta::Analysis) -> usize {
    a.loss().streams.iter().map(|s| s.gaps.len()).sum()
}

/// Feeds `image` to a chunked reader and force-closes it.
fn ingest_lossy(image: &[u8], split: usize) -> (std::sync::Arc<ta::Analysis>, pdt::CodecStats) {
    let mut ing = V2Ingest::new().with_parallelism(Parallelism::Serial);
    for chunk in image.chunks(split.max(1)) {
        ing.push(chunk).expect("structural push must not error");
    }
    ing.finish_lossy().expect("header arrived");
    let a = ing.snapshot().expect("snapshot");
    (a, ing.stats())
}

/// Truncating the image anywhere inside the final block (or later)
/// must not panic: the strict close reports truncation, the lossy
/// close zero-fills the missing tail so it shows up as decode gaps
/// and lost records — and whatever *was* decoded is retained.
#[test]
fn truncated_final_block_degrades_to_loss() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = pack(&trace, BLOCK_RECORDS);
        let (full, _) = ingest_lossy(&image, 4096);
        let full_decoded = decoded_total(&full);
        assert!(full_decoded > 0, "{name}: empty golden");

        for cut in [1usize, 17, 100, ENTRY_BYTES, image.len() / 2] {
            let cut = cut.min(image.len() - 40);
            let short = &image[..image.len() - cut];

            // Strict close names the missing structure.
            let mut strict = V2Ingest::new();
            strict.push(short).unwrap();
            assert!(strict.finish().is_err(), "{name} -{cut}: strict close");

            // Lossy close analyzes what arrived.
            let (a, _) = ingest_lossy(short, 512);
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
/// corrupt block in the one-shot path (the directory/prefix
/// cross-check zero-fills it → a `DecodeGap`), and taint the windowed
/// query as suspect — never trust a footer that fails its CRC.
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
        let (a, stats) = v2.analyze(Parallelism::Serial);
        assert!(stats.blocks_corrupt >= 1, "{name}: corrupt not counted");
        assert!(gap_total(&a) > 0, "{name}: no gap from flipped footer");

        // The damaged entry fails its CRC, so any window over that
        // stream is suspect and the block is never trusted.
        let wq = v2.window_events(0, u64::MAX);
        assert!(wq.suspect, "{name}: window not marked suspect");
        assert!(wq.stats.blocks_corrupt >= 1, "{name}: window stats");
    }
}

/// Damage inside a compressed payload (the fault-injector shape: bit
/// flips landing mid-block) must fail the payload CRC and degrade to
/// a zero-filled gap range in **both** decode paths, with products
/// still produced and decoded records strictly fewer — never a panic.
#[test]
fn damage_inside_compressed_block_degrades_to_gaps() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = pack(&trace, BLOCK_RECORDS);
        let (full, _) = ingest_lossy(&image, 4096);
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

        // One-shot path.
        let v2 = V2Trace::parse(&bad).unwrap();
        let (a, stats) = v2.analyze(Parallelism::Serial);
        assert!(stats.blocks_corrupt >= 1, "{name}: one-shot corrupt count");
        assert!(gap_total(&a) > 0, "{name}: one-shot gaps");
        assert!(
            decoded_total(&a) < full_decoded,
            "{name}: corrupt block still counted as decoded"
        );
        // Products are still derivable from the damaged trace (the
        // event list may legitimately shrink to nothing when the
        // damaged block held the sync anchors).
        a.build_products(Parallelism::Serial);

        // Streamed path agrees with the one-shot products exactly.
        let (b, bstats) = ingest_lossy(&bad, 7);
        assert!(bstats.blocks_corrupt >= 1, "{name}: streamed corrupt count");
        assert_eq!(a.events(), b.events(), "{name}: paths disagree (events)");
        assert_eq!(a.loss(), b.loss(), "{name}: paths disagree (loss)");

        // A window over the damaged region is suspect.
        let wq = v2.window_events(0, u64::MAX);
        assert!(wq.suspect, "{name}: damaged window not suspect");
    }
}

/// `analyze_v2` routes truncated images through the lossy streaming
/// path instead of failing, and still rejects non-v2 bytes outright.
#[test]
fn analyze_v2_falls_back_on_truncation() {
    let trace = golden("stream.pdt");
    let image = pack(&trace, BLOCK_RECORDS);

    let (whole, _) = analyze_v2(&image, Parallelism::Serial).unwrap();
    let short = &image[..image.len() - 64];
    let (cut, _) = analyze_v2(short, Parallelism::Serial).unwrap();
    assert!(decoded_total(&cut) <= decoded_total(&whole));

    // v1 bytes are not a v2 image.
    assert!(analyze_v2(&trace.to_bytes(), Parallelism::Serial).is_err());
    // Nor is an empty or sub-header image.
    assert!(analyze_v2(&[], Parallelism::Serial).is_err());
    assert!(analyze_v2(&image[..10], Parallelism::Serial).is_err());
}

/// A flipped high byte in the stream count or the name count claims
/// billions of entries. The parser must not reserve room for them up
/// front (that aborts the process): the one-shot parse reports the
/// truncation it runs into, the strict chunked close does too, and
/// `analyze_v2` falls back to the lossy reader, which still decodes
/// every record the streams hold.
#[test]
fn flipped_header_counts_fail_cleanly_instead_of_aborting() {
    let image = golden_v2_bytes("stream.pdt");
    let v2 = V2Trace::parse(&image).unwrap();
    let (clean, _) = v2.analyze(Parallelism::Serial);
    // The stream count is the u32 after the 36-byte header; the name
    // count is the u32 after the last stream's footer directory.
    let last = v2.file().streams.last().unwrap();
    let name_count = last.dir_off + last.n_blocks as usize * ENTRY_BYTES;
    for at in [36 + 3, name_count + 3] {
        let mut bad = image.clone();
        bad[at] = 0xff;
        assert!(
            matches!(V2Trace::parse(&bad), Err(V2Error::Truncated { .. })),
            "byte {at}: one-shot parse"
        );
        let mut strict = V2Ingest::new();
        strict.push(&bad).unwrap();
        assert!(strict.finish().is_err(), "byte {at}: strict close");
        let (a, stats) = analyze_v2(&bad, Parallelism::Serial).unwrap();
        assert_eq!(stats.blocks_corrupt, 0, "byte {at}");
        assert_eq!(a.events(), clean.events(), "byte {at}: events");
        assert_eq!(a.loss(), clean.loss(), "byte {at}: loss");
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
    let (a, _) = analyze_v2(&image, Parallelism::Serial).unwrap();
    assert!(gap_total(&a) > 0, "the missing bytes are a gap");
}

/// Sweep: truncate a packed image at *every* byte offset and push it
/// through the chunked reader — no cut point may panic, and the lossy
/// close must always produce an analysis once the header is complete.
#[test]
fn every_truncation_offset_is_survivable() {
    let trace = golden("matmul.pdt");
    let image = pack(&trace, BLOCK_RECORDS);
    for cut in 0..image.len() {
        let mut ing = V2Ingest::new();
        ing.push(&image[..cut]).unwrap();
        match ing.finish_lossy() {
            Ok(()) => {
                ing.snapshot().expect("snapshot after lossy close");
            }
            Err(_) => assert!(cut < 36, "lossy close refused at offset {cut}"),
        }
    }
}
