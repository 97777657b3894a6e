//! v2-container differential suite: every golden trace (including the
//! fault-injected and racy ones) packed into the blocked, compressed
//! `PDT2` container and re-analyzed must produce **byte-identical**
//! products to the v1 path — through the one `.pdt2` reader,
//! [`V2Trace`], in memory and read from a file, across `Serial` and
//! `Workers(4)`. The reader decodes each block straight into its
//! stream's run; the v1-roundtrip oracle in `common/roundtrip.rs`
//! (clean runs re-encoded canonically, gap bytes carried verbatim, fed
//! through `IngestSession`) is an independent second decoder. This
//! suite differentials the reader against the oracle — products *and*
//! codec stats — on every golden, and on every truncation of every
//! golden `.pdt2` and every single-byte flip of the block region of
//! `stream.pdt2`. The same sweep holds the strict policy of
//! [`Analysis::open`] to its reference, the whole image unpacked and
//! analyzed strictly as v1. (The file-backed v1 reader has its own suite,
//! `tests/file_backed.rs`; the damage shapes of `.pdt2` images are in
//! `tests/v2_corruption.rs`.)
//!
//! Also pins the block-skip acceptance criterion: a windowed query
//! decodes only the packed blocks whose footer time range overlaps
//! the window (asserted via [`ta::v2read::WindowQuery`] codec stats
//! against a directory walk), and returns exactly the events
//! [`EventFilter`] selects from the full analysis.

use std::os::unix::fs::FileExt;
use std::path::Path;

use pdt::v2::{
    pack, unpack, Anchoring, BlockKind, DEFAULT_BLOCK_RECORDS, FLAG_UNPLACED, PREFIX_BYTES,
};
use ta::{analyze_v2, Analysis, EventFilter, Parallelism, V2Trace};

#[path = "common/goldens.rs"]
mod goldens;
use goldens::{golden, golden_v2_bytes, GOLDEN};
#[path = "common/roundtrip.rs"]
mod roundtrip;
use roundtrip::{assert_matches, strict_reference, Roundtrip};
#[path = "common/tempfile.rs"]
mod tempfile;
use tempfile::TempFile;

/// Small enough that every golden spans many blocks.
const BLOCK_RECORDS: usize = 8;

const PARS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Workers(4)];

fn assert_products_eq(reference: &Analysis, got: &Analysis, what: &str) {
    assert_eq!(got.events(), reference.events(), "{what}: events");
    assert_eq!(got.loss(), reference.loss(), "{what}: loss");
    assert_eq!(got.intervals(), reference.intervals(), "{what}: intervals");
    assert_eq!(got.stats(), reference.stats(), "{what}: stats");
    assert_eq!(got.timeline(), reference.timeline(), "{what}: timeline");
    assert_eq!(got.occupancy(), reference.occupancy(), "{what}: occupancy");
    assert_eq!(got.phases(), reference.phases(), "{what}: phases");
    assert_eq!(got.index(), reference.index(), "{what}: index");
    assert_eq!(got.lint(), reference.lint(), "{what}: lint");
}

/// `unpack(pack(t))` reproduces a decode-equivalent trace, and packing
/// is idempotent: once canonicalized, the round trip is the identity
/// on bytes. (Fault-injected goldens may hold non-canonical-but-
/// decodable bytes that pack canonicalizes, so byte identity is pinned
/// on the second trip.)
#[test]
fn v2_roundtrip_reproduces_the_trace() {
    for name in GOLDEN {
        let trace = golden(name);
        for br in [1, BLOCK_RECORDS, DEFAULT_BLOCK_RECORDS] {
            let once = unpack(&pack(&trace, br)).unwrap();
            assert_eq!(once.header, trace.header, "{name} @{br}: header");
            assert_eq!(once.ctx_names, trace.ctx_names, "{name} @{br}: names");
            assert_eq!(once.streams.len(), trace.streams.len(), "{name} @{br}");
            let twice = unpack(&pack(&once, br)).unwrap();
            assert_eq!(twice.to_bytes(), once.to_bytes(), "{name} @{br}: bytes");
        }
    }
}

/// The on-disk `.pdt2` corpus is exactly `pack` of the matching v1
/// golden at the corpus block size — so the checked-in files can never
/// drift from the codec, and unpacking them analyzes identically.
#[test]
fn on_disk_pdt2_goldens_match_the_codec() {
    for name in GOLDEN {
        let trace = golden(name);
        let on_disk = golden_v2_bytes(name);
        assert_eq!(
            on_disk,
            pack(&trace, BLOCK_RECORDS),
            "{name}: .pdt2 golden drifted from the codec \
             (regenerate with `cargo run -p bench --bin make_golden`)"
        );
        let (a, stats) = V2Trace::parse(&on_disk)
            .unwrap()
            .analyze(Parallelism::Serial)
            .unwrap();
        assert_eq!(stats.blocks_corrupt, 0, "{name}");
        let reference = Analysis::of(&trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        reference.build_products(Parallelism::Serial);
        a.build_products(Parallelism::Serial);
        assert_products_eq(&reference, &a, name);
    }
}

/// One-shot v2 analysis equals the v1 reference on every golden, for
/// every parallelism setting, with zero corrupt blocks.
#[test]
fn v2_one_shot_products_match_v1() {
    for name in GOLDEN {
        let trace = golden(name);
        let reference = Analysis::of(&trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        reference.build_products(Parallelism::Serial);

        for br in [BLOCK_RECORDS, DEFAULT_BLOCK_RECORDS] {
            let image = pack(&trace, br);
            for par in PARS {
                let v2 = V2Trace::parse(&image).unwrap();
                let (a, stats) = v2.analyze(par).unwrap();
                a.build_products(par);
                assert_products_eq(&reference, &a, &format!("{name} @{br} {par:?}"));
                assert_eq!(stats.blocks_corrupt, 0, "{name} @{br} {par:?}");
                assert_eq!(
                    stats.blocks_decoded,
                    v2.file().total_blocks(),
                    "{name} @{br} {par:?}: analyze must decode every block"
                );
            }
        }
    }
}

/// The file-backed reader equals the v1 reference: the container walk
/// reads the structure with positioned reads and each decode shard
/// reads its stream block by block from the file.
#[test]
fn v2_streamed_products_match_v1() {
    for name in GOLDEN {
        let trace = golden(name);
        let reference = Analysis::of(&trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        reference.build_products(Parallelism::Serial);
        let tmp = TempFile::new(name, &pack(&trace, BLOCK_RECORDS));
        let file = tmp.open();
        let v2 = V2Trace::read(&file).unwrap();
        assert_eq!(v2.file().truncation, None, "{name}");

        for par in PARS {
            let (a, stats) = v2.analyze(par).unwrap();
            assert_eq!(stats.blocks_corrupt, 0, "{name} {par:?}");
            a.build_products(par);
            assert_products_eq(&reference, &a, &format!("{name} {par:?} file-backed"));
        }
    }
}

/// The acceptance criterion: a windowed query decodes **only** the
/// packed blocks whose footer `[min_tb, max_tb]` overlaps the window,
/// and returns exactly the events the indexed [`EventFilter`] path
/// selects from the fully decoded analysis.
#[test]
fn windowed_query_decodes_only_overlapping_blocks() {
    for name in GOLDEN {
        let trace = golden(name);
        let image = pack(&trace, BLOCK_RECORDS);
        let v2 = V2Trace::parse(&image).unwrap();
        let (a, _) = v2.analyze(Parallelism::Serial).unwrap();
        let events = a.events();
        assert!(!events.is_empty(), "{name}: empty golden");

        // An interior window plus the edges and the full span.
        let t_first = events.first().unwrap().time_tb;
        let t_last = events.last().unwrap().time_tb;
        let t_lo = events[events.len() / 3].time_tb;
        let t_hi = events[2 * events.len() / 3].time_tb;
        let windows = [
            (t_lo, t_hi),
            (t_first, t_lo),
            (t_hi, t_last + 1),
            (t_first, t_last + 1),
            (t_last + 10, t_last + 20),
        ];

        for (t0, t1) in windows {
            let wq = v2.window_events(t0, t1).unwrap();

            let expect = EventFilter::new().in_window(t0, t1).apply(&a);
            assert_eq!(
                wq.events.len(),
                expect.len(),
                "{name} [{t0},{t1}): event count"
            );
            for (got, want) in wq.events.iter().zip(expect.iter()) {
                assert_eq!(got, *want, "{name} [{t0},{t1})");
            }

            // Count, from the footer directory alone, the packed
            // placeable blocks that overlap the window: the query must
            // decode exactly those and skip everything else.
            let mut overlapping = 0u64;
            let mut total = 0u64;
            for (si, meta) in v2.file().streams.iter().enumerate() {
                for bi in 0..meta.n_blocks {
                    total += 1;
                    let entry = v2.file().entry(si, bi).unwrap();
                    if meta.anchoring != Anchoring::Unanchored
                        && entry.flags & FLAG_UNPLACED == 0
                        && entry.kind == BlockKind::Packed
                        && entry.overlaps(t0, t1)
                    {
                        overlapping += 1;
                    }
                }
            }
            assert_eq!(
                wq.stats.blocks_decoded, overlapping,
                "{name} [{t0},{t1}): decoded exactly the overlapping packed blocks"
            );
            assert_eq!(
                wq.stats.blocks_decoded + wq.stats.blocks_skipped + wq.stats.blocks_corrupt,
                total,
                "{name} [{t0},{t1}): every block accounted"
            );
        }

        // The interior window must actually skip something, or the
        // criterion is vacuous.
        let wq = v2.window_events(t_lo, t_hi).unwrap();
        assert!(
            wq.stats.blocks_skipped > 0,
            "{name}: interior window skipped no block"
        );
        assert!(
            wq.stats.blocks_decoded < v2.file().total_blocks(),
            "{name}: interior window decoded everything"
        );
    }
}

/// The direct-to-columns fast path is differentialed against the
/// v1-roundtrip oracle explicitly: identical products **and**
/// identical [`pdt::CodecStats`] — the fast path must account for
/// every block, record, payload byte and reconstructed raw byte
/// exactly as the oracle does, on every golden, at small and default
/// block sizes, serial and parallel.
#[test]
fn v2_direct_decode_matches_roundtrip_oracle() {
    for name in GOLDEN {
        let trace = golden(name);
        for br in [BLOCK_RECORDS, DEFAULT_BLOCK_RECORDS] {
            let image = pack(&trace, br);
            let v2 = V2Trace::parse(&image).unwrap();
            for par in PARS {
                let oracle = Roundtrip::walk(&image).unwrap().analyze(par).unwrap();
                let (oracle, oracle_stats) = (oracle.analysis, oracle.stats);
                let (fast, fast_stats) = v2.analyze(par).unwrap();
                assert_eq!(
                    fast_stats, oracle_stats,
                    "{name} @{br} {par:?}: codec stats diverge"
                );
                oracle.build_products(par);
                fast.build_products(par);
                assert_products_eq(&oracle, &fast, &format!("{name} @{br} {par:?} direct"));
            }
        }
    }
}

/// The file-backed reader's codec stats match the in-memory oracle on
/// a clean image: every block decoded (none skipped, none corrupt), the
/// same record and byte totals — through the direct decoder and
/// through the roundtrip decoder reading the file.
#[test]
fn v2_chunked_stats_match_roundtrip_oracle() {
    for name in GOLDEN {
        let image = pack(&golden(name), BLOCK_RECORDS);
        let v2 = V2Trace::parse(&image).unwrap();
        let oracle_stats = Roundtrip::walk(&image)
            .unwrap()
            .analyze(Parallelism::Serial)
            .unwrap()
            .stats;

        let tmp = TempFile::new(name, &image);
        let file = tmp.open();
        let from_file = V2Trace::read(&file).unwrap();
        for par in PARS {
            let (_, stats) = from_file.analyze(par).unwrap();
            assert_eq!(
                stats, oracle_stats,
                "{name} {par:?}: file-backed stats diverge"
            );
            let stats = Roundtrip::read(&file).unwrap().analyze(par).unwrap().stats;
            assert_eq!(stats, oracle_stats, "{name} {par:?}: file-backed roundtrip");
        }
        assert_eq!(
            oracle_stats.blocks_decoded,
            v2.file().total_blocks(),
            "{name}: the oracle must decode every block"
        );
    }
}

/// The direct decoder, in memory and file-backed, and the roundtrip
/// oracle agree with the v1 reader on stream layouts the goldens do not
/// have: the PPE stream packed last, so every sync anchor arrives after
/// the SPE data it places, and an SPE stream packed twice, so one core
/// is fed by two runs. Products and the loss report must match
/// [`Analysis::of`] on the same v1 trace, through [`V2Trace::analyze`]
/// in memory and on a file and through the roundtrip oracle.
#[test]
fn unusual_stream_layouts_decode_identically_everywhere() {
    let base = golden("pipeline.pdt");
    let mut ppe_last = base.clone();
    ppe_last.streams.rotate_left(1);
    assert!(!ppe_last.streams.last().unwrap().core.is_spe());
    let mut spe_twice = base.clone();
    let spe = spe_twice
        .streams
        .iter()
        .find(|s| s.core.is_spe())
        .unwrap()
        .clone();
    spe_twice.streams.push(spe);

    for (what, trace) in [("ppe last", &ppe_last), ("spe twice", &spe_twice)] {
        let reference = Analysis::of(trace)
            .parallelism(Parallelism::Serial)
            .run()
            .unwrap();
        reference.build_products(Parallelism::Serial);
        assert!(
            reference.loss().streams.iter().all(|s| !s.unanchored),
            "{what}: every SPE stream is anchored"
        );
        let image = pack(trace, BLOCK_RECORDS);
        let v2 = V2Trace::parse(&image).unwrap();
        let tmp = TempFile::new(what, &image);
        let file = tmp.open();
        let from_file = V2Trace::read(&file).unwrap();
        for par in PARS {
            let (direct, direct_stats) = v2.analyze(par).unwrap();
            let oracle = Roundtrip::walk(&image).unwrap().analyze(par).unwrap();
            let (oracle, oracle_stats) = (oracle.analysis, oracle.stats);
            assert_eq!(direct_stats, oracle_stats, "{what} {par:?}: codec stats");
            let (file_backed, file_stats) = from_file.analyze(par).unwrap();
            assert_eq!(
                file_stats, oracle_stats,
                "{what} {par:?}: file-backed codec stats"
            );
            for (reader, a) in [
                ("in memory", &direct),
                ("file-backed", &file_backed),
                ("roundtrip", &oracle),
            ] {
                a.build_products(par);
                assert_products_eq(&reference, a, &format!("{what} {par:?} {reader}"));
            }
        }
    }
}

/// Holds the reader to the oracle on `image`, and on `file`, which
/// holds the same bytes at `path`: [`analyze_v2`] and the file-backed
/// [`V2Trace::analyze`], at `Serial` and `Workers(3)`, each equal the
/// oracle, or fail with its error. The strict analysis of `path`
/// through [`Analysis::open`] gives the products or the error text of
/// [`strict_reference`].
fn assert_matches_oracle(what: &str, image: &[u8], file: &std::fs::File, path: &Path) {
    for par in [Parallelism::Serial, Parallelism::Workers(3)] {
        let at = format!("{what} {par:?} strict");
        let got = Analysis::open(path)
            .map_err(|e| e.to_string())
            .and_then(|b| b.parallelism(par).strict().run().map_err(|e| e.to_string()));
        match (strict_reference(image, par), got) {
            (Ok(want), Ok(got)) => assert_products_eq(&want, &got, &at),
            (want, got) => assert_eq!(got.err(), want.err(), "{at}"),
        }
    }
    let oracle = Roundtrip::walk(image).map(|r| r.analyze(Parallelism::Serial).unwrap());
    let read = V2Trace::read(file).map_err(|e| e.to_string());
    let oracle = match oracle {
        Ok(oracle) => oracle,
        Err(e) => {
            for par in [Parallelism::Serial, Parallelism::Workers(3)] {
                assert_eq!(analyze_v2(image, par).err(), Some(e.clone()), "{what}");
            }
            let oracle_read = Roundtrip::read(file).map_err(|e| e.to_string());
            assert_eq!(read.err(), oracle_read.err(), "{what}: file-backed");
            return;
        }
    };
    let v2 = read.unwrap();
    for par in [Parallelism::Serial, Parallelism::Workers(3)] {
        let (a, stats) = analyze_v2(image, par).unwrap();
        assert_matches(&format!("{what} {par:?}"), &a, &stats, &oracle);
        let (a, stats) = v2.analyze(par).unwrap();
        assert_matches(&format!("{what} {par:?} file-backed"), &a, &stats, &oracle);
    }
}

/// The byte-identity sweep over damaged images: every truncation of
/// every golden `.pdt2`, and every single-byte flip (xor 0xff) of bytes
/// 40–2599 of `stream.pdt2` (its stream headers, blocks, footers and
/// name table). The reader decodes a clean stream directly and reads a
/// damaged one again through its own lossy cursor, so this holds that
/// second path to the oracle on every shape of damage. Under the strict
/// policy a damaged stream is unpacked instead; the flips include one
/// (byte 56) that understates SPE0's raw length by 193 bytes, which the
/// lossy clean check lets through and the strict policy refuses.
#[test]
fn damaged_images_match_the_roundtrip_oracle() {
    for name in GOLDEN {
        let image = golden_v2_bytes(name);
        let tmp = TempFile::new(name, &image);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tmp.0)
            .unwrap();
        for cut in (0..=image.len()).rev() {
            file.set_len(cut as u64).unwrap();
            assert_matches_oracle(&format!("{name} @{cut}"), &image[..cut], &file, &tmp.0);
        }
    }

    let image = golden_v2_bytes("stream.pdt");
    assert_eq!(image.len(), 2600, "stream.pdt2 changed size");
    let tmp = TempFile::new("flips", &image);
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&tmp.0)
        .unwrap();
    let mut bad = image.clone();
    for at in 40..2600 {
        bad[at] ^= 0xff;
        file.write_all_at(&bad[at..=at], at as u64).unwrap();
        assert_matches_oracle(&format!("stream.pdt2 ^{at}"), &bad, &file, &tmp.0);
        bad[at] ^= 0xff;
        file.write_all_at(&bad[at..=at], at as u64).unwrap();
    }

    bad[56] ^= 0xff;
    file.write_all_at(&bad[56..=56], 56).unwrap();
    let (lossy, _) = analyze_v2(&bad, Parallelism::Serial).unwrap();
    let (clean, _) = analyze_v2(&image, Parallelism::Serial).unwrap();
    assert_eq!(
        lossy.summary(),
        clean.summary(),
        "^56: lossy reads it clean"
    );
    let strict = Analysis::open(&tmp.0).unwrap().strict().run().unwrap_err();
    assert_eq!(
        strict.to_string(),
        "v2 container corrupt: stream raw length"
    );
}

/// Under the strict policy a container error in any stream outranks a
/// malformed record in an earlier one, as when the whole image is
/// unpacked before any stream decodes: `stream_faulted.pdt2` fails on
/// a record of its PPE stream, but once a payload byte of its last
/// stream's first block is flipped it fails on that block's CRC.
#[test]
fn strict_container_errors_outrank_earlier_record_errors() {
    let mut image = golden_v2_bytes("stream_faulted.pdt");
    let record = strict_reference(&image, Parallelism::Serial).err();
    assert!(record
        .unwrap()
        .starts_with("corrupt record in PPE.0 stream"));
    let last = *V2Trace::parse(&image)
        .unwrap()
        .file()
        .streams
        .last()
        .unwrap();
    image[last.blocks_off + PREFIX_BYTES] ^= 0xff;
    let tmp = TempFile::new("precedence", &image);
    for par in PARS {
        let got = Analysis::open(&tmp.0)
            .unwrap()
            .parallelism(par)
            .strict()
            .run();
        let got = got.err().map(|e| e.to_string());
        assert_eq!(got, strict_reference(&image, par).err(), "{par:?}");
        assert_eq!(
            got.as_deref(),
            Some("v2 container corrupt: block payload crc")
        );
    }
}
