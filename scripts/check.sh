#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy redundant_clone over ta =="
# The columnar hot path must stay clone-free; redundant_clone is
# nursery-grade so it gates only the analysis crate.
cargo clippy -p ta --all-targets -- -D warnings -D clippy::redundant_clone

echo "== clippy feature matrix over ta =="
# ta builds with and without its one feature, scan-oracle; both must
# stay warning-free (the default is covered by the workspace pass
# above).
cargo clippy -p ta --all-targets --no-default-features -- -D warnings
cargo clippy -p ta --all-targets --no-default-features --features scan-oracle -- -D warnings

echo "== cargo doc --workspace --no-deps (warnings denied) =="
# Broken intra-doc links fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== golden differential suite =="
# Replays the seeded corpus in tests/golden/ through the trace index
# and the naive-scan oracle; any divergence (including the suspect
# flag on the fault-injected trace) fails the gate.
cargo test -q --test golden_queries

echo "== golden lint suite =="
# Pins the exact lint findings on the seeded-racy golden and requires
# every clean golden (including the fault-injected one, via the
# suspect downgrade) to gate green.
cargo test -q --test golden_lints

echo "== lint-engine smoke =="
# Fresh traces through ta::lint: the racy kernel must produce firm
# dma-race/unwaited-tag-group findings, clean workloads must gate
# green, and a damaged trace must degrade to suspect, not panic.
cargo run -q -p bench --bin lint_smoke

echo "== happens-before engine differential =="
# Replays every golden through both race detectors and asserts the
# engine's precision/recall dominance over the retired window
# heuristic (strictly more races on the seeded-racy golden, zero on
# the synchronized mailbox-paced one the heuristic false-positives
# on, all of the same-tag races the heuristic cannot see), plus a
# per-trace lint wall-time budget. Emits BENCH_lint.json.
cargo run -q --release -p bench --bin hb_smoke

echo "== ta-cli lint gate semantics =="
# The CLI must exit nonzero on the seeded-racy golden and zero on a
# clean one.
if cargo run -q -p ta --bin ta-cli -- lint tests/golden/stream_racy.pdt > /dev/null 2>&1; then
  echo "ta-cli lint accepted the seeded-racy golden" >&2
  exit 1
fi
cargo run -q -p ta --bin ta-cli -- lint tests/golden/stream.pdt > /dev/null

echo "== ta-cli cross-parallelism smoke =="
# Ingest decodes one shard per SPE stream under -j, so a golden's
# summary, SVG timeline and window summaries (whole trace and the
# middle 1% of its span), as .pdt and as its .pdt2 packing, must be
# byte-identical at -j serial and at -j 4. So must the answers that
# read the global event order built on demand: the events listing, the
# SARIF lint report and the middle-1% event listing. The summary and the
# SVG timeline must also be byte-identical between the .pdt and the
# .pdt2.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
ta_cli() { cargo run -q --release -p ta --bin ta-cli -- "$@"; }
ta_cli pack tests/golden/stream.pdt "$smoke_dir/stream.pdt2" > /dev/null
span=$(ta_cli query tests/golden/stream.pdt --summary | head -1)
span=${span#*over trace [}
span=${span%]*}
t_start=${span%,*}
t_end=${span#*, }
mid=$(( (t_start + t_end) / 2 ))
half=$(( (t_end - t_start) / 200 ))
for trace in tests/golden/stream.pdt "$smoke_dir/stream.pdt2"; do
  for j in serial 4; do
    ta_cli summary "$trace" -j "$j" > "$smoke_dir/summary.$j"
    ta_cli timeline "$trace" --svg "$smoke_dir/timeline.$j.svg" -j "$j" > /dev/null
    ta_cli query "$trace" --summary -j "$j" > "$smoke_dir/query.$j"
    ta_cli query "$trace" --summary --from $(( mid - half )) --to $(( mid + half + 1 )) \
      -j "$j" > "$smoke_dir/window.$j"
    ta_cli events "$trace" -j "$j" > "$smoke_dir/events.$j"
    ta_cli lint "$trace" --format sarif -j "$j" > "$smoke_dir/sarif.$j"
    ta_cli query "$trace" --from $(( mid - half )) --to $(( mid + half + 1 )) \
      -j "$j" > "$smoke_dir/listing.$j"
  done
  cmp "$smoke_dir/summary.serial" "$smoke_dir/summary.4"
  cmp "$smoke_dir/timeline.serial.svg" "$smoke_dir/timeline.4.svg"
  cmp "$smoke_dir/query.serial" "$smoke_dir/query.4"
  cmp "$smoke_dir/window.serial" "$smoke_dir/window.4"
  cmp "$smoke_dir/events.serial" "$smoke_dir/events.4"
  cmp "$smoke_dir/sarif.serial" "$smoke_dir/sarif.4"
  cmp "$smoke_dir/listing.serial" "$smoke_dir/listing.4"
  ext=${trace##*.}
  cp "$smoke_dir/summary.serial" "$smoke_dir/summary.$ext"
  cp "$smoke_dir/timeline.serial.svg" "$smoke_dir/timeline.$ext.svg"
done
cmp "$smoke_dir/summary.pdt" "$smoke_dir/summary.pdt2"
cmp "$smoke_dir/timeline.pdt.svg" "$smoke_dir/timeline.pdt2.svg"

echo "== ta-cli damaged-file smoke =="
# ta-cli reads both containers from the file (a .pdt's streams in
# chunks, a .pdt2's blocks one at a time), so damage must still end in
# loss accounting (exit 0) or an error (exit 1), never a panic (101) or
# an abort (134): summary, loss and --strict summary on a truncated
# copy and on a byte-flipped copy of a golden, on a truncated .pdt2,
# on a .pdt2 with a failing block, and on two .pdt2 copies whose stream
# count or name count claims billions of entries. Those two run out of
# bytes inside the name table, so `loss` must name the truncation.
head -c 3000 tests/golden/stream.pdt > "$smoke_dir/truncated.pdt"
head -c 2000 tests/golden/stream.pdt2 > "$smoke_dir/truncated.pdt2"
cp tests/golden/stream.pdt "$smoke_dir/flipped.pdt"
# Zero the granule counts of two SPE0 records (the stream's data starts
# at byte 304), so the lossy ingest opens a gap there.
printf '\0' | dd of="$smoke_dir/flipped.pdt" bs=1 seek=432 conv=notrunc status=none
printf '\0' | dd of="$smoke_dir/flipped.pdt" bs=1 seek=1056 conv=notrunc status=none
# The high bytes of stream.pdt2's u32 stream count (after the 36-byte
# header) and of its u32 name count.
cp tests/golden/stream.pdt2 "$smoke_dir/stream_count.pdt2"
printf '\377' | dd of="$smoke_dir/stream_count.pdt2" bs=1 seek=39 conv=notrunc status=none
cp tests/golden/stream.pdt2 "$smoke_dir/name_count.pdt2"
printf '\377' | dd of="$smoke_dir/name_count.pdt2" bs=1 seek=2569 conv=notrunc status=none
# Byte 300 lies in the payload of SPE0's first block (from byte 287),
# so that block fails its CRC and the stream is read again.
cp tests/golden/stream.pdt2 "$smoke_dir/block.pdt2"
printf '\377' | dd of="$smoke_dir/block.pdt2" bs=1 seek=300 conv=notrunc status=none
for damaged in truncated.pdt flipped.pdt truncated.pdt2 block.pdt2 stream_count.pdt2 name_count.pdt2; do
  for cmd in summary loss "--strict summary"; do
    status=0
    # shellcheck disable=SC2086 # $cmd holds the flag and the command.
    ta_cli $cmd "$smoke_dir/$damaged" > /dev/null 2>&1 || status=$?
    if [ "$status" -gt 1 ]; then
      echo "ta-cli $cmd exited $status on the damaged $damaged" >&2
      exit 1
    fi
  done
done
for damaged in stream_count.pdt2 name_count.pdt2; do
  ta_cli loss "$smoke_dir/$damaged" | grep -q '^truncated: image ends inside the ' \
    || { echo "ta-cli loss names no truncation on $damaged" >&2; exit 1; }
done
# The failing block's 19 records become one 304-byte gap in SPE0.
ta_cli loss "$smoke_dir/block.pdt2" | grep -qx 'SPE0,44,1,304,19,0,false' \
  || { echo "ta-cli loss on block.pdt2 lacks the SPE0 gap row" >&2; exit 1; }

echo "== fault-injection smoke (3 seeds) =="
# Injects every corruption mode into a real trace and asserts the lossy
# decoder terminates, serial == parallel, and the loss accounting
# matches the damage dealt (fault_smoke exits nonzero otherwise).
cargo run -q -p bench --bin fault_smoke -- 1 2 3

echo "== indexed-query smoke (1 size point) =="
# Asserts index == oracle on a window matrix and that the indexed
# window query beats the naive rescan by >= 5x, and that the whole-trace
# SVG of a DMA storm grows by under 10% when the storm has 4x the events
# (exits nonzero on divergence, a speedup miss or an SVG that grows).
cargo run -q --release -p bench --bin query_smoke

echo "== parallel-product smoke (1 size point) =="
# Asserts parallel products identical to serial products on all
# goldens; that the columnar pipeline beats the serial row path by
# >= 1.8x at 4 workers and >= 1.3x at 1 on the large storm trace; and
# that the ta::exec shard fan-out scales monotonically (each step of
# the 1/2/4/8-worker curve within a 10% no-regression budget, plus a
# 1.5x 4-vs-1-worker floor on hosts with >= 4 CPUs). Emits
# BENCH_products.json (with host_cpus + the shard count in meta) and
# BENCH_ingest.json at the repo root.
cargo run -q --release -p bench --bin product_smoke

echo "== scheduler-determinism suite =="
# Every derived product must be byte-identical across Serial,
# Workers(2), Workers(4), Auto and repeated runs, on all goldens,
# through both the one-shot and streaming paths.
cargo test -q --test determinism

echo "== streaming-ingestion differential suite =="
# Every golden fed to ImageIngest as 1-byte, 4 KiB, and random-split
# chunks must match the one-shot analysis in every product, and
# snapshot epochs must stay frozen under concurrent reads.
cargo test -q --test stream_differential

echo "== streaming-ingestion smoke =="
# Chunked-vs-oneshot parity on the goldens; the incremental bound:
# appending a ~1% tail after a snapshot may rewrite at most 5% of the
# lane checkpoints, counted over every lane with the streams still open;
# and the follow bound: clean goldens and the storm trace fed in 120
# appends rebuild the index at most once per stream. Emits
# BENCH_stream.json at the repo root.
cargo run -q --release -p bench --bin stream_smoke

echo "== v2-container differential + corruption suites =="
# Every golden packed into the blocked, compressed PDT2 container must
# re-analyze byte-identically to v1 (in memory and read from a file,
# Serial and Workers(4)); windowed queries must decode only
# footer-overlapping blocks; damage and truncation at every offset must
# degrade to DecodeGap accounting and a truncation record, identically
# in memory and from a file, never a panic. The reader decodes a clean
# stream straight from its blocks and reads a damaged one again through
# a lossy cursor; both are held to the v1-roundtrip oracle of
# tests/common/roundtrip.rs on every truncation of every golden .pdt2
# and every byte flip of stream.pdt2.
cargo test -q --test v2_differential
cargo test -q --test v2_corruption
cargo test -q --test prop_v2_codec

echo "== trace-volume smoke (v2 container) =="
# Density gate (<= 6 B/event on dense traces vs 16 raw), a >= 10M-event
# synthetic written through the streaming V2Writer to a file and
# decoded from the file through the file-backed V2Trace under a
# peak-RSS budget and an in-memory <= 100 B/event ceiling, a
# decode-throughput floor for the direct path (3x the roundtrip
# baseline, file-backed and in memory), a 1% window on the file that
# may decode 5% of the blocks and read 5% of the file's bytes, the
# 100M-event file-backed point when the projected wall time fits its
# budget, and a 5% no-regression gate on the deterministic bytes/event
# figures. Emits BENCH_volume.json.
cargo run -q --release -p bench --bin volume_smoke

echo "== ta-serve / ta-cli follow smoke =="
# The live-tail front ends must serve a golden end to end: ta-serve
# answers the full command set over stdin within its rebuild bound,
# refuses oversized and unknown request lines without dropping the
# session, and ta-cli follow tails a complete file to its summary.
serve_out=$(printf 'open tests/golden/matmul.pdt\nsummary\nsummarize 0 4000\nloss\nevents 5\nstats\nquit\n' \
  | cargo run -q --release -p ta --bin ta-serve)
if printf '%s\n' "$serve_out" | grep -q '^err '; then
  echo "ta-serve returned an error:" >&2
  printf '%s\n' "$serve_out" | grep '^err ' >&2
  exit 1
fi
printf '%s\n' "$serve_out" | grep -q 'complete=true' || { echo "ta-serve never completed the image" >&2; exit 1; }
printf '%s\n' "$serve_out" | grep -q 'PDT trace summary' || { echo "ta-serve summary missing" >&2; exit 1; }
printf '%s\n' "$serve_out" | grep -q '^ok tasks=' || { echo "ta-serve stats missing" >&2; exit 1; }
# A clean v1 image is followed with at most one full index rebuild per
# stream, the bound stream_smoke's follow gate holds every golden to.
# The stream count is the little-endian u32 after the 36-byte header.
read -r b0 b1 b2 b3 <<< "$(od -An -tu1 -j36 -N4 tests/golden/matmul.pdt)"
streams=$(( b0 | b1 << 8 | b2 << 16 | b3 << 24 ))
rebuilds=$(printf '%s\n' "$serve_out" | sed -n 's/^ok tasks=.* full_rebuilds=\([0-9]*\) .*/\1/p')
if [ -z "$rebuilds" ] || [ "$rebuilds" -gt "$streams" ]; then
  echo "ta-serve rebuilt the index ${rebuilds:-?} times for $streams streams" >&2
  exit 1
fi
# An oversized request line and an unknown command are refused, and the
# session keeps answering afterwards.
long_line=$(head -c 70000 /dev/zero | tr '\0' 'x')
bad_out=$(printf 'open tests/golden/matmul.pdt\n%s\nbogus\nsummary\nquit\n' "$long_line" \
  | cargo run -q --release -p ta --bin ta-serve)
printf '%s\n' "$bad_out" | grep -q '^err line too long$' || { echo "ta-serve accepted an oversized line" >&2; exit 1; }
printf '%s\n' "$bad_out" | grep -q '^err unknown command' || { echo "ta-serve accepted an unknown command" >&2; exit 1; }
printf '%s\n' "$bad_out" | grep -q 'PDT trace summary' || { echo "ta-serve stopped answering after a bad line" >&2; exit 1; }
cargo run -q --release -p ta --bin ta-cli -- follow tests/golden/stream.pdt --max-polls 2 \
  | grep -q 'PDT trace summary' || { echo "ta-cli follow failed" >&2; exit 1; }

echo "all checks passed"
