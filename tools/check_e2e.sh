#!/usr/bin/env bash
# End-to-end CLI gate (ctest `e2e_cli`, also run in CI): generate a
# deterministic FASTA reference + FASTQ read set with asmcap_testgen, run
# asmcap_search over them, and diff the DETERMINISTIC output columns
# (read, status, matches, hits — `cut -f1-4`) against the committed golden
# files in <golden-dir>:
#   e2e_search.tsv          default path (functional backend, ideal sensing);
#   e2e_search_circuit.tsv  cell-accurate circuit backend with analog noise
#                           (--backend circuit --noisy) at T=1, where SA
#                           noise flips a decision the ideal path makes.
# It also asserts that --noisy without --backend circuit and a negative
# --seed are usage errors, that the default seed spelled out reproduces
# the noisy golden, that --workers 1 and --workers 4 --max-in-flight 3
# write byte-identical TSVs (all six columns) on the ideal and on the
# noisy path, and, in zlib builds, that a truncated gzip reference is an
# error.
# The latency/energy columns are deterministic doubles of the cost model
# but may differ in the last ULP across compilers/ISAs (FMA contraction),
# so they are excluded from the byte-compare; the decision digest equality
# is separately enforced by tests/test_stream_reader.cpp and
# tests/test_workload_pins.cpp.
#
# usage: check_e2e.sh <asmcap_testgen> <asmcap_search> <golden-dir>
# Regenerate both goldens after an intentional decision change with:
#   ASMCAP_UPDATE_GOLDEN=1 tools/check_e2e.sh build/asmcap_testgen \
#       build/asmcap_search tests/golden
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <asmcap_testgen> <asmcap_search> <golden-dir>" >&2
  exit 2
fi
TESTGEN=$1
SEARCH=$2
GOLDEN_DIR=$3

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# check_golden <name> <search flags...>: runs asmcap_search over the
# generated data with the given extra flags and diffs `cut -f1-4` of its
# TSV against <golden-dir>/<name>.tsv (or rewrites that file under
# ASMCAP_UPDATE_GOLDEN=1). stderr goes to $WORK/<name>.log.
check_golden() {
  local name=$1
  shift
  local golden="$GOLDEN_DIR/$name.tsv"
  if ! "$SEARCH" \
    --reference "$WORK/ref.fa" --reads "$WORK/reads.fq" \
    --width 128 --array-rows 64 --arrays 4 --shards 2 \
    --workers 2 --chunk 8 "$@" \
    --output "$WORK/$name.tsv" 2> "$WORK/$name.log"; then
    echo "check_e2e: FAIL — asmcap_search $* exited non-zero" >&2
    cat "$WORK/$name.log" >&2
    exit 1
  fi
  cut -f1-4 "$WORK/$name.tsv" > "$WORK/$name.cut.tsv"

  if [ "${ASMCAP_UPDATE_GOLDEN:-0}" = "1" ]; then
    mkdir -p "$GOLDEN_DIR"
    cp "$WORK/$name.cut.tsv" "$golden"
    echo "check_e2e: regenerated $golden"
    return 0
  fi
  if [ ! -f "$golden" ]; then
    echo "check_e2e: missing golden file $golden" >&2
    echo "check_e2e: run with ASMCAP_UPDATE_GOLDEN=1 to create it" >&2
    exit 1
  fi
  if ! diff -u "$golden" "$WORK/$name.cut.tsv"; then
    echo "check_e2e: FAIL — deterministic columns diverge from $golden" >&2
    echo "check_e2e: if the decision change is intentional, regenerate with" >&2
    echo "check_e2e:   ASMCAP_UPDATE_GOLDEN=1 $0 $TESTGEN $SEARCH $GOLDEN_DIR" >&2
    exit 1
  fi
}

# Keep these flags in lockstep with the committed goldens (docs/cli.md has
# the schema; the runs are small enough for the sanitizer CI legs too).
"$TESTGEN" "$WORK/ref.fa" "$WORK/reads.fq" \
  --width 128 --records 2 --tiles 6 --reads 24 --seed 7 --ambiguous
check_golden e2e_search --threshold 12
check_golden e2e_search_circuit --threshold 1 --backend circuit --noisy
if [ "${ASMCAP_UPDATE_GOLDEN:-0}" = "1" ]; then
  exit 0
fi

# The ambiguity warning (docs/cli.md N->A policy) must surface: the
# generated read set injects 'N's via --ambiguous.
if ! grep -q "ambiguous bases" "$WORK/e2e_search.log"; then
  echo "check_e2e: FAIL — expected an ambiguous-bases warning on stderr" >&2
  cat "$WORK/e2e_search.log" >&2
  exit 1
fi

# The final summary reports the CLI's own peak RSS wherever
# /proc/self/status exists (docs/cli.md).
if [ -r /proc/self/status ] &&
  ! grep -Eq "; peak RSS [0-9]+\.[0-9] MiB$" "$WORK/e2e_search.log"; then
  echo "check_e2e: FAIL — expected '; peak RSS <n> MiB' in the summary" >&2
  cat "$WORK/e2e_search.log" >&2
  exit 1
fi

# expect_usage_error <name> <search flags...>: asmcap_search must refuse
# the flags with exit 2; its stderr stays in $WORK/<name>.log.
expect_usage_error() {
  local name=$1
  shift
  set +e
  "$SEARCH" \
    --reference "$WORK/ref.fa" --reads "$WORK/reads.fq" \
    --width 128 --array-rows 64 --arrays 4 --shards 2 "$@" \
    --output "$WORK/$name.tsv" 2> "$WORK/$name.log"
  local status=$?
  set -e
  if [ "$status" != "2" ]; then
    echo "check_e2e: FAIL — '$*' exited $status, expected usage error 2" >&2
    cat "$WORK/$name.log" >&2
    exit 1
  fi
}

# --noisy needs --backend circuit: on the default functional backend it
# would silently run ideal sensing, so the CLI must refuse it as a usage
# error (exit 2) that names the missing flag.
expect_usage_error noisy_functional --threshold 1 --noisy
if ! grep -q -- "--backend circuit" "$WORK/noisy_functional.log"; then
  echo "check_e2e: FAIL — usage error does not name --backend circuit" >&2
  cat "$WORK/noisy_functional.log" >&2
  exit 1
fi

# --seed takes any uint64: the default (0xA5A55A5AC0FFEE00, above 2^63)
# spelled out in decimal reproduces the noisy golden, and a negative seed
# is a usage error instead of wrapping around.
check_golden e2e_search_circuit --threshold 1 --backend circuit --noisy \
  --seed 11936045733246922240
expect_usage_error negative_seed --threshold 12 --seed -1

# Block grants and the admission window decide when reads run, never what
# they compute: one worker and four workers under a 3-read window write
# the same TSV, latency and energy columns included.
# same_tsv_across_workers <name> <reference> <reads> <search flags...>
same_tsv_across_workers() {
  local name=$1 ref=$2 reads=$3
  shift 3
  for run in "1" "4 --max-in-flight 3"; do
    # shellcheck disable=SC2086  # $run holds the worker flags
    "$SEARCH" --reference "$ref" --reads "$reads" \
      --width 128 --array-rows 64 "$@" --workers $run \
      --output "$WORK/${name}_${run%% *}.tsv" 2>> "$WORK/$name.log"
  done
  if ! cmp -s "$WORK/${name}_1.tsv" "$WORK/${name}_4.tsv"; then
    echo "check_e2e: FAIL — --workers 1 and --workers 4 --max-in-flight 3" \
         "wrote different TSVs ($*)" >&2
    diff "$WORK/${name}_1.tsv" "$WORK/${name}_4.tsv" >&2 || true
    exit 1
  fi
}
same_tsv_across_workers workers "$WORK/ref.fa" "$WORK/reads.fq" \
  --arrays 4 --shards 2 --threshold 12
# The noisy path, on a reference (800 segments) whose load publishes
# several epochs: each bank's silicon memo is filled by whichever worker
# first senses a row in the noise band.
"$TESTGEN" "$WORK/noisy.fa" "$WORK/noisy.fq" \
  --width 128 --records 2 --tiles 400 --reads 300 --seed 11
same_tsv_across_workers noisy_workers "$WORK/noisy.fa" "$WORK/noisy.fq" \
  --arrays 8 --shards 2 --threshold 1 --backend circuit --noisy

# JSON mode smoke: same run, one JSON object per read, same decisions.
"$SEARCH" \
  --reference "$WORK/ref.fa" --reads "$WORK/reads.fq" \
  --width 128 --array-rows 64 --arrays 4 --shards 2 \
  --threshold 12 --workers 2 --chunk 8 --format json \
  --output "$WORK/out.json" 2>> "$WORK/e2e_search.log"
READS=$(tail -n +2 "$WORK/e2e_search.tsv" | wc -l)
JSON_LINES=$(wc -l < "$WORK/out.json")
if [ "$READS" != "$JSON_LINES" ]; then
  echo "check_e2e: FAIL — $JSON_LINES JSON lines for $READS reads" >&2
  exit 1
fi
if grep -qv '^{' "$WORK/out.json"; then
  echo "check_e2e: FAIL — non-JSON line in $WORK/out.json" >&2
  exit 1
fi

# A truncated gzip reference must fail loudly, naming the file, instead of
# loading as a shorter reference: cut mid-stream, and cut so that only the
# 8-byte trailer is missing. Skipped without gzip(1) or without zlib in
# the build (the CLI then rejects every gzip input with "no zlib").
if command -v gzip > /dev/null 2>&1; then
  gzip -c "$WORK/ref.fa" > "$WORK/ref.fa.gz"
  gz_search() {
    "$SEARCH" --reference "$1" --reads "$WORK/reads.fq" \
      --width 128 --array-rows 64 --arrays 4 --shards 2 \
      --threshold 12 --output "$WORK/gz.tsv" 2> "$WORK/gz.log"
  }
  set +e
  gz_search "$WORK/ref.fa.gz"
  STATUS=$?
  set -e
  if [ "$STATUS" = "0" ]; then
    SIZE=$(wc -c < "$WORK/ref.fa.gz")
    for CUT in $((SIZE / 2)) $((SIZE - 4)); do
      head -c "$CUT" "$WORK/ref.fa.gz" > "$WORK/cut.fa.gz"
      set +e
      gz_search "$WORK/cut.fa.gz"
      STATUS=$?
      set -e
      if [ "$STATUS" = "0" ] ||
         ! grep -q "truncated gzip input $WORK/cut.fa.gz" "$WORK/gz.log"; then
        echo "check_e2e: FAIL — gzip reference cut to $CUT of $SIZE bytes" \
             "exited $STATUS without the truncated-gzip error" >&2
        cat "$WORK/gz.log" >&2
        exit 1
      fi
    done
  elif ! grep -q "no zlib" "$WORK/gz.log"; then
    echo "check_e2e: FAIL — the gzip reference did not load" >&2
    cat "$WORK/gz.log" >&2
    exit 1
  fi
fi

echo "check_e2e: OK ($READS reads, deterministic columns match both goldens)"
