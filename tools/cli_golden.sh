#!/usr/bin/env sh
# Golden-output lock for the hmmsim sweep vocabulary (run as the
# `cli_golden` ctest).  Each case runs one command and compares its
# stdout+stderr plus exit code byte-for-byte against GOLDEN_DIR/NAME.txt:
# flag sweeps with and without metrics, single-point printers, a checked
# run, an --analyze sweep, manifest emission and its JSON, a shard run,
# --dry-run, a --machine sweep and manifest, the two exit-2 conflicts
# a non-trivial topology raises, and the timeline_viewer example's Gantt
# charts.  Rows, manifests, fingerprints and rendered traces must never
# move under a refactor; a deliberate output change regenerates the
# goldens and says why.
#
#   usage: cli_golden.sh /path/to/hmmsim GOLDEN_DIR MACHINES_DIR \
#                        /path/to/timeline_viewer
#   CLI_GOLDEN_UPDATE=1 rewrites GOLDEN_DIR from the given binaries.
set -eu

HMMSIM=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
GOLDEN=$(cd "$2" && pwd)
MACHINES="$3"
TIMELINE=$(cd "$(dirname "$4")" && pwd)/$(basename "$4")
GRID="sum --n 2048,8192 --l 100,400 --d 4,16"
NVLINK="--machine=machines/nvlink-2gpu.json"

TMP=$(mktemp -d "${TMPDIR:-/tmp}/cli_golden.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM
cp -R "$MACHINES" "$TMP/machines"
cd "$TMP"

failed=0
# check NAME CMD...: run CMD, record its output and exit code as NAME.
check() {
  name="$1"; shift
  set +e
  "$@" > "$name.txt" 2>&1
  echo "exit: $?" >> "$name.txt"
  set -e
  if [ "${CLI_GOLDEN_UPDATE:-0}" = 1 ]; then
    cp "$name.txt" "$GOLDEN/$name.txt"
  elif ! cmp -s "$GOLDEN/$name.txt" "$name.txt"; then
    echo "cli_golden: FAIL: $name differs from its golden" >&2
    diff "$GOLDEN/$name.txt" "$name.txt" | head -n 40 >&2
    failed=1
  fi
}

check sweep_csv "$HMMSIM" $GRID --csv
check sweep_csv_metrics "$HMMSIM" $GRID --csv --metrics
check sweep_header "$HMMSIM" $GRID
check point "$HMMSIM" sum --n 4096 --p 256 --d 4
check point_metrics "$HMMSIM" scan --n 4096 --p 256 --d 4 --metrics
check point_csv "$HMMSIM" conv --model umm --n 1024 --m 16 --p 256 --csv
check check_metrics "$HMMSIM" sum --n 1024 --p 256 --check --metrics
check analyze_sweep "$HMMSIM" sum --n 1024,4096 --p 256 --d 4 --analyze
check emit_manifest "$HMMSIM" $GRID --emit-manifest=m2.json --shards=2
check manifest_json cat m2.json
check shard0 "$HMMSIM" $GRID --shard=0/2
check dry_run "$HMMSIM" sum --p 512 --w 32 --l 200 --d 8 --dry-run
check machine_sweep "$HMMSIM" sum --n 2048,4096 $NVLINK --metrics
check machine_emit "$HMMSIM" sum --n 2048,4096 $NVLINK \
  --emit-manifest=mm.json --shards=2
check machine_manifest_json cat mm.json
check machine_umm "$HMMSIM" sum --n 2048 $NVLINK --model umm
check machine_analyze "$HMMSIM" sum --n 2048 $NVLINK --analyze
check timeline_viewer "$TIMELINE"

[ "$failed" -eq 0 ] || exit 1
echo "cli_golden: OK"
