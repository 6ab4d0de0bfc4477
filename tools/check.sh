#!/usr/bin/env bash
# tools/check.sh — the full verify loop:
#
#   1. Debug build with -fsanitize=address,undefined, whole test suite;
#   2. Debug build with -fsanitize=thread, whole test suite (the sweep
#      runner and workload cache are the concurrent surfaces; skipped
#      with a notice when the toolchain lacks TSan runtime support);
#   3. Release build, whole test suite (the tier-1 gate of ROADMAP.md);
#   4. the bench-smoke label (bench_engine_hotpath on a tiny grid),
#      which also re-checks sweep determinism end to end;
#   5. clang-tidy over src/ with the repo .clang-tidy profile (skipped
#      with a notice when clang-tidy is not installed; CI installs it).
#
# Usage: tools/check.sh [jobs]   (default: all cores)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== 1/5 Debug + ASan/UBSan =================================="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  > /dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "== 2/5 Debug + TSan ========================================"
# TSan excludes ASan, so it needs its own tree.  Probe the runtime
# first: some distro toolchains ship the compiler flag without
# libtsan, and a skipped stage with a notice beats a misleading
# configure error.
if printf 'int main(){return 0;}' > /tmp/tsan_probe.cc \
   && c++ -fsanitize=thread /tmp/tsan_probe.cc -o /tmp/tsan_probe \
        > /dev/null 2>&1 \
   && /tmp/tsan_probe; then
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    > /dev/null
  cmake --build build-tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}"
else
  echo "TSan runtime unavailable; skipping thread-sanitizer stage"
fi
rm -f /tmp/tsan_probe /tmp/tsan_probe.cc

echo "== 3/5 Release (tier-1 gate) ==============================="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== 4/5 bench smoke ========================================="
ctest --test-dir build -L bench-smoke --output-on-failure

echo "== 5/5 clang-tidy =========================================="
if command -v clang-tidy > /dev/null 2>&1; then
  # The Release build dir has a compile_commands.json when the cmake
  # generator supports it; export explicitly to be sure.
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  find src -name '*.cpp' -print0 \
    | xargs -0 -n 4 -P "${JOBS}" clang-tidy -p build --quiet
else
  echo "clang-tidy not installed; skipping lint stage (CI runs it)"
fi

echo "check.sh: all green"
