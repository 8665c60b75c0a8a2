#!/usr/bin/env bash
# Build the project with a sanitizer configuration and run the tier-1 test
# suite, proving the guardrail/recovery paths (rollbacks, reseeds, early
# commits, fault injection) are leak- and UB-free, and that the parallel
# kernel layer (src/util/parallel.hpp) is race-free under ThreadSanitizer.
#
# Usage:
#   scripts/check_sanitize.sh                 # address,undefined (default)
#   DCO3D_SANITIZE=undefined scripts/check_sanitize.sh
#   DCO3D_SANITIZE=thread scripts/check_sanitize.sh   # TSan, multi-threaded run
#   BUILD_DIR=/tmp/san scripts/check_sanitize.sh
#
# The default (ASan) configuration runs the suite twice: once normally, and
# once as a dedicated LSan leak pass with DCO3D_ARENA=0, which puts the
# buffer pool in pass-through mode so every tensor/scratch buffer is an
# individually tracked heap allocation — pooled (parked) buffers can neither
# mask a leaked Storage nor show up as false positives.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SAN="${DCO3D_SANITIZE:-address,undefined}"
BUILD="${BUILD_DIR:-$REPO_ROOT/build-sanitize}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configuring ($SAN) into $BUILD"
cmake -B "$BUILD" -S "$REPO_ROOT" -DDCO3D_SANITIZE="$SAN" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== building"
cmake --build "$BUILD" -j "$JOBS"

echo "== running tier-1 tests under $SAN"
if [[ "$SAN" == *thread* ]]; then
  # TSan is incompatible with ASan's leak checker; force the worker pool wide
  # enough that every parallel_for actually fans out, so races are reachable.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  export DCO3D_THREADS="${DCO3D_THREADS:-4}"
  echo "   (DCO3D_THREADS=$DCO3D_THREADS)"
else
  # halt_on_error keeps CI signal crisp; detect_leaks needs ASan.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
fi
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

if [[ "$SAN" == *thread* ]]; then
  # Batch smoke: two designs through the staged flow concurrently — the batch
  # runner's job fan-out is the one place flows run side by side, so it gets
  # its own TSan pass on top of the unit tests.
  echo "== batch smoke under TSan (2 designs, DCO3D_THREADS=$DCO3D_THREADS)"
  "$BUILD/tools/dco3d" batch dma vga --scale 0.02 --grid 16 --clock 250

  # 3-tier flow smoke: the N-tier generalization threads per-tier state
  # (K-sized route grids, per-tier soft maps, via stacks) through the same
  # parallel kernels; run one multi-tier stacking workload end to end so the
  # tier-indexed buffers get a TSan pass too.
  echo "== 3-tier flow smoke under TSan (memlogic, --tiers 3)"
  "$BUILD/tools/dco3d" batch memlogic --scale 0.02 --grid 16 --clock 280 --tiers 3

  # Serve smoke: the resident server is the other concurrent-flow surface —
  # worker lanes, streaming connections, admission, drain. load_serve drives
  # an overload sweep (0.5x/1x/2x capacity) over the real protocol, so the
  # whole submit -> schedule -> stream -> drain path runs under TSan.
  # Queue 2 keeps the 2x level genuinely over capacity despite TSan's ~40x
  # slower service times (8 jobs' worth of excess must overflow the queue).
  echo "== serve smoke under TSan (load_serve overload sweep)"
  "$BUILD/tools/load_serve" --jobs 8 --queue 2 -o "$BUILD/BENCH_serve_tsan.json"

  # Search smoke: the multi-fidelity searcher overlaps a parallel GP scoring
  # sweep with batched concurrent flow evaluations (B=2 here) against a
  # shared artifact cache — the one place all three concurrency surfaces
  # (kernel pool, batch lanes, cache) compose, so it gets its own TSan pass.
  echo "== search smoke under TSan (batch 2, cheap screening)"
  rm -rf "$BUILD/tsan-search-cache"
  "$BUILD/tools/dco3d" search dma --scale 0.01 --grid 8 --rounds 2 --batch 2 \
    --init 3 --candidates 32 --cache-dir "$BUILD/tsan-search-cache"
fi

if [[ "$SAN" == *address* ]]; then
  echo "== leak pass (ASan+LSan, DCO3D_ARENA=0 pass-through)"
  export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
  export DCO3D_ARENA=0
  ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"
  unset DCO3D_ARENA
fi

# SIMD parity pass: rerun the cross-backend bit-equality tests with the
# scalar backend forced, so the dispatch override path (and the scalar
# kernels themselves) execute under the sanitizer. The tests internally
# switch through every compiled-in backend, so on an AVX2/NEON host this
# covers the vector kernels' loads/stores (incl. masked tails) too.
echo "== SIMD backend parity under $SAN (DCO3D_SIMD=scalar start)"
DCO3D_SIMD=scalar ctest --test-dir "$BUILD" --output-on-failure -R "Simd" \
  -j "$JOBS"

# Import smoke: both open-format readers (structural Verilog and Bookshelf)
# parse the checked-in examples, lint, freeze, and write the design artifact
# under the sanitizer — the lexer/parser string handling and the freeze-time
# CSR construction are exactly the code an adversarial input would hit.
echo "== import smoke under $SAN (counter8.v + tiny.aux)"
"$BUILD/tools/dco3d" import "$REPO_ROOT/examples/counter8.v" \
  -o "$BUILD/counter8.design"
"$BUILD/tools/dco3d" import "$REPO_ROOT/examples/tiny.aux" \
  -o "$BUILD/tiny.design"
"$BUILD/tools/dco3d" check "$BUILD/counter8.design"
"$BUILD/tools/dco3d" check "$BUILD/tiny.design"

# 3-tier DCO smoke: the survival-form tier relaxation is the one soft-map,
# loss and SIMD backward path for every tier count, so run Alg. 2 end to end
# at K = 3 (place, a one-epoch checkpoint, optimize) under the sanitizer.
# A tier count past the supported maximum must stop at the CLI with
# invalid_argument (exit 2) instead of reaching the fixed per-tier scratch.
echo "== 3-tier optimize smoke under $SAN"
SMOKE="$BUILD/tier-smoke"
rm -rf "$SMOKE"
mkdir -p "$SMOKE"
"$BUILD/tools/dco3d" generate dma --scale 0.02 -o "$SMOKE/d.design"
"$BUILD/tools/dco3d" place "$SMOKE/d.design" --tiers 3 -o "$SMOKE/d.place"
"$BUILD/tools/dco3d" train "$SMOKE/d.design" --layouts 2 --epochs 1 \
  --grid 16 --tiers 3 -o "$SMOKE/d.ckpt"
"$BUILD/tools/dco3d" optimize "$SMOKE/d.design" "$SMOKE/d.place" \
  "$SMOKE/d.ckpt" --grid 16 -o "$SMOKE/d2.place"
echo "== place --tiers 9 must exit 2"
rc=0
"$BUILD/tools/dco3d" place "$SMOKE/d.design" --tiers 9 \
  -o "$SMOKE/bad.place" || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "place --tiers 9 exited $rc, expected 2"
  exit 1
fi

# Bench smoke: one pass of the perf-gate comparator against the committed
# baseline at the sanitize threshold (50%, set by CMake when DCO3D_SANITIZE
# is on) — proves the gate tooling itself is sanitizer-clean.
echo "== bench_regression smoke under $SAN"
ctest --test-dir "$BUILD" --output-on-failure -R "bench_regression"

echo "== sanitize check passed"
