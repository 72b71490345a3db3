#!/bin/sh
# Build the whole tree under ASan+UBSan and run the test suite.
#
# Usage: tools/sanitize.sh [ctest args...]
#   tools/sanitize.sh                 # full suite
#   tools/sanitize.sh -L golden       # just the goldens
#
# The build lives in build-san/, separate from the normal build/ so
# both can coexist.  Any sanitizer report is fatal
# (-fno-sanitize-recover=all), so a clean run means a clean tree.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$repo/build-san"

cmake -B "$build" -S "$repo" -DIOAT_SANITIZE=ON
cmake --build "$build" -j "$(nproc)"

# abort_on_error makes ASan failures exit non-zero even inside gtest
# death tests; detect_leaks catches arena/free-list bookkeeping bugs.
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)" "$@"
