#!/bin/sh
# One-shot pre-PR gate: everything CI checks, locally, in order of
# increasing cost.  A clean exit means the tree is ready to post.
#
#   1. determinism analysis (tools/simcheck): fixture self-test +
#      whole tree against the gated build's compile_commands.json
#   2. formatting (tools/format.sh --check; skipped if no clang-format)
#   3. warnings-as-errors build (-DIOAT_WERROR=ON adds -Wshadow
#      -Wconversion -Werror), with clang-tidy alongside when installed
#   4. full ctest suite in the gated build
#   5. chaos recovery gate: ctest -L chaos plus a short
#      chaos_search invariant sweep (zero violations required)
#   6. ASan+UBSan build + full suite (tools/sanitize.sh)
#
# Usage: tools/check.sh [--no-sanitize]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"

run_sanitize=1
[ "${1:-}" = "--no-sanitize" ] && run_sanitize=0

step() { printf '\n== check.sh: %s ==\n' "$1"; }

# Configure the gated build first so simcheck can consume its
# compilation database; the expensive compile runs later.
tidy=OFF
if command -v clang-tidy >/dev/null 2>&1; then
    tidy=ON
else
    echo "clang-tidy not installed; tidy pass skipped (CI runs it)"
fi
build="$repo/build-check"
cmake -B "$build" -S "$repo" -DIOAT_WERROR=ON -DIOAT_TIDY=$tidy

step "determinism analysis (simcheck self-test + tree)"
python3 tools/simcheck --self-test
python3 tools/simcheck -p "$build/compile_commands.json"

step "format check"
tools/format.sh --check

step "warnings-as-errors build (IOAT_WERROR)"
cmake --build "$build" -j "$(nproc)"

step "full test suite"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

step "chaos recovery gate (ctest -L chaos + invariant sweep)"
ctest --test-dir "$build" -L chaos --output-on-failure
"$build/bench/chaos_search" --schedules 8 > /dev/null

if [ "$run_sanitize" = 1 ]; then
    step "sanitizers (ASan+UBSan)"
    tools/sanitize.sh
else
    step "sanitizers skipped (--no-sanitize)"
fi

step "all gates passed"
