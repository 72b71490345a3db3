#!/bin/sh
# Proof that the simcheck gate actually gates: inject one violation
# per rule family into REAL sources, assert `tools/simcheck` exits
# non-zero, restore the file, and finish with a clean run.  CI runs
# this after the tree analysis; a rule that stops firing on live code
# fails the job even if the fixtures still pass.
#
# Usage: tools/simcheck_canaries.sh [compile_commands.json]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"
cc=${1:-build/compile_commands.json}
if [ ! -f "$cc" ]; then
    echo "simcheck_canaries: no $cc (configure with cmake -B build -S . first)" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

simcheck() {
    python3 tools/simcheck -q -p "$cc"
}

backup()  { cp "$1" "$tmp/orig"; }
restore() { cp "$tmp/orig" "$1"; }

# The mutation must have changed the file, and the changed tree must
# fail the gate with a finding of the canary's rule.  A no-op mutation
# means the source drifted and the canary needs re-anchoring — that is
# an error, not a pass.
expect_fail() {
    name=$1
    file=$2
    if cmp -s "$file" "$tmp/orig"; then
        echo "canary $name: mutation was a no-op on $file (source drifted; re-anchor the canary)" >&2
        exit 1
    fi
    if simcheck >"$tmp/out" 2>&1; then
        echo "canary $name: injected violation NOT caught" >&2
        exit 1
    fi
    if ! grep -q "\[$name\]" "$tmp/out"; then
        echo "canary $name: gate failed without a [$name] finding:" >&2
        cat "$tmp/out" >&2
        exit 1
    fi
    echo "canary $name: caught"
}

# 1. strong-type: re-open the raw-representation ceil-divide that the
#    sim::divCeil door replaced.
backup src/nic/nic.hh
sed -i 's|sim::divCeil(payload, Bytes{cfg_.mtu})|(payload.count() + cfg_.mtu - 1) / cfg_.mtu|' \
    src/nic/nic.hh
expect_fail strong-type src/nic/nic.hh
restore src/nic/nic.hh

# 2. shard-safety: a mutable static member outside src/simcore/.
backup src/nic/nic.hh
sed -i 's|/\*\* Frames needed to carry @p payload bytes at the current MTU. \*/|inline static int canaryCounter_ = 0;\n    /** Frames needed to carry @p payload bytes at the current MTU. */|' \
    src/nic/nic.hh
expect_fail shard-safety src/nic/nic.hh
restore src/nic/nic.hh

# 3. layering: bench/ reaching past the sock:: facade into the TCP
#    internals.
backup bench/fig03_bandwidth.cpp
sed -i '1i #include "tcp/stack.hh"' bench/fig03_bandwidth.cpp
expect_fail layering bench/fig03_bandwidth.cpp
restore bench/fig03_bandwidth.cpp

# 3b. layering: the sock:: facade depending on the bypass stack
#     again.  Both transports run the protocol in tcp/, so src/sock/
#     includes no xpt/ header — not even the stack's own.
backup src/sock/socket.hh
sed -i 's|^#include "tcp/protocol.hh"|&\n#include "xpt/bypass.hh"|' \
    src/sock/socket.hh
expect_fail layering src/sock/socket.hh
restore src/sock/socket.hh

# 4. coro-lifetime: turn the recv-timeout watcher's safe capture-less
#    lambda (explicit value params) back into a ref-capturing one —
#    the exact bug class the rule exists for.
backup src/sock/socket.hh
python3 - <<'EOF'
t = open('src/sock/socket.hh').read()
t = t.replace("""    simulation().spawn(
        [](Socket s, sim::Tick t,
           std::shared_ptr<Watch> w) -> sim::Coro<void> {
            co_await s.simulation().delay(t);
            if (!w->done) {
                w->fired = true;
                s.abort();
            }
        }(*this, timeout, watch));""", """    simulation().spawn(
        [&]() -> sim::Coro<void> {
            co_await simulation().delay(timeout);
            if (!watch->done) {
                watch->fired = true;
                abort();
            }
        }());""")
open('src/sock/socket.hh', 'w').write(t)
EOF
expect_fail coro-lifetime src/sock/socket.hh
restore src/sock/socket.hh

# 5. token rules (wall-clock): a host-clock read in model code, the
#    first thing that would make two runs of one seed disagree.
backup src/nic/nic.hh
sed -i 's|/\*\* Frames needed to carry @p payload bytes at the current MTU. \*/|static auto canaryNow() { return std::chrono::steady_clock::now(); }\n    /** Frames needed to carry @p payload bytes at the current MTU. */|' \
    src/nic/nic.hh
expect_fail wall-clock src/nic/nic.hh
restore src/nic/nic.hh

# Restored tree must be clean again.
simcheck
echo "simcheck_canaries: all five rule families fire; tree clean after restore"
