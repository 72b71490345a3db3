// Fixture: an allow(raw-thread) waiver must silence the finding and
// be counted against the rule's budget.  It waives nothing else: the
// namespace-scope atomic is still a shard-safety finding.
#include <atomic>

// simcheck: allow(raw-thread) interop shim measured by the TSan job
std::atomic<int> interopFlag{0};

int
suppressedThreading()
{
    return 1;
}
