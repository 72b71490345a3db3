// Fixture: every construct here must trip the raw-thread rule; the
// two namespace-scope variables are shard-safety findings as well.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

std::atomic<int> counter{0};
thread_local int scratch = 0;

void
badThreading()
{
    std::mutex mu;
    std::condition_variable cv;
    std::lock_guard<std::mutex> lock(mu);
    std::thread worker([] { counter.fetch_add(1); });
    worker.join();
    scratch = counter.load();
}
