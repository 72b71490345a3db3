// Fixture: shard-safe state patterns — zero findings expected.
#include <cstdint>
#include <map>
#include <unordered_map>

#include "simcore/stats.hh"

namespace model {

constexpr std::uint64_t kWindow = 16;   // immutable: fine
static const std::uint64_t kSeed = 42;  // const static: fine
const std::uint64_t kBurst = 4;         // const: fine
extern std::uint64_t externalTotal;     // declaration only: fine
std::uint64_t helper(std::uint64_t x);  // function declaration: fine
struct Window {                         // type definition: fine
  std::uint64_t lo = 0;
};
sim::stats::Counter namespaceHits;      // sanctioned wrapper: fine

// Point lookups in a hash map are order-independent — only
// *iteration* is flagged.
std::uint64_t lookups(const std::unordered_map<int, int> &index,
                      int key) {
  auto it = index.find(key);
  return it == index.end() ? kSeed % kWindow
                           : static_cast<std::uint64_t>(it->second);
}

using SortedMap = std::map<int, int>;

std::uint64_t totalSorted(const SortedMap &ordered) {
  std::uint64_t sum = 0;
  for (const auto &kv : ordered) {  // ordered container: fine
    sum += static_cast<std::uint64_t>(kv.second);
  }
  return sum;
}

std::uint64_t hits() {
  static sim::stats::Counter counter;  // sanctioned wrapper: fine
  counter.add(1);
  namespaceHits.add(kBurst);
  return counter.value();
}

}  // namespace model
