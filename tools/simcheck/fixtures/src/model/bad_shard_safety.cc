// Fixture: eight shard-safety violations — four mutable static-storage
// variables (with and without the `static` keyword) and four
// hash-order-dependent iterations (one through a type alias, one as
// begin() in a classic for header).
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "simcore/stats.hh"

namespace model {

static std::uint64_t dropCount = 0;  // violation 1: namespace static
int resets = 0;                      // violation 2: namespace variable
inline int epoch = 0;                // violation 3: inline variable

using FlowMap = std::unordered_map<int, int>;

std::uint64_t totalFlow(const FlowMap &flows) {
  std::uint64_t sum = 0;
  for (const auto &kv : flows) {  // violation 4: aliased unordered
    sum += static_cast<std::uint64_t>(kv.second);
  }
  dropCount += sum == 0 ? 1 : 0;
  return sum;
}

std::uint64_t nextSeq() {
  static std::uint64_t seq = 0;  // violation 5: function-local static
  return ++seq;
}

std::uint64_t directIter(const std::unordered_map<int, int> &table) {
  std::uint64_t sum = 0;
  for (const auto &kv : table) {  // violation 6: direct unordered
    sum += static_cast<std::uint64_t>(kv.second);
  }
  return sum;
}

struct Stats {
  std::unordered_map<std::string, std::uint64_t> counters_;
  std::unordered_set<int> live_;

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto &[name, v] : counters_)  // violation 7: member
      sum += v;
    // violation 8: begin() in a classic for header
    for (auto it = live_.begin(); it != live_.end(); ++it)
      sum += static_cast<std::uint64_t>(*it);
    return sum + static_cast<std::uint64_t>(resets + epoch);
  }
};

}  // namespace model
