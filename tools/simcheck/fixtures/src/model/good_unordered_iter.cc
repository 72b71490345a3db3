// Fixture: lookups on unordered containers and iteration over
// ordered ones must NOT trip shard-safety.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

struct Stats
{
    std::unordered_map<std::string, std::uint64_t> byName_;
    std::map<int, std::uint64_t> ordered_;
    std::vector<std::uint64_t> values_;

    std::uint64_t
    lookup(const std::string &k) const
    {
        auto it = byName_.find(k);
        return it == byName_.end() ? 0 : it->second;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const auto &[k, v] : ordered_)
            sum += v;
        for (auto it = values_.begin(); it != values_.end(); ++it)
            sum += *it;
        return sum;
    }
};
