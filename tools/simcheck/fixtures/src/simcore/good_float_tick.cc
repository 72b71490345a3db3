// Fixture: the sanctioned conversion door and integer Tick
// construction must NOT trip float-tick.
#include <cstdint>

namespace sim {
class Tick
{
  public:
    constexpr explicit Tick(std::uint64_t ns) : ns_(ns) {}
    constexpr std::uint64_t count() const { return ns_; }

  private:
    std::uint64_t ns_;
};

// In the real tree these definitions live in src/simcore/types.hh,
// which is exempt from the rule (it IS the audited door).
constexpr Tick
ticksFromDouble(double ns)
{
    const auto whole = static_cast<std::uint64_t>(ns);
    return Tick{whole};
}

constexpr Tick
operator+(Tick a, Tick b)
{
    return Tick{a.count() + b.count()};
}
} // namespace sim

sim::Tick
goodConvert(double blended_ns)
{
    const sim::Tick fixed{1000};
    return sim::ticksFromDouble(blended_ns * 2.0) + fixed;
}
