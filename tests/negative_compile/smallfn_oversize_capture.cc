// MUST NOT COMPILE: one word more than the [this, net::Burst] capture
// of ok_smallfn_burst.cc is 136 B, over SmallFn::kInlineBytes (128).
// SmallFn has no heap fallback; a static_assert asks for a pointer.
#include <cstdint>

#include "net/burst.hh"
#include "simcore/smallfn.hh"

namespace {

struct Port
{
    std::uint64_t frames = 0;

    void
    deliver(const ioat::net::Burst &b, std::uint64_t tag)
    {
        frames += b.frames + tag;
    }

    ioat::sim::SmallFn
    transmit(const ioat::net::Burst &burst, std::uint64_t tag)
    {
        return [this, burst, tag] { deliver(burst, tag); };
    }
};

} // namespace

int
main()
{
    Port port;
    ioat::sim::SmallFn fn = port.transmit(ioat::net::Burst{}, 1);
    fn();
    return static_cast<int>(port.frames % 2);
}
