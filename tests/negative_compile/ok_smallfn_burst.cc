// MUST COMPILE: positive control for smallfn_oversize_capture.cc.
// The largest hot capture, [this, net::Burst] (NIC transmit, switch
// delivery, NIC ingress), fits SmallFn's inline budget exactly.  If
// this breaks, a Burst field outgrew SmallFn::kInlineBytes.
#include "net/burst.hh"
#include "simcore/smallfn.hh"

namespace {

struct Port
{
    unsigned frames = 0;

    void deliver(const ioat::net::Burst &b) { frames += b.frames; }

    ioat::sim::SmallFn
    transmit(const ioat::net::Burst &burst)
    {
        return [this, burst] { deliver(burst); };
    }
};

} // namespace

int
main()
{
    Port port;
    ioat::sim::SmallFn fn = port.transmit(ioat::net::Burst{});
    fn();
    return static_cast<int>(port.frames % 2);
}
