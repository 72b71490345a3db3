// Fixture: the sock:: facade including the bypass transport's own
// header.  Both transports run the protocol in tcp/, so src/sock/
// includes no xpt/ header at all — one layering finding, even for
// the stack's public header.
#include "xpt/bypass.hh"

namespace sock {

int creditsOf(const xpt::Endpoint &e) { return e.credits(); }

}  // namespace sock
