// Fixture: the sock:: facade reaching into an xpt/ internal — one
// layering finding.
#include "xpt/rings.hh"

namespace sock {

int creditsOf(const xpt::RxRing &r) { return r.credits; }

}  // namespace sock
