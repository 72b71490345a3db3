// Fixture stub of the bypass transport's header.  It pulls in an
// xpt/ internal itself; only the *direct* edge from sock/ is policed.
#pragma once

#include "xpt/rings.hh"

namespace xpt {

class Endpoint {
 public:
  int credits() const { return ring_.credits; }

 private:
  RxRing ring_;
};

}  // namespace xpt
