// Fixture stub of a bypass-transport internal: src/sock/ includes no
// xpt/ header, this one included.
#pragma once

namespace xpt {

struct RxRing {
  int credits = 0;
};

}  // namespace xpt
