// Fixture: sanctioned uses of the raw representation — formatting,
// casts, call arguments and the audited doors.  Zero findings.
#include <cstdint>
#include <cstdio>

#include "simcore/types.hh"

namespace model {

void report(sim::Tick t, sim::Bytes b, sim::Bytes unit) {
  double secs = static_cast<double>(t.count());
  char line[64];
  std::snprintf(line, sizeof(line), "%llu %f\n",
                static_cast<unsigned long long>(b.count()), secs);
  std::uint64_t frames = sim::divCeil(b, unit);
  (void)frames;
}

}  // namespace model
