/**
 * @file
 * Convenience umbrella header for the simulation core.
 */

#ifndef IOAT_SIMCORE_SIMCORE_HH
#define IOAT_SIMCORE_SIMCORE_HH

#include "simcore/assert.hh"
#include "simcore/channel.hh"
#include "simcore/coro.hh"
#include "simcore/event_queue.hh"
#include "simcore/fault.hh"
#include "simcore/log.hh"
#include "simcore/mutex.hh"
#include "simcore/random.hh"
#include "simcore/sim.hh"
#include "simcore/stats.hh"
#include "simcore/sync.hh"
#include "simcore/table.hh"
#include "simcore/timeout.hh"
#include "simcore/trace.hh"
#include "simcore/types.hh"

#endif // IOAT_SIMCORE_SIMCORE_HH
