/**
 * @file
 * Umbrella header for the telemetry subsystem: histograms, the
 * Instrumented registration interface and hierarchy Hub, the one
 * simulated-time Sampler and its timeline, and the timeline's two
 * encoders — RunReport (JSON/CSV) and OpenMetrics (text/JSON).  See
 * DESIGN.md "Observability".
 */

#ifndef IOAT_SIMCORE_TELEMETRY_HH
#define IOAT_SIMCORE_TELEMETRY_HH

#include "simcore/telemetry/histogram.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/telemetry/report.hh"
#include "simcore/telemetry/sampler.hh"
#include "simcore/telemetry/session.hh"
#include "simcore/telemetry/snapshot.hh"

#endif // IOAT_SIMCORE_TELEMETRY_HH
