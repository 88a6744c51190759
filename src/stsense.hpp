// stsense.hpp — the umbrella header.
//
// One include pulls in the public surface of the library: the physics
// and ring models, the SPICE engine, the digital smart unit, the sensor
// and monitor layers, the execution runtime, observability, and the
// RuntimeOptions facade that sets their execution knobs in one place.
// (A monitor's health supervision and redundancy are its own
// sensor::MonitorConfig fields, not execution knobs.)
//
//     #include "stsense.hpp"
//
//     auto rt = stsense::RuntimeOptions().fast_kernel(true).trace("run.json");
//     auto session = rt.trace_session();
//     sensor::SmartTemperatureSensor s(phys::cmos350(),
//                                      ring::RingConfig::uniform(
//                                          cells::CellKind::Inv, 5, 2.75));
//
// Translation units chasing compile time should keep including the
// per-layer headers directly; this header is for examples, benches and
// application code, where convenience beats minimality. Every include
// below carries an IWYU export pragma, so include-what-you-use treats
// the umbrella as the provider of all of them.
#pragma once

// ---- foundation ---------------------------------------------------------
#include "util/expected.hpp"     // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/cli.hpp"          // IWYU pragma: export
#include "util/table.hpp"        // IWYU pragma: export
#include "util/csv.hpp"          // IWYU pragma: export
#include "util/ascii_plot.hpp"   // IWYU pragma: export

// ---- execution runtime --------------------------------------------------
#include "exec/exec.hpp"         // IWYU pragma: export
#include "exec/thread_pool.hpp"  // IWYU pragma: export
#include "exec/result_cache.hpp" // IWYU pragma: export
#include "exec/checkpoint.hpp"   // IWYU pragma: export
#include "exec/metrics.hpp"      // IWYU pragma: export

// ---- observability ------------------------------------------------------
#include "obs/trace.hpp"         // IWYU pragma: export
#include "obs/export.hpp"        // IWYU pragma: export

// ---- device physics and circuit engine ----------------------------------
#include "phys/technology.hpp"   // IWYU pragma: export
#include "phys/units.hpp"        // IWYU pragma: export
#include "phys/corners.hpp"      // IWYU pragma: export
#include "spice/simulator.hpp"   // IWYU pragma: export
#include "spice/sim_error.hpp"   // IWYU pragma: export

// ---- cells and the ring oscillator --------------------------------------
#include "cells/cell.hpp"        // IWYU pragma: export
#include "ring/config.hpp"       // IWYU pragma: export
#include "ring/analytic.hpp"     // IWYU pragma: export
#include "ring/spice_ring.hpp"   // IWYU pragma: export
#include "ring/sweep.hpp"        // IWYU pragma: export

// ---- digitization and the sensor ----------------------------------------
#include "digital/smart_unit.hpp"    // IWYU pragma: export
#include "digital/converter.hpp"     // IWYU pragma: export
#include "sensor/smart_sensor.hpp"   // IWYU pragma: export
#include "sensor/presets.hpp"        // IWYU pragma: export
#include "sensor/optimizer.hpp"      // IWYU pragma: export
#include "sensor/monitor.hpp"        // IWYU pragma: export
#include "sensor/site_health.hpp"    // IWYU pragma: export

// ---- thermal environment ------------------------------------------------
#include "thermal/floorplan.hpp"     // IWYU pragma: export
#include "thermal/grid.hpp"          // IWYU pragma: export
#include "thermal/self_heating.hpp"  // IWYU pragma: export

// ---- analysis -----------------------------------------------------------
#include "analysis/nonlinearity.hpp" // IWYU pragma: export
#include "analysis/calibration.hpp"  // IWYU pragma: export
#include "analysis/statistics.hpp"   // IWYU pragma: export

// ---- dynamic thermal management -----------------------------------------
#include "dtm/controller.hpp"        // IWYU pragma: export
#include "dtm/closed_loop.hpp"       // IWYU pragma: export
#include "dtm/pid.hpp"               // IWYU pragma: export
#include "dtm/autotune.hpp"          // IWYU pragma: export
#include "dtm/supervisor.hpp"        // IWYU pragma: export
#include "dtm/fleet.hpp"             // IWYU pragma: export

// ---- population-scale variability & lifetime study ----------------------
#include "population/streaming_stats.hpp" // IWYU pragma: export
#include "population/aging.hpp"           // IWYU pragma: export
#include "population/engine.hpp"          // IWYU pragma: export

// ---- the execution-knob facade ------------------------------------------
#include "api/runtime_options.hpp"   // IWYU pragma: export

// ---- the telemetry service ----------------------------------------------
#include "service/service.hpp"       // IWYU pragma: export
