// Lock-step multi-point transient driver.
//
// A temperature sweep solves the same netlist at many operating points;
// each point's transient is an independent Newton recursion over the
// same circuit structure. run_lockstep() advances K such points in
// phase: one shared multi-block DeviceBatch holds every point's SoA
// lanes (one block per point, contiguous), and the driver round-robins
// exactly one Newton iteration per active point per round through the
// Simulator's newton_iteration seam — the same calls, in the same
// per-point order, a solo Simulator::try_transient makes. Each point
// starts, fails and finishes through the Simulator members a solo run
// uses (the transient head and tail, the step failure and its error
// kind). Per-point state (workspace, factorizations, bypass caches,
// fault streams, budgets) is fully private to that point's Simulator,
// so every result is bitwise identical to running the points one at a
// time (the lock-step parity suite gates this, including under
// injected Newton-failure rungs and cancellation).
//
// A point whose attempt fails leaves the phase loop and runs the
// standard rescue (halving + ladder) to completion inline, exactly as
// the solo engine would, then rejoins at its next step.
#pragma once

#include "spice/netlist.hpp"
#include "spice/sim_error.hpp"
#include "spice/simulator.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace stsense::spice {

/// Runs specs[p] under options[p] (p = 0..K-1) over one shared batched
/// evaluator, lock-stepping the points' Newton iterations. Returns one
/// Result per point, in order.
///
/// * options/specs must be the same non-zero length.
/// * fault_ctx (optional, same length) is the exec::FaultContext value
///   installed around point p's injected-sabotage draws — pass the same
///   per-point stream ids the equivalent solo sweep would use so an
///   installed FaultInjector sabotages identical solve events. Empty:
///   the ambient context is used for every point.
/// * Argument errors throw std::invalid_argument (like try_transient);
///   solver failures come back as per-point SimErrors.
std::vector<Result<TransientResult>> run_lockstep(
    const Circuit& circuit, std::span<const SimOptions> options,
    std::span<const TransientSpec> specs,
    std::span<const std::uint64_t> fault_ctx = {});

} // namespace stsense::spice
