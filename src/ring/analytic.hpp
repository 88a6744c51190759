// Closed-form ring-oscillator period model.
//
//     T_osc(T) = sum over stages of (t_pHL + t_pLH)
//
// with each stage's load given by its own output parasitics plus the
// next stage's input capacitance (plus any per-node wire load). This is
// the engine behind the Fig. 2/3 sweeps; the SPICE engine cross-checks it.
#pragma once

#include "cells/delay_model.hpp"
#include "ring/config.hpp"

#include <span>
#include <vector>

namespace stsense::ring {

class AnalyticRingModel {
public:
    /// Validates both arguments and binds every stage to its load
    /// (cells::DelayModel::bind); keeps no copy of `config`.
    AnalyticRingModel(const phys::Technology& tech, const RingConfig& config);

    /// Oscillation period at junction temperature `temp_k` [s]. Forms
    /// the mobility factors once per device card and sums the bound
    /// stages' delays in ring order: bitwise the plain sum of the
    /// stages' delays(stage, load, temp_k). Throws std::invalid_argument
    /// for temp_k <= 0.
    double period(double temp_k) const;

    /// Oscillation frequency at `temp_k` [Hz].
    double frequency(double temp_k) const;

    /// Period at each temperature of the grid [s].
    std::vector<double> periods(std::span<const double> temps_k) const;

    /// External load seen by stage i (next stage input + wire) [F].
    double stage_load(std::size_t i) const;

    /// Temperature sensitivity d(period)/dT around temp_k [s/K],
    /// central difference.
    double sensitivity(double temp_k, double dt_k = 1.0) const;

    const cells::DelayModel& delay_model() const { return model_; }

private:
    cells::DelayModel model_;
    std::vector<cells::BoundStage> stages_; ///< Ring order.
};

} // namespace stsense::ring
