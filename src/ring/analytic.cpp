#include "ring/analytic.hpp"

#include <stdexcept>

namespace stsense::ring {

AnalyticRingModel::AnalyticRingModel(const phys::Technology& tech,
                                     const RingConfig& config)
    : model_(tech) {
    validate(config);
    const std::size_t n = config.stages.size();
    stages_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto& next = config.stages[(i + 1) % n];
        stages_.push_back(model_.bind(
            config.stages[i],
            model_.input_capacitance(next) + tech.wire_cap_per_stage));
    }
}

double AnalyticRingModel::period(double temp_k) const {
    // Mobility is a property of the device card and the temperature, not
    // of the stage: form (T/T0)^-m once per card and hand it to every
    // bound stage, which forms the rest of its delays in the order
    // DelayModel::delays does.
    const cells::Mobility mu = model_.mobility(temp_k);
    double sum = 0.0;
    for (const cells::BoundStage& stage : stages_) {
        sum += stage.delays(temp_k, mu).pair_delay();
    }
    return sum;
}

double AnalyticRingModel::frequency(double temp_k) const {
    const double p = period(temp_k);
    if (p <= 0.0) throw std::logic_error("AnalyticRingModel: non-positive period");
    return 1.0 / p;
}

std::vector<double> AnalyticRingModel::periods(
    std::span<const double> temps_k) const {
    std::vector<double> out;
    out.reserve(temps_k.size());
    for (double t : temps_k) out.push_back(period(t));
    return out;
}

double AnalyticRingModel::stage_load(std::size_t i) const {
    if (i >= stages_.size()) throw std::out_of_range("stage_load: bad index");
    return stages_[i].load();
}

double AnalyticRingModel::sensitivity(double temp_k, double dt_k) const {
    if (dt_k <= 0.0) throw std::invalid_argument("sensitivity: dt_k must be > 0");
    return (period(temp_k + dt_k) - period(temp_k - dt_k)) / (2.0 * dt_k);
}

} // namespace stsense::ring
