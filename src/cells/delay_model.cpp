#include "cells/delay_model.hpp"

#include "phys/mosfet.hpp"

#include <cmath>
#include <stdexcept>

namespace stsense::cells {

namespace {

/// Parallel switching devices in the pull-up network under Bridge tie.
int pmos_parallel_count(CellKind kind) {
    switch (kind) {
        case CellKind::Nand2: return 2;
        case CellKind::Nand3: return 3;
        default: return 1;
    }
}

/// Parallel switching devices in the pull-down network under Bridge tie.
int nmos_parallel_count(CellKind kind) {
    switch (kind) {
        case CellKind::Nor2: return 2;
        case CellKind::Nor3: return 3;
        default: return 1;
    }
}

} // namespace

DelayModel::DelayModel(const phys::Technology& tech) : tech_(tech) {
    phys::validate(tech_);
}

double DelayModel::resolved_ratio(const CellSpec& spec) const {
    return spec.ratio > 0.0 ? spec.ratio : tech_.library_ratio;
}

CellSizes DelayModel::sizes(const CellSpec& spec) const {
    validate(spec);
    CellSizes s;
    s.wn = spec.drive * tech_.unit_nmos_width;
    s.wp = resolved_ratio(spec) * s.wn;
    return s;
}

double DelayModel::input_capacitance(const CellSpec& spec) const {
    const CellSizes s = sizes(spec);
    const phys::MosGeometry gn{s.wn, tech_.lmin};
    const phys::MosGeometry gp{s.wp, tech_.lmin};
    const double per_pin = phys::gate_capacitance(tech_.nmos, gn) +
                           phys::gate_capacitance(tech_.pmos, gp);
    const int pins = spec.tie == SideInputTie::Bridge ? input_count(spec.kind) : 1;
    return per_pin * pins;
}

double DelayModel::output_capacitance(const CellSpec& spec) const {
    const CellSizes s = sizes(spec);
    const phys::MosGeometry gn{s.wn, tech_.lmin};
    const phys::MosGeometry gp{s.wp, tech_.lmin};
    // Drains touching the output node: one end of the NMOS network and
    // every PMOS drain for NAND (parallel pull-up), and vice versa for NOR.
    const int n_drains = nmos_parallel_count(spec.kind);
    const int p_drains = pmos_parallel_count(spec.kind);
    return n_drains * phys::drain_capacitance(tech_.nmos, gn) +
           p_drains * phys::drain_capacitance(tech_.pmos, gp);
}

double DelayModel::pulldown_current(const CellSpec& spec, double temp_k) const {
    return bind(spec, 0.0).down_.current(
        tech_.vdd, temp_k, phys::mobility_factor(tech_.nmos, temp_k));
}

double DelayModel::pullup_current(const CellSpec& spec, double temp_k) const {
    return bind(spec, 0.0).up_.current(
        tech_.vdd, temp_k, phys::mobility_factor(tech_.pmos, temp_k));
}

Mobility DelayModel::mobility(double temp_k) const {
    return {phys::mobility_factor(tech_.nmos, temp_k),
            phys::mobility_factor(tech_.pmos, temp_k)};
}

// The per-cell Vth shift leaves mobility alone, so the technology
// card's mobility factor is the shifted card's too.
BoundStage DelayModel::bind(const CellSpec& spec, double load_farads) const {
    if (!(std::isfinite(load_farads) && load_farads >= 0.0)) {
        throw std::invalid_argument(
            "DelayModel::bind: load must be finite and >= 0");
    }
    const CellSizes s = sizes(spec);
    const bool bridge = spec.tie == SideInputTie::Bridge;
    auto network = [&](const phys::MosfetParams& card, double w, int par,
                       int stack) {
        BoundStage::Network n;
        n.device = phys::bind_device(card, {w, tech_.lmin});
        n.device.vth0 += spec.vth_shift_v;
        n.par = bridge ? par : 1;
        n.stack = stack;
        return n;
    };
    BoundStage b;
    b.down_ = network(tech_.nmos, s.wn, nmos_parallel_count(spec.kind),
                      nmos_stack_depth(spec.kind));
    b.up_ = network(tech_.pmos, s.wp, pmos_parallel_count(spec.kind),
                    pmos_stack_depth(spec.kind));
    b.vdd_ = tech_.vdd;
    b.charge_ = kDelayFactor * (load_farads + output_capacitance(spec)) *
                tech_.vdd;
    b.load_ = load_farads;
    return b;
}

CellDelays DelayModel::delays(const CellSpec& spec, double load_farads,
                              double temp_k) const {
    return bind(spec, load_farads).delays(temp_k, mobility(temp_k));
}

double BoundStage::Network::current(double vdd, double temp_k,
                                    double mu) const {
    return phys::saturation_current(device, vdd, temp_k, mu) * par / stack;
}

CellDelays BoundStage::delays(double temp_k, const Mobility& mu) const {
    CellDelays d;
    d.tphl = charge_ / down_.current(vdd_, temp_k, mu.nmos);
    d.tplh = charge_ / up_.current(vdd_, temp_k, mu.pmos);
    return d;
}

} // namespace stsense::cells
