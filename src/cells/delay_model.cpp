#include "cells/delay_model.hpp"

#include "phys/mosfet.hpp"

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
    return pulldown(spec, temp_k, phys::mobility_factor(tech_.nmos, temp_k));
}

double DelayModel::pullup_current(const CellSpec& spec, double temp_k) const {
    return pullup(spec, temp_k, phys::mobility_factor(tech_.pmos, temp_k));
}

// The per-cell Vth shift leaves mobility alone, so the technology
// card's factor is the shifted card's too.
double DelayModel::pulldown(const CellSpec& spec, double temp_k,
                            double mu_n) const {
    const CellSizes s = sizes(spec);
    const phys::MosGeometry gn{s.wn, tech_.lmin};
    phys::MosfetParams nmos = tech_.nmos;
    nmos.vth0 += spec.vth_shift_v;
    const double unit =
        phys::saturation_current(nmos, gn, tech_.vdd, temp_k, mu_n);
    const double stack = nmos_stack_depth(spec.kind);
    const double par = spec.tie == SideInputTie::Bridge
                           ? nmos_parallel_count(spec.kind)
                           : 1;
    return unit * par / stack;
}

double DelayModel::pullup(const CellSpec& spec, double temp_k,
                          double mu_p) const {
    const CellSizes s = sizes(spec);
    const phys::MosGeometry gp{s.wp, tech_.lmin};
    phys::MosfetParams pmos = tech_.pmos;
    pmos.vth0 += spec.vth_shift_v;
    const double unit =
        phys::saturation_current(pmos, gp, tech_.vdd, temp_k, mu_p);
    const double stack = pmos_stack_depth(spec.kind);
    const double par = spec.tie == SideInputTie::Bridge
                           ? pmos_parallel_count(spec.kind)
                           : 1;
    return unit * par / stack;
}

Mobility DelayModel::mobility(double temp_k) const {
    return {phys::mobility_factor(tech_.nmos, temp_k),
            phys::mobility_factor(tech_.pmos, temp_k)};
}

CellDelays DelayModel::delays(const CellSpec& spec, double load_farads,
                              double temp_k) const {
    return delays(spec, load_farads, temp_k, mobility(temp_k));
}

CellDelays DelayModel::delays(const CellSpec& spec, double load_farads,
                              double temp_k, const Mobility& mu) const {
    if (load_farads < 0.0) {
        throw std::invalid_argument("DelayModel::delays: negative load");
    }
    const double cl = load_farads + output_capacitance(spec);
    CellDelays d;
    d.tphl = kDelayFactor * cl * tech_.vdd / pulldown(spec, temp_k, mu.nmos);
    d.tplh = kDelayFactor * cl * tech_.vdd / pullup(spec, temp_k, mu.pmos);
    return d;
}

} // namespace stsense::cells
