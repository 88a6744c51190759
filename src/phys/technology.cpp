#include "phys/technology.hpp"

#include <cmath>
#include <stdexcept>

namespace stsense::phys {

Technology cmos350() {
    Technology t;
    t.name = "cmos350";
    t.vdd = 3.3;
    t.lmin = 0.35e-6;
    t.wmin = 0.5e-6;
    t.unit_nmos_width = 1.0e-6;
    t.library_ratio = 2.0;

    t.nmos.type = MosType::Nmos;
    t.nmos.vth0 = 0.55;
    t.nmos.alpha = 1.30;
    t.nmos.kp = 5.0e-5;
    t.nmos.mobility_exp = 1.5;
    t.nmos.vth_tc = 1.0e-3;
    t.nmos.lambda = 0.05;
    t.nmos.vdsat_coeff = 0.5;
    t.nmos.t0 = 300.0;
    t.nmos.cgate_per_w = 1.6e-9;
    t.nmos.cdrain_per_w = 1.0e-9;

    t.pmos.type = MosType::Pmos;
    t.pmos.vth0 = 0.65;
    t.pmos.alpha = 1.40;
    t.pmos.kp = 2.0e-5;       // Hole mobility ~2.5x lower than electrons.
    t.pmos.mobility_exp = 1.0;
    t.pmos.vth_tc = 1.7e-3;
    t.pmos.lambda = 0.05;
    t.pmos.vdsat_coeff = 0.5;
    t.pmos.t0 = 300.0;
    t.pmos.cgate_per_w = 1.6e-9;
    t.pmos.cdrain_per_w = 1.0e-9;

    return t;
}

// Scaled nodes carry smaller threshold tempcos (0.5-1 mV/K is typical
// below 0.25 um) and slightly different mobility exponents; with the
// reduced supply headroom these keep the N/P curvature cancellation —
// and thus the ratio-tuning optimum — inside a practical Wp/Wn range.

Technology cmos180() {
    Technology t = cmos350();
    t.name = "cmos180";
    t.vdd = 1.8;
    t.lmin = 0.18e-6;
    t.wmin = 0.24e-6;
    t.unit_nmos_width = 0.5e-6;
    t.nmos.vth0 = 0.45;
    t.nmos.kp = 1.4e-4;
    t.nmos.alpha = 1.25;
    t.nmos.mobility_exp = 1.6;
    t.nmos.vth_tc = 0.6e-3;
    t.nmos.cgate_per_w = 1.5e-9;
    t.pmos.vth0 = 0.50;
    t.pmos.kp = 5.6e-5;
    t.pmos.alpha = 1.35;
    t.pmos.mobility_exp = 1.15;
    t.pmos.vth_tc = 0.9e-3;
    t.pmos.cgate_per_w = 1.5e-9;
    return t;
}

Technology cmos130() {
    Technology t = cmos350();
    t.name = "cmos130";
    t.vdd = 1.2;
    t.lmin = 0.13e-6;
    t.wmin = 0.16e-6;
    t.unit_nmos_width = 0.4e-6;
    t.nmos.vth0 = 0.35;
    t.nmos.kp = 3.0e-4;
    t.nmos.alpha = 1.20;
    t.nmos.mobility_exp = 1.6;
    t.nmos.vth_tc = 0.5e-3;
    t.nmos.cgate_per_w = 1.4e-9;
    t.pmos.vth0 = 0.38;
    t.pmos.kp = 1.2e-4;
    t.pmos.alpha = 1.30;
    t.pmos.mobility_exp = 1.15;
    t.pmos.vth_tc = 0.7e-3;
    t.pmos.cgate_per_w = 1.4e-9;
    return t;
}

Technology technology_by_name(const std::string& name) {
    if (name == "cmos350") return cmos350();
    if (name == "cmos180") return cmos180();
    if (name == "cmos130") return cmos130();
    throw std::invalid_argument("unknown technology: " + name);
}

void validate(const Technology& tech) {
    auto fail = [&](const std::string& what) {
        throw std::invalid_argument("technology '" + tech.name + "': " + what);
    };
    // Every check is written to fail on NaN, and every field must be
    // finite: a delay model binds these constants once and evaluates
    // them at every temperature without looking again.
    auto finite = [](double v) { return std::isfinite(v); };
    auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    if (!positive(tech.vdd)) fail("vdd must be finite and > 0");
    if (!positive(tech.lmin) || !positive(tech.wmin)) {
        fail("geometry must be finite and > 0");
    }
    if (!(finite(tech.unit_nmos_width) && tech.unit_nmos_width >= tech.wmin)) {
        fail("unit_nmos_width must be finite and >= wmin");
    }
    if (!positive(tech.library_ratio)) fail("library_ratio must be finite and > 0");
    if (!(finite(tech.wire_cap_per_stage) && tech.wire_cap_per_stage >= 0.0)) {
        fail("wire_cap_per_stage must be finite and >= 0");
    }
    for (const MosfetParams* p : {&tech.nmos, &tech.pmos}) {
        if (!(p->vth0 > 0.0 && p->vth0 < tech.vdd)) fail("vth0 out of (0, vdd)");
        if (!(p->alpha >= 1.0 && p->alpha <= 2.0)) fail("alpha out of [1, 2]");
        if (!positive(p->kp)) fail("kp must be finite and > 0");
        if (!finite(p->mobility_exp)) fail("mobility_exp must be finite");
        if (!finite(p->vth_tc)) fail("vth_tc must be finite");
        if (!finite(p->lambda)) fail("lambda must be finite");
        if (!finite(p->vdsat_coeff)) fail("vdsat_coeff must be finite");
        if (!positive(p->t0)) fail("t0 must be finite and > 0");
        if (!positive(p->smoothing)) fail("smoothing must be finite and > 0");
        if (!positive(p->cgate_per_w) ||
            !(finite(p->cdrain_per_w) && p->cdrain_per_w >= 0.0)) {
            fail("capacitances invalid");
        }
    }
    if (tech.nmos.type != MosType::Nmos) fail("nmos card has wrong type");
    if (tech.pmos.type != MosType::Pmos) fail("pmos card has wrong type");
}

} // namespace stsense::phys
