#include "phys/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stsense::phys {

SoftplusEval softplus_blend(double x, double s) {
    // Numerically stable: for large |x/s| avoid exp overflow.
    const double t = x / s;
    if (t > 40.0) return {x, 1.0};
    if (t < -40.0) return {s * std::exp(t), std::exp(t)};
    const double e = std::exp(t);
    return {s * std::log1p(e), e / (1.0 + e)};
}

namespace {

/// Local alias for the historical call sites below.
using Softplus = SoftplusEval;

Softplus softplus(double x, double s) { return softplus_blend(x, s); }

void check_temperature(double temp_k) {
    if (temp_k <= 0.0) throw std::invalid_argument("mosfet: temperature must be > 0 K");
}

void check_device(const MosfetParams& p, const MosGeometry& g) {
    if (g.w <= 0.0 || g.l <= 0.0) throw std::invalid_argument("mosfet: W and L must be > 0");
    if (p.alpha < 1.0 || p.alpha > 2.0) throw std::invalid_argument("mosfet: alpha out of [1,2]");
}

void check_inputs(const MosfetParams& p, const MosGeometry& g, double temp_k) {
    check_temperature(temp_k);
    check_device(p, g);
}

double threshold(double vth0, double vth_tc, double t0, double temp_k) {
    return vth0 - vth_tc * (temp_k - t0);
}

} // namespace

double threshold_voltage(const MosfetParams& p, double temp_k) {
    return threshold(p.vth0, p.vth_tc, p.t0, temp_k);
}

double mobility_factor(const MosfetParams& p, double temp_k) {
    return std::pow(temp_k / p.t0, -p.mobility_exp);
}

double saturation_current(const MosfetParams& p, const MosGeometry& g,
                          double vgs, double temp_k) {
    return saturation_current(p, g, vgs, temp_k, mobility_factor(p, temp_k));
}

double saturation_current(const MosfetParams& p, const MosGeometry& g,
                          double vgs, double temp_k, double mu) {
    return saturation_current(bind_device(p, g), vgs, temp_k, mu);
}

BoundDevice bind_device(const MosfetParams& p, const MosGeometry& g) {
    check_device(p, g);
    return {p.kp * (g.w / g.l), p.vth0, p.vth_tc, p.t0, p.smoothing, p.alpha};
}

double saturation_current(const BoundDevice& d, double vgs, double temp_k,
                          double mu) {
    check_temperature(temp_k);
    const double vgst = vgs - threshold(d.vth0, d.vth_tc, d.t0, temp_k);
    const Softplus eff = softplus(vgst, d.smoothing);
    return d.kw * mu * std::pow(eff.value, d.alpha);
}

double saturation_voltage(const MosfetParams& p, double vgs, double temp_k) {
    const double vgst = vgs - threshold_voltage(p, temp_k);
    const Softplus eff = softplus(vgst, p.smoothing);
    return p.vdsat_coeff * std::pow(eff.value, 0.5 * p.alpha);
}

MosEval evaluate(const MosfetParams& p, const MosGeometry& g,
                 double vgs, double vds, double temp_k) {
    check_inputs(p, g, temp_k);

    if (vds < 0.0) {
        // Source/drain are symmetric: conduction with swapped terminals.
        // id(vgs, vds) = -id(vgd, -vds) with vgd = vgs - vds.
        MosEval sw = evaluate(p, g, vgs - vds, -vds, temp_k);
        MosEval out;
        out.id = -sw.id;
        out.gm = -sw.gm;
        // d/dvds [-id(vgs-vds, -vds)] = sw.gm + sw.gds.
        out.gds = sw.gm + sw.gds;
        return out;
    }

    const double vth = threshold_voltage(p, temp_k);
    const double vgst = vgs - vth;
    const Softplus eff = softplus(vgst, p.smoothing);
    const double mu = mobility_factor(p, temp_k);
    const double k = p.kp * (g.w / g.l) * mu;

    // Saturation current and Vdsat as functions of the effective overdrive.
    const double veffa = std::pow(eff.value, p.alpha);
    const double idsat = k * veffa;
    const double didsat_dveff = p.alpha * k * std::pow(eff.value, p.alpha - 1.0);

    const double vdsat = p.vdsat_coeff * std::pow(eff.value, 0.5 * p.alpha);
    const double dvdsat_dveff =
        0.5 * p.alpha * p.vdsat_coeff * std::pow(eff.value, 0.5 * p.alpha - 1.0);

    const double clm = 1.0 + p.lambda * vds;

    MosEval out;
    if (vds >= vdsat) {
        // Saturation: Id = Idsat * (1 + lambda*vds).
        out.id = idsat * clm;
        out.gds = idsat * p.lambda;
        out.gm = didsat_dveff * eff.derivative * clm;
    } else {
        // Triode: Id = Idsat * (2 - x) * x * (1 + lambda*vds), x = vds/vdsat.
        const double x = vds / vdsat;
        const double shape = (2.0 - x) * x;
        out.id = idsat * shape * clm;
        // dId/dVds at constant vgs.
        const double dshape_dx = 2.0 - 2.0 * x;
        out.gds = idsat * (dshape_dx / vdsat * clm + shape * p.lambda);
        // dId/dVgs: through idsat and through vdsat (x depends on vdsat).
        const double dx_dveff = -vds / (vdsat * vdsat) * dvdsat_dveff;
        out.gm = (didsat_dveff * shape + idsat * dshape_dx * dx_dveff) *
                 eff.derivative * clm;
    }
    return out;
}

double gate_capacitance(const MosfetParams& p, const MosGeometry& g) {
    return p.cgate_per_w * g.w;
}

double drain_capacitance(const MosfetParams& p, const MosGeometry& g) {
    return p.cdrain_per_w * g.w;
}

} // namespace stsense::phys
