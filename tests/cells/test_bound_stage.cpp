// The bound stage against an unbound oracle of t_p, bit for bit.
//
// The oracle below is written from the documented formulas (the
// delay_model.hpp and mosfet.hpp header comments) without calling the
// delay model or the I-V law:
//
//     W_n = drive * unit_nmos_width,  W_p = ratio * W_n
//     C_L = load + n_drains * cdrain_n * W_n + p_drains * cdrain_p * W_p
//     Vth(T) = (vth0 + vth_shift) - vth_tc * (T - t0)
//     eff = softplus(Vdd - Vth(T)) of width `smoothing`
//     I = kp * (W/L) * (T/t0)^-m * eff^alpha * par / stack
//     t_p = K * C_L * Vdd / I
//
// Each product is written left to right as the formula reads, so a
// bound stage that re-associated anything would differ in the last bit.
#include "cells/delay_model.hpp"

#include "phys/units.hpp"
#include "ring/analytic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::cells {
namespace {

/// Which softplus branch the oracle took, per call.
struct BranchCounts {
    int linear = 0; ///< overdrive / s > 40: the overdrive itself.
    int blend = 0;  ///< |overdrive / s| <= 40: s * log1p(exp(x / s)).
    int tail = 0;   ///< overdrive / s < -40: s * exp(x / s).
};

double oracle_softplus(double x, double s, BranchCounts& branches) {
    const double t = x / s;
    if (t > 40.0) {
        ++branches.linear;
        return x;
    }
    if (t < -40.0) {
        ++branches.tail;
        return s * std::exp(t);
    }
    ++branches.blend;
    return s * std::log1p(std::exp(t));
}

int oracle_parallel(CellKind kind, bool nmos) {
    if (nmos) {
        return kind == CellKind::Nor2 ? 2 : kind == CellKind::Nor3 ? 3 : 1;
    }
    return kind == CellKind::Nand2 ? 2 : kind == CellKind::Nand3 ? 3 : 1;
}

/// A NAND's series pull-down mirrors its parallel pull-up, and a NOR's
/// series pull-up its parallel pull-down.
int oracle_stack(CellKind kind, bool nmos) {
    return oracle_parallel(kind, !nmos);
}

double oracle_current(const phys::Technology& tech, const phys::MosfetParams& p,
                      const CellSpec& spec, double w, bool nmos,
                      double temp_k, BranchCounts& branches) {
    const double vth = (p.vth0 + spec.vth_shift_v) - p.vth_tc * (temp_k - p.t0);
    const double eff = oracle_softplus(tech.vdd - vth, p.smoothing, branches);
    const double mu = std::pow(temp_k / p.t0, -p.mobility_exp);
    const double unit = p.kp * (w / tech.lmin) * mu * std::pow(eff, p.alpha);
    const double par =
        spec.tie == SideInputTie::Bridge ? oracle_parallel(spec.kind, nmos) : 1;
    const double stack = oracle_stack(spec.kind, nmos);
    return unit * par / stack;
}

CellDelays oracle_delays(const phys::Technology& tech, const CellSpec& spec,
                         double load, double temp_k, BranchCounts& branches) {
    const double ratio = spec.ratio > 0.0 ? spec.ratio : tech.library_ratio;
    const double wn = spec.drive * tech.unit_nmos_width;
    const double wp = ratio * wn;
    const double c_out =
        oracle_parallel(spec.kind, true) * (tech.nmos.cdrain_per_w * wn) +
        oracle_parallel(spec.kind, false) * (tech.pmos.cdrain_per_w * wp);
    const double cl = load + c_out;
    CellDelays d;
    d.tphl = kDelayFactor * cl * tech.vdd /
             oracle_current(tech, tech.nmos, spec, wn, true, temp_k, branches);
    d.tplh = kDelayFactor * cl * tech.vdd /
             oracle_current(tech, tech.pmos, spec, wp, false, temp_k, branches);
    return d;
}

double oracle_input_capacitance(const phys::Technology& tech,
                                const CellSpec& spec) {
    const double ratio = spec.ratio > 0.0 ? spec.ratio : tech.library_ratio;
    const double wn = spec.drive * tech.unit_nmos_width;
    const double wp = ratio * wn;
    const double per_pin = tech.nmos.cgate_per_w * wn + tech.pmos.cgate_per_w * wp;
    const int pins = spec.tie == SideInputTie::Bridge ? input_count(spec.kind) : 1;
    return per_pin * pins;
}

/// A 0.6 V card whose thresholds move 5 mV/K: at 20 K the overdrive is
/// below -40 softplus widths, near 300 K inside +-40, and at 600 K
/// above +40 — every branch of the blend.
phys::Technology low_vdd_card() {
    phys::Technology t = phys::cmos350();
    t.name = "low-vdd";
    t.vdd = 0.6;
    t.nmos.vth0 = 0.55;
    t.pmos.vth0 = 0.55;
    t.nmos.vth_tc = 5e-3;
    t.pmos.vth_tc = 5e-3;
    return t;
}

/// Every CellKind x tie x ratio (library, explicit) x drive x Vth shift.
std::vector<CellSpec> spec_grid() {
    std::vector<CellSpec> out;
    for (CellKind kind : kAllCellKinds) {
        for (SideInputTie tie : {SideInputTie::Supply, SideInputTie::Bridge}) {
            for (double ratio : {0.0, 2.75}) {
                for (double drive : {1.0, 2.5}) {
                    for (double shift : {0.0, 0.2, -0.2}) {
                        CellSpec s;
                        s.kind = kind;
                        s.tie = tie;
                        s.ratio = ratio;
                        s.drive = drive;
                        s.vth_shift_v = shift;
                        out.push_back(s);
                    }
                }
            }
        }
    }
    return out;
}

void expect_bitwise_oracle(const phys::Technology& tech,
                           const std::vector<double>& temps_k,
                           BranchCounts& branches) {
    const DelayModel model(tech);
    for (const CellSpec& spec : spec_grid()) {
        for (double load : {0.0, phys::femto(12.5)}) {
            const BoundStage bound = model.bind(spec, load);
            EXPECT_EQ(bound.load(), load);
            for (double t : temps_k) {
                const CellDelays want = oracle_delays(tech, spec, load, t, branches);
                const CellDelays got = bound.delays(t, model.mobility(t));
                const CellDelays direct = model.delays(spec, load, t);
                const std::string where = tech.name + " " + describe(spec) +
                                          " shift=" +
                                          std::to_string(spec.vth_shift_v) +
                                          " load=" + std::to_string(load) +
                                          " T=" + std::to_string(t);
                EXPECT_EQ(got.tphl, want.tphl) << where;
                EXPECT_EQ(got.tplh, want.tplh) << where;
                EXPECT_EQ(direct.tphl, want.tphl) << where;
                EXPECT_EQ(direct.tplh, want.tplh) << where;
            }
        }
    }
}

TEST(BoundStage, DelaysAreBitwiseTheUnboundOracle) {
    BranchCounts branches;
    expect_bitwise_oracle(phys::cmos350(), {223.15, 300.0, 373.15, 423.15},
                          branches);
    EXPECT_GT(branches.linear, 0);
}

TEST(BoundStage, EverySoftplusBranchIsBitwiseTheOracle) {
    BranchCounts branches;
    expect_bitwise_oracle(low_vdd_card(), {20.0, 290.0, 300.0, 310.0, 600.0},
                          branches);
    EXPECT_GT(branches.linear, 0);
    EXPECT_GT(branches.blend, 0);
    EXPECT_GT(branches.tail, 0);
}

TEST(BoundStage, RingPeriodIsBitwiseTheOracleSum) {
    // A mixed ring with bridged and supply-tied multi-input cells, shifted
    // thresholds, explicit ratios and a wire load on every node.
    for (phys::Technology tech : {phys::cmos350(), low_vdd_card()}) {
        tech.wire_cap_per_stage = phys::femto(1.5);
        ring::RingConfig cfg = ring::RingConfig::mix(
            {{CellKind::Inv, 2}, {CellKind::Nand3, 2}, {CellKind::Nor2, 3}});
        for (std::size_t i = 0; i < cfg.stages.size(); ++i) {
            cfg.stages[i].tie =
                i % 2 ? SideInputTie::Bridge : SideInputTie::Supply;
            cfg.stages[i].vth_shift_v = 0.01 * (static_cast<double>(i) - 3.0);
            cfg.stages[i].ratio = i % 3 ? 0.0 : 3.1;
        }
        const ring::AnalyticRingModel ring(tech, cfg);
        BranchCounts branches;
        for (double t : {20.0, 250.0, 300.0, 423.15, 600.0}) {
            double sum = 0.0;
            const std::size_t n = cfg.stages.size();
            for (std::size_t i = 0; i < n; ++i) {
                const double load =
                    oracle_input_capacitance(tech, cfg.stages[(i + 1) % n]) +
                    tech.wire_cap_per_stage;
                EXPECT_EQ(ring.stage_load(i), load);
                sum += oracle_delays(tech, cfg.stages[i], load, t, branches)
                           .pair_delay();
            }
            EXPECT_EQ(ring.period(t), sum) << tech.name << " T=" << t;
        }
    }
}

TEST(BoundStage, NonPositiveTemperatureStillThrows) {
    const DelayModel model(phys::cmos350());
    const BoundStage bound = model.bind(CellSpec{}, phys::femto(10.0));
    for (double t : {0.0, -1.0, -300.0}) {
        EXPECT_THROW(bound.delays(t, model.mobility(t)), std::invalid_argument);
        EXPECT_THROW(model.delays(CellSpec{}, phys::femto(10.0), t),
                     std::invalid_argument);
    }
    const ring::AnalyticRingModel ring(phys::cmos350(),
                                       ring::RingConfig::uniform(CellKind::Inv, 5));
    EXPECT_THROW(ring.period(0.0), std::invalid_argument);
    EXPECT_THROW(ring.period(-10.0), std::invalid_argument);
}

TEST(BoundStage, BadLoadOrSpecThrowsAtBind) {
    const DelayModel model(phys::cmos350());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double load : {-1e-15, nan, inf, -inf}) {
        EXPECT_THROW(model.bind(CellSpec{}, load), std::invalid_argument) << load;
        EXPECT_THROW(model.delays(CellSpec{}, load, 300.0), std::invalid_argument)
            << load;
    }
    CellSpec bad;
    bad.drive = 0.0;
    EXPECT_THROW(model.bind(bad, 0.0), std::invalid_argument);
    bad = CellSpec{};
    bad.vth_shift_v = 0.25;
    EXPECT_THROW(model.bind(bad, 0.0), std::invalid_argument);

    ring::RingConfig cfg = ring::RingConfig::uniform(CellKind::Inv, 5);
    cfg.stages[2].ratio = -1.0;
    EXPECT_THROW(ring::AnalyticRingModel(phys::cmos350(), cfg),
                 std::invalid_argument);
}

} // namespace
} // namespace stsense::cells
