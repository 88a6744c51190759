#include "spice/simulator.hpp"

#include "phys/technology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace stsense::spice {
namespace {

TEST(DcOperatingPoint, ResistorDivider) {
    Circuit c;
    const NodeId vdd = c.add_driven_node("vdd", Source::dc(3.0));
    const NodeId mid = c.add_node("mid");
    c.add_resistor(vdd, mid, 1e3);
    c.add_resistor(mid, c.ground(), 2e3);

    Simulator sim(c);
    const auto v = sim.dc_operating_point();
    EXPECT_NEAR(v[mid.index], 2.0, 1e-5);
    EXPECT_DOUBLE_EQ(v[vdd.index], 3.0);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
}

TEST(DcOperatingPoint, InverterLogicLevels) {
    const auto tech = phys::cmos350();
    for (const double vin : {0.0, tech.vdd}) {
        Circuit c;
        const NodeId vdd = c.add_driven_node("vdd", Source::dc(tech.vdd));
        const NodeId in = c.add_driven_node("in", Source::dc(vin));
        const NodeId out = c.add_node("out");
        Mosfet mn;
        mn.drain = out;
        mn.gate = in;
        mn.source = c.ground();
        mn.params = tech.nmos;
        mn.geometry = {1e-6, tech.lmin};
        c.add_mosfet(mn);
        Mosfet mp;
        mp.drain = out;
        mp.gate = in;
        mp.source = vdd;
        mp.params = tech.pmos;
        mp.geometry = {2e-6, tech.lmin};
        c.add_mosfet(mp);

        Simulator sim(c);
        const auto v = sim.dc_operating_point();
        if (vin == 0.0) {
            EXPECT_GT(v[out.index], 0.95 * tech.vdd) << "output should be high";
        } else {
            EXPECT_LT(v[out.index], 0.05 * tech.vdd) << "output should be low";
        }
    }
}

class RcChargeTest : public ::testing::TestWithParam<Integrator> {};

TEST_P(RcChargeTest, MatchesClosedForm) {
    // Step through R into C: v(t) = V (1 - exp(-t/RC)), tau = 1 ns.
    const double r = 1e3;
    const double cap = 1e-12;
    const double tau = r * cap;
    const double vstep = 2.0;

    Circuit c;
    const NodeId src = c.add_driven_node("src", Source::step(0.0, vstep, 0.0));
    const NodeId out = c.add_node("out");
    c.add_resistor(src, out, r);
    c.add_capacitor(out, c.ground(), cap);

    SimOptions opt;
    opt.integrator = GetParam();
    Simulator sim(c, opt);

    TransientSpec spec;
    spec.t_stop = 5.0 * tau;
    spec.dt = tau / 100.0;
    spec.start_from_dc = true;
    spec.probes = {out};
    const auto res = sim.transient(spec);

    const Trace& tr = res.trace("out");
    for (std::size_t i = 0; i < tr.size(); i += 25) {
        const double expected = vstep * (1.0 - std::exp(-tr.time[i] / tau));
        EXPECT_NEAR(tr.value[i], expected, 0.01 * vstep) << "t=" << tr.time[i];
    }
    // Settles to the step level.
    EXPECT_NEAR(tr.value.back(), vstep, 0.02);
}

TEST_P(RcChargeTest, ErrorFallsAtTheIntegratorsOrder) {
    // The same step response at dt = tau/25 ... tau/400: each halving of
    // dt must cut the worst error over 5 tau by 2^p, p the rule's order
    // (trapezoidal 2, backward Euler 1). The first step is always
    // backward Euler, whose O(dt^2) local error does not lower the
    // trapezoidal run's global order.
    const double r = 1e3;
    const double cap = 1e-12;
    const double tau = r * cap;
    const double vstep = 2.0;

    Circuit c;
    const NodeId src = c.add_driven_node("src", Source::step(0.0, vstep, 0.0));
    const NodeId out = c.add_node("out");
    c.add_resistor(src, out, r);
    c.add_capacitor(out, c.ground(), cap);

    const auto max_error = [&](int steps_per_tau) {
        SimOptions opt;
        opt.integrator = GetParam();
        Simulator sim(c, opt);
        TransientSpec spec;
        spec.t_stop = 5.0 * tau;
        spec.dt = tau / steps_per_tau;
        spec.start_from_dc = true;
        spec.probes = {out};
        const auto res = sim.transient(spec);
        const Trace& tr = res.trace("out");
        double err = 0.0;
        for (std::size_t i = 0; i < tr.size(); ++i) {
            const double expected = vstep * (1.0 - std::exp(-tr.time[i] / tau));
            err = std::max(err, std::abs(tr.value[i] - expected));
        }
        return err;
    };

    const bool trap = GetParam() == Integrator::Trapezoidal;
    const double lo = trap ? 3.5 : 1.8;
    const double hi = trap ? 4.5 : 2.2;
    double coarse = max_error(25);
    for (int steps_per_tau = 50; steps_per_tau <= 400; steps_per_tau *= 2) {
        const double fine = max_error(steps_per_tau);
        const double ratio = coarse / fine;
        EXPECT_GE(ratio, lo) << "dt = tau/" << steps_per_tau;
        EXPECT_LE(ratio, hi) << "dt = tau/" << steps_per_tau;
        coarse = fine;
    }
}

INSTANTIATE_TEST_SUITE_P(Integrators, RcChargeTest,
                         ::testing::Values(Integrator::BackwardEuler,
                                           Integrator::Trapezoidal),
                         [](const ::testing::TestParamInfo<Integrator>& info) {
                             return info.param == Integrator::Trapezoidal
                                        ? "Trapezoidal"
                                        : "BackwardEuler";
                         });

TEST(Transient, TrapezoidalMoreAccurateThanBackwardEuler) {
    // Smooth exponential discharge (no input discontinuity, where
    // trapezoidal would ring): v(t) = 2 exp(-t/tau).
    const double r = 1e3;
    const double cap = 1e-12;
    const double tau = r * cap;

    auto max_err = [&](Integrator integ) {
        Circuit c;
        const NodeId out = c.add_node("out");
        c.add_resistor(out, c.ground(), r);
        c.add_capacitor(out, c.ground(), cap);
        SimOptions opt;
        opt.integrator = integ;
        Simulator sim(c, opt);
        TransientSpec spec;
        spec.t_stop = 3.0 * tau;
        spec.dt = tau / 20.0; // Deliberately coarse.
        spec.start_from_dc = false;
        spec.initial_conditions = {{out, 2.0}};
        spec.probes = {out};
        const auto res = sim.transient(spec);
        const Trace& tr = res.trace("out");
        double err = 0.0;
        for (std::size_t i = 1; i < tr.size(); ++i) {
            const double expected = 2.0 * std::exp(-tr.time[i] / tau);
            err = std::max(err, std::abs(tr.value[i] - expected));
        }
        return err;
    };

    EXPECT_LT(max_err(Integrator::Trapezoidal), max_err(Integrator::BackwardEuler));
}

TEST(Transient, InitialConditionDischarge) {
    // C discharging through R from 2 V: v(t) = 2 exp(-t/tau).
    const double r = 1e3;
    const double cap = 1e-12;
    const double tau = r * cap;

    Circuit c;
    const NodeId out = c.add_node("out");
    c.add_resistor(out, c.ground(), r);
    c.add_capacitor(out, c.ground(), cap);

    Simulator sim(c);
    TransientSpec spec;
    spec.t_stop = 3.0 * tau;
    spec.dt = tau / 200.0;
    spec.start_from_dc = false;
    spec.initial_conditions = {{out, 2.0}};
    spec.probes = {out};
    const auto res = sim.transient(spec);
    const Trace& tr = res.trace("out");
    for (std::size_t i = 0; i < tr.size(); i += 50) {
        EXPECT_NEAR(tr.value[i], 2.0 * std::exp(-tr.time[i] / tau), 0.02)
            << "t=" << tr.time[i];
    }
}

TEST(Transient, CapacitorDividerCouplesStep) {
    // Series caps from a stepped source: out = step * C1 / (C1 + C2).
    Circuit c;
    const NodeId src = c.add_driven_node("src", Source::step(0.0, 1.0, 1e-10));
    const NodeId out = c.add_node("out");
    c.add_capacitor(src, out, 2e-12);
    c.add_capacitor(out, c.ground(), 1e-12);
    // Weak bleed to ground to define DC.
    c.add_resistor(out, c.ground(), 1e9);

    Simulator sim(c);
    TransientSpec spec;
    spec.t_stop = 3e-10;
    spec.dt = 1e-12;
    spec.probes = {out};
    const auto res = sim.transient(spec);
    EXPECT_NEAR(res.trace("out").value.back(), 2.0 / 3.0, 0.01);
}

TEST(Transient, SpecValidation) {
    Circuit c;
    const NodeId a = c.add_node("a");
    c.add_resistor(a, c.ground(), 1e3);
    Simulator sim(c);

    TransientSpec spec;
    spec.t_stop = 0.0;
    spec.dt = 1e-12;
    EXPECT_THROW(sim.transient(spec), std::invalid_argument);

    spec.t_stop = 1e-9;
    spec.dt = 0.0;
    EXPECT_THROW(sim.transient(spec), std::invalid_argument);

    spec.dt = 1e-12;
    spec.record_stride = 0;
    EXPECT_THROW(sim.transient(spec), std::invalid_argument);

    spec.record_stride = 1;
    spec.initial_conditions = {{NodeId{42}, 1.0}};
    EXPECT_THROW(sim.transient(spec), std::invalid_argument);

    spec.initial_conditions = {{c.ground(), 1.0}};
    EXPECT_THROW(sim.transient(spec), std::invalid_argument);
}

TEST(Transient, RecordStrideThinsTraces) {
    Circuit c;
    const NodeId a = c.add_node("a");
    c.add_resistor(a, c.ground(), 1e3);
    c.add_capacitor(a, c.ground(), 1e-12);
    Simulator sim(c);

    TransientSpec spec;
    spec.t_stop = 1e-9;
    spec.dt = 1e-11; // 100 steps.
    spec.record_stride = 10;
    spec.probes = {a};
    const auto res = sim.transient(spec);
    // Initial point + every 10th step.
    EXPECT_EQ(res.trace("a").size(), 11u);
}

TEST(Transient, MissingTraceLookupThrows) {
    Circuit c;
    const NodeId a = c.add_node("a");
    c.add_resistor(a, c.ground(), 1e3);
    Simulator sim(c);
    TransientSpec spec;
    spec.t_stop = 1e-12;
    spec.dt = 1e-12;
    const auto res = sim.transient(spec);
    EXPECT_THROW(res.trace("nope"), std::invalid_argument);
}

TEST(SupplyMetering, ResistiveLoadPowerExact) {
    // 3 V across 3 kOhm total: the source delivers exactly 3 mW.
    Circuit c;
    const NodeId vdd = c.add_driven_node("vdd", Source::dc(3.0));
    const NodeId mid = c.add_node("mid");
    c.add_resistor(vdd, mid, 1e3);
    c.add_resistor(mid, c.ground(), 2e3);

    Simulator sim(c);
    TransientSpec spec;
    spec.t_stop = 1e-9;
    spec.dt = 1e-11;
    spec.measure_power = true;
    const auto res = sim.transient(spec);
    EXPECT_NEAR(res.average_source_power_w(vdd, spec.t_stop), 3e-3, 3e-6);
    // Ground sits at 0 V: it returns current but delivers no energy.
    EXPECT_NEAR(res.source_energy_j[0], 0.0, 1e-18);
}

TEST(SupplyMetering, RcChargeDeliversCV2) {
    // Charging C through R from a step: the source delivers C*V^2 total
    // (half stored, half burned in R), independent of R.
    const double cap = 1e-12;
    const double v = 2.0;
    Circuit c;
    const NodeId src = c.add_driven_node("src", Source::step(0.0, v, 0.0));
    const NodeId out = c.add_node("out");
    c.add_resistor(src, out, 1e3);
    c.add_capacitor(out, c.ground(), cap);

    Simulator sim(c);
    TransientSpec spec;
    spec.t_stop = 10e-9; // 10 tau: fully charged.
    spec.dt = 1e-11;
    spec.measure_power = true;
    const auto res = sim.transient(spec);
    EXPECT_NEAR(res.source_energy_j[src.index], cap * v * v, 0.03 * cap * v * v);
}

TEST(SupplyMetering, OffByDefault) {
    Circuit c;
    const NodeId a = c.add_node("a");
    c.add_resistor(a, c.ground(), 1e3);
    Simulator sim(c);
    TransientSpec spec;
    spec.t_stop = 1e-12;
    spec.dt = 1e-12;
    const auto res = sim.transient(spec);
    EXPECT_TRUE(res.source_energy_j.empty());
    EXPECT_THROW(res.average_source_power_w(a, 1.0), std::invalid_argument);
}

TEST(Simulator, OptionValidation) {
    Circuit c;
    SimOptions opt;
    opt.temp_k = -1.0;
    EXPECT_THROW(Simulator(c, opt), std::invalid_argument);
    opt.temp_k = 300.0;
    opt.gmin = -1.0;
    EXPECT_THROW(Simulator(c, opt), std::invalid_argument);
}

} // namespace
} // namespace stsense::spice
