// The fast transient kernel (TransientOptions): LU reuse, device
// bypass, and the stop_when early exit. The overriding contract under
// test: every fast feature is opt-in, and the default options
// reproduce the classic engine bit for bit.
#include "spice/simulator.hpp"

#include "phys/technology.hpp"
#include "spice/lockstep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace stsense::spice {
namespace {

bool traces_bitwise_equal(const Trace& a, const Trace& b) {
    return a.time.size() == b.time.size() &&
           a.value.size() == b.value.size() &&
           (a.time.empty() ||
            std::memcmp(a.time.data(), b.time.data(),
                        a.time.size() * sizeof(double)) == 0) &&
           (a.value.empty() ||
            std::memcmp(a.value.data(), b.value.data(),
                        a.value.size() * sizeof(double)) == 0);
}

/// Step through R into C (tau = 1 ns), the linear workhorse circuit:
/// its Jacobian is constant, so LU reuse must be *exact* on it.
struct RcFixture {
    Circuit c;
    NodeId src;
    NodeId out;
    static constexpr double r = 1e3;
    static constexpr double cap = 1e-12;
    static constexpr double tau = r * cap;

    RcFixture() {
        src = c.add_driven_node("src", Source::step(0.0, 2.0, 0.0));
        out = c.add_node("out");
        c.add_resistor(src, out, r);
        c.add_capacitor(out, c.ground(), cap);
    }

    TransientSpec spec() const {
        TransientSpec s;
        s.t_stop = 5.0 * tau;
        s.dt = tau / 100.0;
        s.start_from_dc = true;
        return s;
    }
};

/// CMOS inverter driven by a pulse train into a capacitive load — the
/// smallest circuit with the ring's nonlinearity, for bypass tests.
struct InverterFixture {
    phys::Technology tech = phys::cmos350();
    Circuit c;
    NodeId in;
    NodeId out;

    InverterFixture() {
        const NodeId vdd = c.add_driven_node("vdd", Source::dc(tech.vdd));
        in = c.add_driven_node(
            "in", Source::pulse(0.0, tech.vdd, 1e-9, 2e-9, 4e-9, 0.2e-9));
        out = c.add_node("out");
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
        c.add_capacitor(out, c.ground(), 50e-15);
    }

    TransientSpec spec() const {
        TransientSpec s;
        s.t_stop = 12e-9;
        s.dt = 10e-12;
        s.start_from_dc = true;
        return s;
    }
};

TEST(KernelOptions, Validation) {
    const RcFixture f;
    SimOptions opt;
    opt.kernel.bypass_tol_v = -1e-3;
    EXPECT_THROW(Simulator(f.c, opt), std::invalid_argument);

    opt = {};
    opt.kernel.lockstep_width = 0;
    EXPECT_THROW(Simulator(f.c, opt), std::invalid_argument);
}

TEST(KernelOptions, ConstructorRejectsNonFiniteOptions) {
    // NaN passes every `x <= 0` style check, so each option is tested
    // for finiteness explicitly.
    const RcFixture f;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf}) {
        SCOPED_TRACE(bad);
        SimOptions opt;
        opt.temp_k = bad;
        EXPECT_THROW(Simulator(f.c, opt), std::invalid_argument);
        opt = {};
        opt.gmin = bad;
        EXPECT_THROW(Simulator(f.c, opt), std::invalid_argument);
        opt = {};
        opt.kernel.bypass_tol_v = bad;
        EXPECT_THROW(Simulator(f.c, opt), std::invalid_argument);
    }
}

TEST(KernelOptions, TransientRejectsNonFiniteOrOverflowingLength) {
    // Each of these used to cast NaN/inf/1e300 to long in the step
    // count and report a zero-step run as a success.
    const RcFixture f;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto with = [&](double t_stop, double dt) {
        TransientSpec spec = f.spec();
        spec.t_stop = t_stop;
        spec.dt = dt;
        return spec;
    };
    const TransientSpec bad[] = {
        with(nan, 1e-11),   with(1e-9, nan),    with(inf, 1e-11),
        with(1e-9, inf),    with(1e300, 1e-11), with(1e-9, 1e-310),
        with(1e-30, 1e-9), // Rounds to zero steps.
    };
    for (const TransientSpec& spec : bad) {
        SCOPED_TRACE(std::to_string(spec.t_stop) + " / " + std::to_string(spec.dt));
        Simulator sim(f.c);
        EXPECT_THROW((void)sim.try_transient(spec), std::invalid_argument);
        EXPECT_THROW((void)run_lockstep(f.c, std::vector<SimOptions>(1), {&spec, 1}),
                     std::invalid_argument);
    }
    // A sane spec on the same fixture still runs.
    Simulator sim(f.c);
    EXPECT_TRUE(sim.try_transient(with(1e-9, 1e-11)).ok());
}

TEST(KernelDefaults, AllFastFeaturesOff) {
    const TransientOptions def;
    EXPECT_FALSE(def.reuse_lu);
    EXPECT_DOUBLE_EQ(def.bypass_tol_v, 0.0);
    EXPECT_EQ(def.lockstep_width, 1);
}

TEST(KernelDefaults, DefaultRunBitwiseStableAcrossInstances) {
    const InverterFixture f;
    Simulator sim_a(f.c);
    Simulator sim_b(f.c);
    const auto res_a = sim_a.transient(f.spec());
    const auto res_b = sim_b.transient(f.spec());
    EXPECT_TRUE(traces_bitwise_equal(res_a.trace("out"), res_b.trace("out")));
    EXPECT_EQ(res_a.total_newton_iters, res_b.total_newton_iters);
    EXPECT_FALSE(res_a.early_exit);
    EXPECT_EQ(res_a.lu_reuses, 0);
    EXPECT_EQ(res_a.bypass_hits, 0);
    EXPECT_GT(res_a.lu_refactors, 0);
    EXPECT_GT(res_a.device_evals, 0);
}

TEST(LuReuse, BitwiseExactOnLinearCircuit) {
    // An RC network's Jacobian never changes, so solving against the
    // kept factorization is the same arithmetic as refactoring — the
    // traces must match bit for bit while the factor count collapses.
    const RcFixture f;
    Simulator classic(f.c);
    SimOptions fast_opt;
    fast_opt.kernel.reuse_lu = true;
    Simulator fast(f.c, fast_opt);

    const auto res_classic = classic.transient(f.spec());
    const auto res_fast = fast.transient(f.spec());

    EXPECT_TRUE(traces_bitwise_equal(res_classic.trace("out"), res_fast.trace("out")));
    EXPECT_GT(res_fast.lu_reuses, 0);
    EXPECT_LT(res_fast.lu_refactors, res_classic.lu_refactors);
    EXPECT_EQ(res_classic.lu_reuses, 0);
}

TEST(LuReuse, ConvergesOnNonlinearCircuit) {
    const InverterFixture f;
    Simulator classic(f.c);
    SimOptions fast_opt;
    fast_opt.kernel.reuse_lu = true;
    Simulator fast(f.c, fast_opt);

    const auto res_classic = classic.transient(f.spec());
    const auto res_fast = fast.transient(f.spec());

    EXPECT_GT(res_fast.lu_reuses, 0);
    EXPECT_LT(res_fast.lu_refactors, res_classic.lu_refactors);
    // Convergence is still driven by the true residual, so the solution
    // agrees to Newton tolerance even though the iterates differ.
    const Trace& a = res_classic.trace("out");
    const Trace& b = res_fast.trace("out");
    ASSERT_EQ(a.value.size(), b.value.size());
    for (std::size_t i = 0; i < a.value.size(); ++i) {
        EXPECT_NEAR(a.value[i], b.value[i], 1e-4) << "sample " << i;
    }
}

TEST(DeviceBypass, SkipsQuietEvaluationsWithinTolerance) {
    const InverterFixture f;
    Simulator classic(f.c);
    SimOptions fast_opt;
    fast_opt.kernel.bypass_tol_v = 5e-4;
    Simulator fast(f.c, fast_opt);

    const auto res_classic = classic.transient(f.spec());
    const auto res_fast = fast.transient(f.spec());

    EXPECT_GT(res_fast.bypass_hits, 0);
    EXPECT_LT(res_fast.device_evals, res_classic.device_evals);
    EXPECT_EQ(res_classic.bypass_hits, 0);
    const Trace& a = res_classic.trace("out");
    const Trace& b = res_fast.trace("out");
    ASSERT_EQ(a.value.size(), b.value.size());
    for (std::size_t i = 0; i < a.value.size(); ++i) {
        // First-order restamping at 0.5 mV tolerance tracks the exact
        // solution to well under a millivolt on a 3.3 V swing.
        EXPECT_NEAR(a.value[i], b.value[i], 1e-3) << "sample " << i;
    }
}

TEST(StopWhen, FixedStepEarlyExitTruncatesRun) {
    const RcFixture f;
    Simulator sim(f.c);
    TransientSpec spec = f.spec();
    const double v_stop = 1.0;
    spec.stop_when = [&](double, const std::vector<double>& v) {
        return v[f.out.index] >= v_stop;
    };
    const auto res = sim.transient(spec);

    EXPECT_TRUE(res.early_exit);
    EXPECT_LT(res.t_end, spec.t_stop);
    const Trace& tr = res.trace("out");
    // The stopping sample is recorded and is the last one.
    EXPECT_DOUBLE_EQ(tr.time.back(), res.t_end);
    EXPECT_GE(tr.value.back(), v_stop);
    // v crosses 1.0 (half scale) at t = tau ln 2.
    EXPECT_NEAR(res.t_end, RcFixture::tau * std::log(2.0), 2.0 * spec.dt);
}

TEST(StopWhen, TruncatedTraceIsPrefixOfFullTrace) {
    const InverterFixture f;
    Simulator full_sim(f.c);
    const auto full = full_sim.transient(f.spec());

    Simulator cut_sim(f.c);
    TransientSpec spec = f.spec();
    int seen = 0;
    spec.stop_when = [&](double, const std::vector<double>&) {
        return ++seen >= 400; // Stop after 400 accepted steps.
    };
    const auto cut = cut_sim.transient(spec);

    ASSERT_TRUE(cut.early_exit);
    const Trace& a = full.trace("out");
    const Trace& b = cut.trace("out");
    ASSERT_LT(b.time.size(), a.time.size());
    for (std::size_t i = 0; i < b.time.size(); ++i) {
        ASSERT_EQ(a.time[i], b.time[i]) << "sample " << i;
        ASSERT_EQ(a.value[i], b.value[i]) << "sample " << i;
    }
}

TEST(FastPreset, CombinedFeaturesStayAccurate) {
    const InverterFixture f;
    Simulator classic(f.c);
    SimOptions fast_opt;
    fast_opt.kernel = TransientOptions::fast();
    Simulator fast(f.c, fast_opt);

    const auto res_classic = classic.transient(f.spec());
    const auto res_fast = fast.transient(f.spec());
    const Trace& a = res_classic.trace("out");
    const Trace& b = res_fast.trace("out");
    ASSERT_FALSE(b.value.empty());
    // Compare by sampling: the fast preset may alter the time axis.
    for (std::size_t i = 0; i < a.time.size(); i += 25) {
        EXPECT_NEAR(b.sample(a.time[i]), a.value[i], 2e-3) << "t=" << a.time[i];
    }
}

} // namespace
} // namespace stsense::spice
