// spice::run_lockstep — the lock-step multi-point driver's parity
// contract: advancing K points' Newton iterations in phase over one
// shared batched evaluator returns, point for point, bitwise the same
// results as solo try_transient runs — including under injected
// Newton-failure rungs, where each point draws from its own fault
// stream — plus the sweep layer's split of a grid into lock-step
// groups, which must hold that parity at every pool shape.
#include "spice/lockstep.hpp"

#include "exec/cancel.hpp"
#include "exec/fault_injector.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "phys/technology.hpp"
#include "ring/spice_ring.hpp"
#include "ring/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
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

bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct InverterFixture {
    phys::Technology tech = phys::cmos350();
    Circuit c;
    NodeId in, out;

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
        s.t_stop = 8e-9;
        s.dt = 10e-12;
        s.start_from_dc = true;
        s.measure_power = true;
        return s;
    }
};

std::vector<SimOptions> options_at(const std::vector<double>& temps_k,
                                   const TransientOptions& kernel = {}) {
    std::vector<SimOptions> opts;
    for (double t : temps_k) {
        SimOptions o;
        o.temp_k = t;
        o.kernel = kernel;
        opts.push_back(o);
    }
    return opts;
}

void expect_lockstep_matches_solo(const TransientOptions& kernel) {
    const InverterFixture f;
    const std::vector<double> temps_k = {280.0, 300.0, 335.0, 372.5};
    const auto opts = options_at(temps_k, kernel);
    std::vector<TransientSpec> specs(temps_k.size(), f.spec());

    const auto batch = run_lockstep(f.c, opts, specs);
    ASSERT_EQ(batch.size(), temps_k.size());
    for (std::size_t i = 0; i < temps_k.size(); ++i) {
        Simulator solo(f.c, opts[i]);
        const auto solo_res = solo.try_transient(specs[i]);
        ASSERT_TRUE(solo_res.ok()) << "point " << i;
        ASSERT_TRUE(batch[i].ok()) << "point " << i;
        const TransientResult& a = solo_res.value();
        const TransientResult& b = batch[i].value();
        EXPECT_TRUE(traces_bitwise_equal(a.trace("out"), b.trace("out")))
            << "point " << i;
        EXPECT_EQ(a.total_newton_iters, b.total_newton_iters) << "point " << i;
        ASSERT_EQ(a.source_energy_j.size(), b.source_energy_j.size());
        for (std::size_t n = 0; n < a.source_energy_j.size(); ++n) {
            EXPECT_TRUE(bits_equal(a.source_energy_j[n], b.source_energy_j[n]))
                << "point " << i << " node " << n;
        }
    }
}

TEST(LockStep, BitwiseMatchesSoloDefaults) {
    expect_lockstep_matches_solo(TransientOptions{});
}

TEST(LockStep, BitwiseMatchesSoloWithFastKernelKnobs) {
    TransientOptions k;
    k.reuse_lu = true;
    k.bypass_tol_v = 5e-4;
    expect_lockstep_matches_solo(k);
}

TEST(LockStep, PerPointStopWhenClosuresStayIndependent) {
    const InverterFixture f;
    const std::vector<double> temps_k = {300.0, 350.0};
    const auto opts = options_at(temps_k);
    // stop_when closures are stateful; a run consumes them. Build a
    // fresh set per run, like the ring layer's make_tspec does.
    const auto make_specs = [&] {
        std::vector<TransientSpec> specs;
        for (std::size_t i = 0; i < temps_k.size(); ++i) {
            TransientSpec s = f.spec();
            int seen = 0;
            const int limit = 150 + 100 * static_cast<int>(i);
            s.stop_when = [seen, limit](double,
                                        const std::vector<double>&) mutable {
                return ++seen >= limit;
            };
            specs.push_back(std::move(s));
        }
        return specs;
    };
    const auto specs = make_specs();
    const auto batch = run_lockstep(f.c, opts, specs);
    ASSERT_EQ(batch.size(), 2u);
    const auto solo_specs = make_specs();
    for (std::size_t i = 0; i < 2; ++i) {
        Simulator solo(f.c, opts[i]);
        const auto solo_res = solo.try_transient(solo_specs[i]);
        ASSERT_TRUE(solo_res.ok());
        ASSERT_TRUE(batch[i].ok());
        EXPECT_TRUE(batch[i].value().early_exit);
        EXPECT_TRUE(bits_equal(solo_res.value().t_end, batch[i].value().t_end))
            << "point " << i;
        EXPECT_TRUE(traces_bitwise_equal(solo_res.value().trace("out"),
                                         batch[i].value().trace("out")));
    }
}

TEST(LockStep, ValidatesArguments) {
    const InverterFixture f;
    const auto opts = options_at({300.0, 320.0});
    std::vector<TransientSpec> one_spec(1, f.spec());
    EXPECT_THROW(run_lockstep(f.c, opts, one_spec), std::invalid_argument);
    EXPECT_THROW(run_lockstep(f.c, {}, {}), std::invalid_argument);

    // The solo run's spec checks, initial conditions included.
    std::vector<TransientSpec> specs(2, f.spec());
    specs[1].initial_conditions.emplace_back(f.in, 0.0); // A driven node.
    EXPECT_THROW(run_lockstep(f.c, opts, specs), std::invalid_argument);
    specs[1] = f.spec();
    specs[1].record_stride = 0;
    EXPECT_THROW(run_lockstep(f.c, opts, specs), std::invalid_argument);

    specs[1] = f.spec();
    const std::vector<std::uint64_t> short_ctx = {1};
    EXPECT_THROW(run_lockstep(f.c, opts, specs, short_ctx),
                 std::invalid_argument);
}

TEST(LockStep, CancelledPointFailsCancelledLikeTheSoloRun) {
    // The ambient token fires from stop_when after step 100, so the next
    // step's first Newton iteration sees it. Both drivers must stop with
    // the typed cause at that step's time, without a rescue attempt,
    // and say the time in the message. run_lockstep's callers (unlike a
    // sweep, which re-polls the token) see only this error.
    const InverterFixture f;
    const auto opts = options_at({300.0});
    const auto run = [&](bool lockstep) {
        const exec::CancelToken token = exec::CancelToken::make();
        const exec::CancelScope scope(token);
        TransientSpec spec = f.spec();
        int seen = 0;
        spec.stop_when = [token, seen](double,
                                       const std::vector<double>&) mutable {
            if (++seen == 100) token.cancel();
            return false;
        };
        if (!lockstep) return Simulator(f.c, opts[0]).try_transient(spec);
        auto out = run_lockstep(f.c, opts, std::span(&spec, 1));
        return std::move(out.front());
    };
    const auto solo = run(false);
    const auto lock = run(true);
    ASSERT_FALSE(solo.ok());
    ASSERT_FALSE(lock.ok());
    EXPECT_EQ(solo.error().kind, SimErrorKind::Cancelled);
    EXPECT_EQ(lock.error().kind, SimErrorKind::Cancelled);
    EXPECT_TRUE(bits_equal(solo.error().time_s, lock.error().time_s));
    EXPECT_NEAR(solo.error().time_s, 100 * f.spec().dt, 1e-3 * f.spec().dt);
    char when[32];
    std::snprintf(when, sizeof when, "t = %g", solo.error().time_s);
    EXPECT_NE(solo.error().message.find(when), std::string::npos)
        << solo.error().message;
    EXPECT_EQ(solo.error().message, lock.error().message);
}

ring::SpiceRingOptions small_ring_options() {
    ring::SpiceRingOptions opt;
    opt.skip_cycles = 2;
    opt.measure_cycles = 3;
    opt.steps_per_period = 120;
    opt.record_waveform = false;
    opt.early_exit = true;
    return opt;
}

TEST(LockStepRing, BatchSimulationBitwiseMatchesSolo) {
    const ring::SpiceRingModel model(
        phys::cmos350(),
        ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.5));
    const auto opt = small_ring_options();
    const std::vector<double> temps_k = {260.0, 300.0, 380.0};

    const auto batch = model.try_simulate_batch(temps_k, opt);
    ASSERT_EQ(batch.size(), temps_k.size());
    for (std::size_t i = 0; i < temps_k.size(); ++i) {
        const auto solo = model.try_simulate(temps_k[i], opt);
        ASSERT_TRUE(solo.ok()) << "point " << i;
        ASSERT_TRUE(batch[i].ok()) << "point " << i;
        EXPECT_TRUE(bits_equal(solo.value().period, batch[i].value().period))
            << "point " << i;
        EXPECT_TRUE(bits_equal(solo.value().avg_supply_power_w,
                               batch[i].value().avg_supply_power_w))
            << "point " << i;
        EXPECT_EQ(solo.value().cycles_measured, batch[i].value().cycles_measured);
        EXPECT_EQ(solo.value().early_exit, batch[i].value().early_exit);
    }
}

/// Sizes of the lock-step groups a sweep ran, read back from its
/// spice.transient.lockstep spans (sorted; groups finish in any order).
std::vector<std::size_t> traced_group_sizes() {
    std::vector<std::size_t> sizes;
    for (const auto& me : obs::Tracer::global().merged()) {
        if (std::string(me.ev.name) == "spice.transient.lockstep") {
            sizes.push_back(static_cast<std::size_t>(me.ev.num));
        }
    }
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

std::vector<std::size_t> group_sizes(const std::vector<std::size_t>& bounds) {
    std::vector<std::size_t> sizes;
    for (std::size_t g = 0; g + 1 < bounds.size(); ++g) {
        sizes.push_back(bounds[g + 1] - bounds[g]);
    }
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

TEST(LockStepRing, SweepWithLockStepWidthMatchesSoloSweep) {
    // Every pool shape x lock-step width on the 17-point paper grid must
    // reproduce the solo sweep bitwise, and must have split the grid
    // exactly as ring::lockstep_groups says for that pool's width.
    const auto tech = phys::cmos350();
    const auto cfg = ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.5);
    const auto temps_c = ring::paper_temperature_grid_c();
    ASSERT_EQ(temps_c.size(), 17u);

    const auto solo_opt = small_ring_options();
    const auto solo = ring::temperature_sweep(tech, cfg, temps_c,
                                              ring::Engine::Spice, solo_opt,
                                              ring::SweepRuntime::serial());

    auto& tracer = obs::Tracer::global();
    for (const int workers : {0, 1, 2, 3, 4, 7}) { // 0 = SweepRuntime::serial()
        std::unique_ptr<exec::ThreadPool> pool;
        ring::SweepRuntime runtime = ring::SweepRuntime::serial();
        if (workers > 0) {
            pool = std::make_unique<exec::ThreadPool>(workers);
            runtime.parallel = true;
            runtime.pool = pool.get();
        }
        for (const int width : {2, 8, 17}) {
            SCOPED_TRACE("workers " + std::to_string(workers) + ", width " +
                         std::to_string(width));
            auto group_opt = solo_opt;
            group_opt.kernel.lockstep_width = width;
            tracer.enable(); // Spans observe; they never change the bits.
            const auto grouped = ring::temperature_sweep(
                tech, cfg, temps_c, ring::Engine::Spice, group_opt, runtime);
            tracer.disable();

            ASSERT_EQ(solo.period_s.size(), grouped.period_s.size());
            for (std::size_t i = 0; i < solo.period_s.size(); ++i) {
                EXPECT_TRUE(bits_equal(solo.period_s[i], grouped.period_s[i]))
                    << "point " << i;
                EXPECT_EQ(solo.status[i], grouped.status[i]) << "point " << i;
            }
            const auto bounds = ring::lockstep_groups(
                temps_c.size(), static_cast<std::size_t>(width),
                static_cast<std::size_t>(std::max(workers, 1)));
            EXPECT_EQ(traced_group_sizes(), group_sizes(bounds));
        }
    }
    tracer.reset();
}

TEST(LockStepRing, GroupsPartitionTheGridEvenly) {
    // The paper grid on the 4-worker pool and serially.
    EXPECT_EQ(ring::lockstep_groups(17, 8, 4),
              (std::vector<std::size_t>{0, 5, 9, 13, 17}));
    EXPECT_EQ(ring::lockstep_groups(17, 8, 1),
              (std::vector<std::size_t>{0, 6, 12, 17}));
    // Fewer points than workers: one point per group.
    EXPECT_EQ(ring::lockstep_groups(3, 8, 4),
              (std::vector<std::size_t>{0, 1, 2, 3}));
    // Degenerate inputs: no points; widths and pools below 1 count as 1.
    EXPECT_EQ(ring::lockstep_groups(0, 8, 4), (std::vector<std::size_t>{0}));
    EXPECT_EQ(ring::lockstep_groups(3, 0, 0),
              (std::vector<std::size_t>{0, 1, 2, 3}));

    for (std::size_t n = 1; n <= 40; ++n) {
        for (std::size_t w = 1; w <= 20; ++w) {
            for (std::size_t workers = 1; workers <= 9; ++workers) {
                SCOPED_TRACE("n " + std::to_string(n) + ", w " +
                             std::to_string(w) + ", workers " +
                             std::to_string(workers));
                const auto bounds = ring::lockstep_groups(n, w, workers);
                const std::size_t groups =
                    std::max((n + w - 1) / w, std::min(n, workers));
                ASSERT_EQ(bounds.size(), groups + 1);
                // Contiguous cover of [0, n) in order: each point once.
                EXPECT_EQ(bounds.front(), 0u);
                EXPECT_EQ(bounds.back(), n);
                const auto sizes = group_sizes(bounds);
                EXPECT_GE(sizes.front(), 1u);
                EXPECT_LE(sizes.back(), w);
                EXPECT_LE(sizes.back() - sizes.front(), 1u);
                for (std::size_t g = 0; g + 1 < bounds.size(); ++g) {
                    EXPECT_LT(bounds[g], bounds[g + 1]);
                }
            }
        }
    }
}

TEST(LockStepRing, ParityHoldsUnderInjectedNewtonFailures) {
    const ring::SpiceRingModel model(
        phys::cmos350(),
        ring::RingConfig::uniform(cells::CellKind::Inv, 5, 2.5));
    ring::SpiceRingOptions opt = small_ring_options();
    opt.measure_cycles = 2;

    exec::FaultInjector::Config cfg;
    cfg.seed = 7;
    cfg.p_newton_fail = 0.15;
    cfg.newton_fail_rungs = 1; // Damped rung rescues every sabotage.
    exec::FaultInjector injector(cfg);
    exec::FaultInjector::Scope scope(injector);

    const std::vector<double> temps_k = {300.0, 360.0};
    const std::vector<std::uint64_t> ctx = {0, 1};
    const auto batch = model.try_simulate_batch(temps_k, opt, ctx);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        // The solo equivalent installs the same per-point fault stream
        // the sweep layer would.
        exec::FaultContext point_ctx(ctx[i]);
        const auto solo = model.try_simulate(temps_k[i], opt);
        ASSERT_TRUE(solo.ok()) << "point " << i;
        ASSERT_TRUE(batch[i].ok()) << "point " << i;
        EXPECT_TRUE(bits_equal(solo.value().period, batch[i].value().period))
            << "point " << i;
        EXPECT_EQ(solo.value().recovery_rung, batch[i].value().recovery_rung)
            << "point " << i;
        EXPECT_EQ(solo.value().rescued_steps, batch[i].value().rescued_steps)
            << "point " << i;
    }
}

} // namespace
} // namespace stsense::spice
