// stsense::RuntimeOptions — the unified configuration facade. One
// builder owns every execution knob; these tests pin the contract that
// each projection carries the right fields into its layer struct, that
// validation happens in exactly one place (every projection calls it),
// and that a default-constructed builder projects the layers' defaults.
#include "api/runtime_options.hpp"

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

namespace stsense {
namespace {

TEST(RuntimeOptions, DefaultsProjectTheLayerDefaults) {
    const RuntimeOptions rt;
    const auto sweep = rt.sweep_runtime();
    const ring::SweepRuntime ref;
    EXPECT_EQ(sweep.pool, ref.pool);
    EXPECT_EQ(sweep.parallel, ref.parallel);
    EXPECT_EQ(sweep.use_cache, ref.use_cache);
    EXPECT_EQ(sweep.fault.policy, ref.fault.policy);
    EXPECT_EQ(sweep.checkpoint_path, ref.checkpoint_path);
    EXPECT_EQ(sweep.checkpoint_every, ref.checkpoint_every);
    EXPECT_EQ(sweep.keep_checkpoint, ref.keep_checkpoint);

    const auto trans = rt.transient_options();
    const spice::TransientOptions tref;
    EXPECT_EQ(trans.reuse_lu, tref.reuse_lu);
    EXPECT_EQ(trans.bypass_tol_v, tref.bypass_tol_v);
    EXPECT_EQ(trans.lockstep_width, tref.lockstep_width);

    const auto spice_opt = rt.spice_ring_options();
    const ring::SpiceRingOptions sref;
    EXPECT_EQ(spice_opt.early_exit, sref.early_exit);
    EXPECT_EQ(spice_opt.steps_per_period, sref.steps_per_period);
}

TEST(RuntimeOptions, FluentSettersChainOnOneObject) {
    RuntimeOptions rt;
    RuntimeOptions& chained = rt.parallel(false)
                                  .use_cache(false)
                                  .fault_policy(ring::FaultPolicy::Retry, 5, 3.0)
                                  .fast_kernel(true)
                                  .checkpoint("run.ckpt", 4, true)
                                  .trace("run_trace.json");
    EXPECT_EQ(&chained, &rt);
    EXPECT_FALSE(rt.parallel_enabled());
    EXPECT_FALSE(rt.cache_enabled());
    EXPECT_EQ(rt.fault().policy, ring::FaultPolicy::Retry);
    EXPECT_EQ(rt.fault().max_retries, 5);
    EXPECT_EQ(rt.fault().retry_steps_factor, 3.0);
    EXPECT_TRUE(rt.fast_kernel_enabled());
    EXPECT_EQ(rt.checkpoint_path(), "run.ckpt");
    EXPECT_EQ(rt.trace_path(), "run_trace.json");
}

TEST(RuntimeOptions, SweepRuntimeCarriesEveryKnob) {
    RuntimeOptions rt;
    rt.parallel(false)
        .use_cache(false)
        .fault_policy(ring::FaultPolicy::FallbackToAnalytic, 1, 4.0)
        .checkpoint("sweep.ckpt", 2, true);
    const auto sweep = rt.sweep_runtime();
    EXPECT_FALSE(sweep.parallel);
    EXPECT_FALSE(sweep.use_cache);
    EXPECT_EQ(sweep.fault.policy, ring::FaultPolicy::FallbackToAnalytic);
    EXPECT_EQ(sweep.fault.max_retries, 1);
    EXPECT_EQ(sweep.fault.retry_steps_factor, 4.0);
    EXPECT_EQ(sweep.checkpoint_path, "sweep.ckpt");
    EXPECT_EQ(sweep.checkpoint_every, 2);
    EXPECT_TRUE(sweep.keep_checkpoint);

    const auto opt = rt.optimizer_runtime();
    EXPECT_EQ(opt.fault.policy, ring::FaultPolicy::FallbackToAnalytic);
    EXPECT_EQ(opt.checkpoint_path, "sweep.ckpt");
    EXPECT_EQ(opt.checkpoint_every, 2);
    EXPECT_TRUE(opt.keep_checkpoint);
}

TEST(RuntimeOptions, CheckpointEveryZeroKeepsLayerDefault) {
    RuntimeOptions rt;
    rt.checkpoint("x.ckpt"); // every = 0: do not override the layer's default
    const ring::SweepRuntime ref;
    EXPECT_EQ(rt.sweep_runtime().checkpoint_every, ref.checkpoint_every);
}

TEST(RuntimeOptions, OwnedPoolIsLazySharedAndRebuiltOnWidthChange) {
    RuntimeOptions rt;
    EXPECT_EQ(rt.pool(), nullptr) << "threads(0) selects the global pool";
    rt.threads(2);
    exec::ThreadPool* pool = rt.pool();
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->size(), 2);
    EXPECT_EQ(rt.pool(), pool) << "repeated calls share one pool";
    EXPECT_EQ(rt.sweep_runtime().pool, pool);
    EXPECT_EQ(rt.optimizer_runtime().pool, pool);
    rt.threads(3);
    exec::ThreadPool* rebuilt = rt.pool();
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(rebuilt->size(), 3);
}

TEST(RuntimeOptions, FastKernelProjectsTheTunedPresets) {
    // fast_kernel is the whole kernel surface: on, every projection
    // carries the tuned presets field for field; off again, the
    // seed-identical defaults.
    RuntimeOptions rt;
    rt.fast_kernel(true);
    const auto trans = rt.transient_options();
    const auto fast = spice::TransientOptions::fast();
    EXPECT_EQ(trans.reuse_lu, fast.reuse_lu);
    EXPECT_EQ(trans.bypass_tol_v, fast.bypass_tol_v);
    EXPECT_EQ(trans.lockstep_width, fast.lockstep_width);
    const auto spice_opt = rt.spice_ring_options();
    EXPECT_TRUE(spice_opt.early_exit);
    EXPECT_EQ(spice_opt.kernel.bypass_tol_v, fast.bypass_tol_v);
    EXPECT_EQ(spice_opt.kernel.lockstep_width, fast.lockstep_width);

    rt.fast_kernel(false);
    const spice::TransientOptions def;
    EXPECT_EQ(rt.transient_options().reuse_lu, def.reuse_lu);
    EXPECT_EQ(rt.transient_options().bypass_tol_v, def.bypass_tol_v);
    EXPECT_EQ(rt.transient_options().lockstep_width, def.lockstep_width);
    EXPECT_FALSE(rt.spice_ring_options().early_exit);
}

TEST(RuntimeOptions, ValidationRejectsEachBadKnobByName) {
    auto expect_rejects = [](RuntimeOptions rt, const std::string& what) {
        try {
            rt.validate();
            FAIL() << "expected rejection: " << what;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << "message was: " << e.what();
        }
    };
    expect_rejects(RuntimeOptions().threads(-1), "threads");
    expect_rejects(
        RuntimeOptions().fault_policy(ring::FaultPolicy::Retry, -1),
        "max_retries");
    expect_rejects(
        RuntimeOptions().fault_policy(ring::FaultPolicy::Retry, 2, 0.0),
        "retry_steps_factor");
}

TEST(RuntimeOptions, EveryProjectionValidates) {
    const RuntimeOptions bad = RuntimeOptions().threads(-1);
    EXPECT_THROW(bad.sweep_runtime(), std::invalid_argument);
    EXPECT_THROW(bad.optimizer_runtime(), std::invalid_argument);
    EXPECT_THROW(bad.transient_options(), std::invalid_argument);
    EXPECT_THROW(bad.spice_ring_options(), std::invalid_argument);
    EXPECT_THROW(bad.trace_session(), std::invalid_argument);
}

TEST(RuntimeOptions, TraceSessionHonorsTheConfiguredPath) {
    ASSERT_EQ(std::getenv("STSENSE_TRACE"), nullptr)
        << "unset STSENSE_TRACE before running the test suite";
    {
        // No path, no env: inert session, tracing stays off.
        const RuntimeOptions rt;
        auto session = rt.trace_session();
        EXPECT_FALSE(session.active());
        EXPECT_FALSE(obs::trace_enabled());
    }
    const std::string path = ::testing::TempDir() + "stsense_api_trace.json";
    std::remove(path.c_str());
    {
        RuntimeOptions rt;
        rt.trace(path);
        auto session = rt.trace_session();
        EXPECT_TRUE(session.active());
        EXPECT_TRUE(obs::trace_enabled());
        { OBS_SPAN("test.api.span"); }
        EXPECT_TRUE(session.finish());
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "trace file missing: " << path;
    std::remove(path.c_str());
    obs::Tracer::global().reset();
}

} // namespace
} // namespace stsense
