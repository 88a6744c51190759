// stsense::RuntimeOptions — the one place execution knobs live.
//
// Three runtime-config structs grew up independently as the layers did:
// ring::SweepRuntime (pool/cache/fault/checkpoint of one sweep),
// sensor::OptimizerRuntime (the same knobs for candidate fan-out), and
// spice::TransientOptions (the fast-kernel toggles). Configuring a
// whole experiment meant filling all three by hand and keeping their
// overlapping fields (fault policy, checkpoint path, pool) agreeing.
//
// RuntimeOptions is the builder that owns every execution knob once,
// validates them in one place, and projects the per-layer structs on
// demand:
//
//     auto rt = stsense::RuntimeOptions()
//                   .threads(8)
//                   .fault_policy(ring::FaultPolicy::Retry)
//                   .fast_kernel(true)
//                   .checkpoint("run.ckpt")
//                   .trace("run_trace.json");
//     auto session = rt.trace_session();          // arms obs tracing
//     auto sweep = ring::paper_sweep(tech, cfg, engine, rt.spice_ring_options(),
//                                    rt.sweep_runtime());
//
// The per-layer structs remain the real API of their layers; this
// header only aggregates. A monitor's health supervision and ring
// redundancy are not execution knobs: they live in sensor::MonitorConfig
// alone. A RuntimeOptions that created its own pool
// (threads(n) with n > 0) must outlive every projected struct that
// points at it.
#pragma once

#include "exec/thread_pool.hpp"
#include "obs/export.hpp"
#include "ring/spice_ring.hpp"
#include "ring/sweep.hpp"
#include "sensor/optimizer.hpp"
#include "spice/simulator.hpp"

#include <memory>
#include <string>

namespace stsense {

class RuntimeOptions {
public:
    RuntimeOptions() = default;

    // ---- fluent knobs ---------------------------------------------------

    /// Worker threads for the parallel paths. 0 (default) uses the
    /// process-global pool (honors STSENSE_THREADS); n > 0 makes this
    /// RuntimeOptions own a dedicated pool of n workers, created
    /// lazily on first projection.
    RuntimeOptions& threads(int n);

    /// false forces every fan-out onto the calling thread (the serial
    /// reference path the determinism tests compare against).
    RuntimeOptions& parallel(bool on);

    /// Whole-sweep memoization through exec::ResultCache.
    RuntimeOptions& use_cache(bool on);

    /// Crash-safe checkpoint/resume for sweeps and optimizer searches.
    /// An empty path (default) disables checkpointing. `every` is the
    /// completed-work flush interval (<= 0 keeps each layer's default);
    /// `keep` retains the file after a completed run.
    RuntimeOptions& checkpoint(std::string path, int every = 0,
                               bool keep = false);

    /// Per-point failure handling of sweeps (and the optimizer's inner
    /// sweeps). Mirrors ring::FaultPolicySpec.
    RuntimeOptions& fault_policy(ring::FaultPolicy policy, int max_retries = 2,
                                 double retry_steps_factor = 2.0);

    /// The tuned fast transient path: device bypass + contraction-gated
    /// LU reuse + lock-step + early exit (the SpiceRingOptions::fast() /
    /// TransientOptions::fast() presets). Off projects the
    /// seed-identical engine. This is the whole kernel surface: the
    /// lane kernel is the CPU probe's (util::resolve_simd).
    RuntimeOptions& fast_kernel(bool on);

    /// Chrome-trace output path; empty keeps tracing off unless the
    /// STSENSE_TRACE environment variable names a path.
    RuntimeOptions& trace(std::string path);

    /// Cooperative cancellation token for sweeps/searches run through
    /// this builder: projected into SweepRuntime/OptimizerRuntime, so
    /// firing it (from any thread) unwinds the workload at its next
    /// poll point as exec::CancelledError — with checkpoints flushed
    /// consistent for bitwise resume. Default: no token (free).
    RuntimeOptions& cancel(exec::CancelToken token);

    /// End-to-end deadline for sweeps/searches run through this
    /// builder, in wall milliseconds from the *projection* call (the
    /// clock arms when sweep_runtime()/optimizer_runtime() is built,
    /// i.e. at workload launch). Expiry surfaces as the typed
    /// DeadlineExceeded cause: the solver folds it into its per-solve
    /// budget and loop layers unwind at their next poll point.
    /// <= 0 (default) disables.
    RuntimeOptions& deadline_ms(double ms);

    // ---- validation -----------------------------------------------------

    /// The single validation point: every projection below calls this.
    /// Throws std::invalid_argument naming the first offending knob.
    const RuntimeOptions& validate() const;

    // ---- projections onto the per-layer structs -------------------------

    /// Pool/cache/fault/checkpoint knobs of one temperature sweep.
    ring::SweepRuntime sweep_runtime() const;

    /// The same knobs for the optimizer's candidate fan-out. Note the
    /// checkpoint path is shared verbatim — don't run a sweep and a
    /// search against the same path simultaneously.
    sensor::OptimizerRuntime optimizer_runtime() const;

    /// The transient engine's kernel: TransientOptions::fast() under
    /// fast_kernel(true), else the seed-identical defaults.
    spice::TransientOptions transient_options() const;

    /// SPICE ring-measurement options carrying transient_options().
    ring::SpiceRingOptions spice_ring_options() const;

    /// Arms obs tracing for the configured trace path (or STSENSE_TRACE
    /// when the path is empty); inert when neither is set. The session
    /// writes the trace file when it ends.
    obs::TraceSession trace_session() const;

    /// The pool projections hand out: the dedicated pool when
    /// threads(n > 0) was set (created on first call), else nullptr
    /// (the projected structs then select the global pool).
    exec::ThreadPool* pool() const;

    // ---- introspection (tests, logging) ---------------------------------

    int thread_count() const noexcept { return threads_; }
    bool parallel_enabled() const noexcept { return parallel_; }
    bool cache_enabled() const noexcept { return use_cache_; }
    const std::string& checkpoint_path() const noexcept { return checkpoint_path_; }
    /// Flush interval / retention of the checkpoint knob — exposed so a
    /// session layer (stsense::service) can re-project the same policy
    /// onto per-request checkpoint paths without losing the cadence.
    int checkpoint_flush_every() const noexcept { return checkpoint_every_; }
    bool checkpoint_kept() const noexcept { return keep_checkpoint_; }
    const ring::FaultPolicySpec& fault() const noexcept { return fault_; }
    bool fast_kernel_enabled() const noexcept { return fast_kernel_; }
    const std::string& trace_path() const noexcept { return trace_path_; }
    const exec::CancelToken& cancel_token() const noexcept { return cancel_; }
    double deadline_millis() const noexcept { return deadline_ms_; }
    /// The token a projection hands to its runtime: the configured
    /// token (or a fresh root), deadline-tightened when deadline_ms was
    /// set. Invalid when neither knob is used.
    exec::CancelToken effective_cancel() const;

private:
    int threads_ = 0;
    bool parallel_ = true;
    bool use_cache_ = true;
    std::string checkpoint_path_;
    int checkpoint_every_ = 0;
    bool keep_checkpoint_ = false;
    ring::FaultPolicySpec fault_;
    bool fast_kernel_ = false;
    std::string trace_path_;
    exec::CancelToken cancel_;
    double deadline_ms_ = 0.0;
    /// Lazily created by pool(); shared so copies of a RuntimeOptions
    /// keep projecting pointers into one live pool.
    mutable std::shared_ptr<exec::ThreadPool> owned_pool_;
};

} // namespace stsense
