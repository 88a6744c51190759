#include "api/runtime_options.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace stsense {

RuntimeOptions& RuntimeOptions::threads(int n) {
    threads_ = n;
    owned_pool_.reset(); // a different width invalidates any lazy pool
    return *this;
}

RuntimeOptions& RuntimeOptions::parallel(bool on) {
    parallel_ = on;
    return *this;
}

RuntimeOptions& RuntimeOptions::use_cache(bool on) {
    use_cache_ = on;
    return *this;
}

RuntimeOptions& RuntimeOptions::checkpoint(std::string path, int every,
                                           bool keep) {
    checkpoint_path_ = std::move(path);
    checkpoint_every_ = every;
    keep_checkpoint_ = keep;
    return *this;
}

RuntimeOptions& RuntimeOptions::fault_policy(ring::FaultPolicy policy,
                                             int max_retries,
                                             double retry_steps_factor) {
    fault_.policy = policy;
    fault_.max_retries = max_retries;
    fault_.retry_steps_factor = retry_steps_factor;
    return *this;
}

RuntimeOptions& RuntimeOptions::fast_kernel(bool on) {
    fast_kernel_ = on;
    return *this;
}

RuntimeOptions& RuntimeOptions::trace(std::string path) {
    trace_path_ = std::move(path);
    return *this;
}

RuntimeOptions& RuntimeOptions::cancel(exec::CancelToken token) {
    cancel_ = std::move(token);
    return *this;
}

RuntimeOptions& RuntimeOptions::deadline_ms(double ms) {
    deadline_ms_ = ms;
    return *this;
}

exec::CancelToken RuntimeOptions::effective_cancel() const {
    if (deadline_ms_ > 0.0) {
        // Arm the clock now (projection == workload launch). Chained
        // off the configured token when present, so an explicit cancel
        // and the deadline compose.
        return cancel_.child_with_deadline_ms(deadline_ms_);
    }
    return cancel_;
}

const RuntimeOptions& RuntimeOptions::validate() const {
    auto bad = [](const std::string& what) {
        throw std::invalid_argument("RuntimeOptions: " + what);
    };
    if (threads_ < 0) bad("threads must be >= 0 (0 selects the global pool)");
    if (fault_.max_retries < 0) bad("fault max_retries must be >= 0");
    if (!(fault_.retry_steps_factor > 0.0)) {
        bad("fault retry_steps_factor must be > 0");
    }
    return *this;
}

exec::ThreadPool* RuntimeOptions::pool() const {
    if (threads_ <= 0) return nullptr;
    if (!owned_pool_) {
        owned_pool_ = std::make_shared<exec::ThreadPool>(
            static_cast<std::size_t>(threads_));
    }
    return owned_pool_.get();
}

ring::SweepRuntime RuntimeOptions::sweep_runtime() const {
    validate();
    ring::SweepRuntime rt;
    rt.pool = pool();
    rt.parallel = parallel_;
    rt.use_cache = use_cache_;
    rt.fault = fault_;
    rt.checkpoint_path = checkpoint_path_;
    if (checkpoint_every_ > 0) rt.checkpoint_every = checkpoint_every_;
    rt.keep_checkpoint = keep_checkpoint_;
    rt.cancel = effective_cancel();
    return rt;
}

sensor::OptimizerRuntime RuntimeOptions::optimizer_runtime() const {
    validate();
    sensor::OptimizerRuntime rt;
    rt.pool = pool();
    rt.fault = fault_;
    rt.checkpoint_path = checkpoint_path_;
    if (checkpoint_every_ > 0) rt.checkpoint_every = checkpoint_every_;
    rt.keep_checkpoint = keep_checkpoint_;
    rt.cancel = effective_cancel();
    return rt;
}

spice::TransientOptions RuntimeOptions::transient_options() const {
    validate();
    return fast_kernel_ ? spice::TransientOptions::fast()
                        : spice::TransientOptions{};
}

ring::SpiceRingOptions RuntimeOptions::spice_ring_options() const {
    validate();
    return fast_kernel_ ? ring::SpiceRingOptions::fast()
                        : ring::SpiceRingOptions{};
}

obs::TraceSession RuntimeOptions::trace_session() const {
    validate();
    return obs::TraceSession(trace_path_);
}

} // namespace stsense
