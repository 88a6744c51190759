// Content-addressed result cache with an LRU byte budget.
//
// Maps a 64-bit content fingerprint (see exec/fingerprint.hpp, fed with
// *every* input of the computation) to a memoized numeric series. Since
// the key covers all inputs, a hit can never be stale and returns bitwise
// the values the simulation produced — "never recompute an identical
// simulation twice" without any determinism risk.
//
// Values are immutable shared_ptrs: a hit hands back the exact cached
// object with no copy, safe to read from any thread. Hit/miss/eviction
// statistics are kept locally and mirrored into the metrics registry.
// The cache lives in memory only; a long run that must survive a kill
// persists its progress through exec::Checkpoint instead.
#pragma once

#include "exec/metrics.hpp"
#include "obs/trace.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stsense::exec {

/// A cached computation result: named, equally long numeric columns
/// (a temperature sweep stores {temps_c, period_s, frequency_hz}).
struct Series {
    std::vector<std::string> names;
    std::vector<std::vector<double>> columns;

    /// Approximate heap footprint, used against the cache byte budget.
    std::size_t byte_size() const;
};

class ResultCache {
public:
    /// Cache statistics snapshot.
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::size_t bytes = 0;
        double hit_rate() const {
            const auto total = hits + misses;
            return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
        }
    };

    /// `byte_budget` bounds the resident value bytes; least-recently-used
    /// entries are evicted past it. `metric_prefix` names the registry
    /// counters ("<prefix>.hits" / ".misses" / ".evictions").
    explicit ResultCache(std::size_t byte_budget = kDefaultByteBudget,
                         MetricsRegistry* metrics = nullptr,
                         std::string metric_prefix = "exec.cache");

    /// Looks the key up; returns the exact cached object (refreshing its
    /// LRU position) or nullptr. Counts a hit or a miss.
    std::shared_ptr<const Series> find(std::uint64_t key);

    /// Stores `value` under `key` and returns the stored object. If the
    /// key is already present the existing object is kept and returned
    /// (first writer wins — both computed identical content). Evicts LRU
    /// entries beyond the byte budget.
    std::shared_ptr<const Series> insert(std::uint64_t key, Series value);

    /// find() or compute-and-insert(). The computation runs *outside*
    /// the cache lock so concurrent distinct keys don't serialize.
    template <typename Fn>
    std::shared_ptr<const Series> get_or_compute(std::uint64_t key, Fn&& fn) {
        // The span covers lookup plus (on a miss) the computation, so
        // its duration shows what the hit actually saved.
        obs::Span span("exec.cache.get");
        if (auto hit = find(key)) {
            span.tag("cache", "hit");
            return hit;
        }
        span.tag("cache", "miss");
        return insert(key, std::forward<Fn>(fn)());
    }

    Stats stats() const;
    std::size_t byte_budget() const { return budget_; }
    void clear();

    /// The process-wide cache (default budget, publishing into
    /// MetricsRegistry::global()).
    static ResultCache& global();

    static constexpr std::size_t kDefaultByteBudget = 64u << 20; // 64 MiB

private:
    struct Entry {
        std::uint64_t key = 0;
        std::shared_ptr<const Series> value;
        std::size_t bytes = 0;
    };

    /// Pops LRU entries until within budget. Requires m_ held.
    void evict_to_budget();

    mutable std::mutex m_;
    std::list<Entry> lru_; ///< Front = most recently used.
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::size_t budget_;
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    Counter* metric_hits_ = nullptr;
    Counter* metric_misses_ = nullptr;
    Counter* metric_evictions_ = nullptr;
    Gauge* metric_bytes_ = nullptr;
};

} // namespace stsense::exec
