#include "exec/result_cache.hpp"

namespace stsense::exec {

std::size_t Series::byte_size() const {
    std::size_t bytes = sizeof(Series);
    for (const auto& n : names) bytes += n.capacity() + sizeof(std::string);
    for (const auto& c : columns) {
        bytes += c.capacity() * sizeof(double) + sizeof(std::vector<double>);
    }
    return bytes;
}

ResultCache::ResultCache(std::size_t byte_budget, MetricsRegistry* metrics,
                         std::string metric_prefix)
    : budget_(byte_budget) {
    if (metrics != nullptr) {
        metric_hits_ = &metrics->counter(metric_prefix + ".hits");
        metric_misses_ = &metrics->counter(metric_prefix + ".misses");
        metric_evictions_ = &metrics->counter(metric_prefix + ".evictions");
        metric_bytes_ = &metrics->gauge(metric_prefix + ".bytes");
    }
}

std::shared_ptr<const Series> ResultCache::find(std::uint64_t key) {
    std::lock_guard lock(m_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        if (metric_misses_ != nullptr) metric_misses_->add();
        return nullptr;
    }
    ++hits_;
    if (metric_hits_ != nullptr) metric_hits_->add();
    lru_.splice(lru_.begin(), lru_, it->second); // Refresh recency.
    return it->second->value;
}

std::shared_ptr<const Series> ResultCache::insert(std::uint64_t key, Series value) {
    auto stored = std::make_shared<const Series>(std::move(value));
    const std::size_t bytes = stored->byte_size();
    std::lock_guard lock(m_);
    if (const auto it = index_.find(key); it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->value; // Keep the first-computed object.
    }
    lru_.push_front(Entry{key, std::move(stored), bytes});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    evict_to_budget();
    if (metric_bytes_ != nullptr) metric_bytes_->set(static_cast<double>(bytes_));
    return lru_.empty() ? nullptr : lru_.front().value;
}

void ResultCache::evict_to_budget() {
    while (bytes_ > budget_ && !lru_.empty()) {
        // Never evict the most recent entry: the value just inserted must
        // survive long enough to be returned even if it alone exceeds the
        // budget.
        if (lru_.size() == 1) break;
        const Entry& victim = lru_.back();
        bytes_ -= victim.bytes;
        index_.erase(victim.key);
        lru_.pop_back();
        ++evictions_;
        if (metric_evictions_ != nullptr) metric_evictions_->add();
    }
}

ResultCache::Stats ResultCache::stats() const {
    std::lock_guard lock(m_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = lru_.size();
    s.bytes = bytes_;
    return s;
}

void ResultCache::clear() {
    std::lock_guard lock(m_);
    lru_.clear();
    index_.clear();
    bytes_ = 0;
    if (metric_bytes_ != nullptr) metric_bytes_->set(0.0);
}

ResultCache& ResultCache::global() {
    static ResultCache cache(kDefaultByteBudget, &MetricsRegistry::global());
    return cache;
}

} // namespace stsense::exec
