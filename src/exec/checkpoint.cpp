#include "exec/checkpoint.hpp"

#include "exec/cancel.hpp"
#include "exec/fault_injector.hpp"
#include "exec/fingerprint.hpp"
#include "exec/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <unistd.h>

namespace stsense::exec {

namespace {

/// Row checksum: FNV-1a over the row's bytes, everything before the
/// trailing ",c<hex>" field (same discipline as ResultCache rows).
std::uint64_t row_checksum(const std::string& row) {
    Fingerprint fp;
    fp.bytes(row.data(), row.size());
    return fp.value();
}

std::string checksum_hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
}

void append_checksummed(std::string& out, const std::string& row) {
    out += row;
    out += ",c";
    out += checksum_hex(row_checksum(row));
    out += '\n';
}

/// Full-range double parse. std::stod throws out_of_range on subnormal
/// underflow (strtod's ERANGE), but util::format_double legitimately
/// emits subnormals — strtod itself returns them exactly.
bool parse_double(const std::string& s, double& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

/// Splits "payload,c<hex>" and validates the checksum; returns false on
/// any mismatch (truncation, bit rot, missing field).
bool take_checked_payload(const std::string& line, std::string& payload) {
    const std::size_t tail = line.rfind(',');
    if (tail == std::string::npos || line.size() - tail != 18 ||
        line[tail + 1] != 'c') {
        return false;
    }
    char* end = nullptr;
    const std::string hex = line.substr(tail + 2);
    const std::uint64_t stored = std::strtoull(hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') return false;
    payload = line.substr(0, tail);
    return row_checksum(payload) == stored;
}

} // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw std::runtime_error("atomic_write_file: cannot open " + tmp);
        }
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            throw std::runtime_error("atomic_write_file: write failed for " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("atomic_write_file: rename to " + path + " failed");
    }
}

Checkpoint::Checkpoint(std::string path, std::uint64_t fingerprint,
                       std::size_t n_points, std::size_t values_per_point)
    : path_(std::move(path)),
      fingerprint_(fingerprint),
      n_points_(n_points),
      values_per_point_(values_per_point),
      done_(n_points, 0),
      payload_(n_points * values_per_point, 0.0) {
    if (path_.empty()) {
        throw std::invalid_argument("Checkpoint: empty path");
    }
    if (n_points_ == 0 || values_per_point_ == 0) {
        throw std::invalid_argument("Checkpoint: n_points and values_per_point "
                                    "must be > 0");
    }
}

std::size_t Checkpoint::load() {
    OBS_SPAN("exec.checkpoint.load");
    std::ifstream in(path_);
    if (!in) return 0; // Cold start: nothing persisted yet.

    auto& metrics = MetricsRegistry::global();
    auto reject = [&] { metrics.counter("exec.checkpoint.corrupt_rows").add(); };

    std::string line;
    std::string payload;
    // Header: "stckpt,1,<fingerprint>,<n_points>,<values_per_point>".
    // Any disagreement means the file belongs to a different computation
    // (or a different format) — ignore it entirely rather than resuming
    // foreign points.
    if (!std::getline(in, line) || !take_checked_payload(line, payload)) {
        reject();
        return 0;
    }
    {
        std::istringstream hdr(payload);
        std::string magic, version, fp_s, n_s, v_s;
        auto next = [&](std::string& dst) {
            return static_cast<bool>(std::getline(hdr, dst, ','));
        };
        if (!next(magic) || !next(version) || !next(fp_s) || !next(n_s) ||
            !next(v_s) || magic != "stckpt" || version != "1") {
            reject();
            return 0;
        }
        try {
            if (std::stoull(fp_s) != fingerprint_ ||
                std::stoull(n_s) != n_points_ ||
                std::stoull(v_s) != values_per_point_) {
                metrics.counter("exec.checkpoint.stale_files").add();
                return 0;
            }
        } catch (const std::exception&) {
            reject();
            return 0;
        }
    }

    std::lock_guard lock(m_);
    std::size_t accepted = 0;
    while (std::getline(in, line)) {
        if (!take_checked_payload(line, payload)) {
            reject(); // Torn tail or bit rot: recompute that point.
            continue;
        }
        std::istringstream row(payload);
        std::string field;
        auto next = [&](std::string& dst) {
            return static_cast<bool>(std::getline(row, dst, ','));
        };
        if (!next(field)) {
            reject();
            continue;
        }
        try {
            const std::size_t index = std::stoul(field);
            if (index >= n_points_ || done_[index] != 0) {
                reject(); // Out of range, or a duplicate row.
                continue;
            }
            std::vector<double> vals;
            vals.reserve(values_per_point_);
            bool ok = true;
            for (std::size_t v = 0; v < values_per_point_ && ok; ++v) {
                double d = 0.0;
                ok = next(field) && parse_double(field, d);
                if (ok) vals.push_back(d);
            }
            if (!ok || next(field)) {
                reject(); // Wrong payload arity.
                continue;
            }
            for (std::size_t v = 0; v < values_per_point_; ++v) {
                payload_[index * values_per_point_ + v] = vals[v];
            }
            done_[index] = 1;
            ++completed_;
            ++accepted;
        } catch (const std::exception&) {
            reject(); // Malformed numeric field.
            continue;
        }
    }
    if (accepted > 0) {
        metrics.counter("exec.checkpoint.resumed_points").add(accepted);
    }
    return accepted;
}

bool Checkpoint::completed(std::size_t index) const {
    std::lock_guard lock(m_);
    return index < n_points_ && done_[index] != 0;
}

std::span<const double> Checkpoint::values(std::size_t index) const {
    std::lock_guard lock(m_);
    if (index >= n_points_ || done_[index] == 0) {
        throw std::out_of_range("Checkpoint::values: point not completed");
    }
    return {payload_.data() + index * values_per_point_, values_per_point_};
}

void Checkpoint::record(std::size_t index, std::span<const double> values) {
    if (index >= n_points_) {
        throw std::out_of_range("Checkpoint::record: index out of range");
    }
    if (values.size() != values_per_point_) {
        throw std::invalid_argument("Checkpoint::record: wrong payload size");
    }
    std::lock_guard lock(m_);
    for (std::size_t v = 0; v < values_per_point_; ++v) {
        payload_[index * values_per_point_ + v] = values[v];
    }
    if (done_[index] == 0) {
        done_[index] = 1;
        ++completed_;
    }
    ++since_flush_;
    if (flush_every_ > 0 && since_flush_ >= flush_every_) flush_locked();
}

std::string Checkpoint::compose_locked() const {
    std::string out;
    {
        std::ostringstream hdr;
        hdr << "stckpt,1," << fingerprint_ << ',' << n_points_ << ','
            << values_per_point_;
        append_checksummed(out, hdr.str());
    }
    for (std::size_t i = 0; i < n_points_; ++i) {
        if (done_[i] == 0) continue;
        std::ostringstream row;
        row << i;
        for (std::size_t v = 0; v < values_per_point_; ++v) {
            row << ',' << util::format_double(payload_[i * values_per_point_ + v]);
        }
        append_checksummed(out, row.str());
    }
    return out;
}

void Checkpoint::flush_locked() {
    OBS_SPAN("exec.checkpoint.flush");
    std::string content = compose_locked();
    if (auto* injector = FaultInjector::active();
        injector != nullptr &&
        injector->trip(FaultInjector::Site::CheckpointTruncate, flushes_)) {
        // Injected torn write: shear the content mid-row. The atomic
        // rename still lands it whole, so what load() sees is a valid
        // header plus a checksum-failing tail — the recovery the
        // per-row checksums exist for.
        content.resize(content.size() / 2);
    }
    atomic_write_file(path_, content);
    since_flush_ = 0;
    ++flushes_;
    MetricsRegistry::global().counter("exec.checkpoint.flushes").add();
}

void Checkpoint::flush() {
    std::lock_guard lock(m_);
    flush_locked();
}

std::size_t Checkpoint::completed_count() const {
    std::lock_guard lock(m_);
    return completed_;
}

void Checkpoint::remove_file() { std::remove(path_.c_str()); }

void Checkpoint::clear() {
    std::lock_guard lock(m_);
    std::fill(done_.begin(), done_.end(), std::uint8_t{0});
    completed_ = 0;
}

void run_checkpointed(const JobCheckpoint& job,
                      const std::function<void(Checkpoint*)>& body) {
    std::optional<Checkpoint> ckpt;
    if (!job.path.empty()) {
        ckpt.emplace(job.path, job.fingerprint, job.n_points,
                     job.values_per_point);
        if (job.every > 0) {
            ckpt->set_flush_every(static_cast<std::size_t>(job.every));
        }
        ckpt->load();
    }
    Checkpoint* const cp = ckpt ? &*ckpt : nullptr;
    try {
        body(cp);
    } catch (const CancelledError&) {
        // A cooperative cancel has a live process to flush from (the
        // write is atomic tmp+rename, so the file is never torn).
        MetricsRegistry::global().counter(job.cancel_counter).add();
        if (cp != nullptr) cp->flush();
        throw;
    }
    if (cp == nullptr) return;
    if (job.keep) {
        cp->flush();
    } else {
        cp->remove_file();
    }
}

} // namespace stsense::exec
