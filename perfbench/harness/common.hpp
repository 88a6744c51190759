// Shared plumbing of the benchmark harness: run arguments, timing and
// percentiles, the report document, the metrics-registry counter ledger,
// and the traced-window span ledger (self time, parent roll-up).
//
// Every workload follows one shape: set up (several times, the median
// is `setup_s`), measure for the requested seconds with tracing off, or
// alternate traced and untraced windows when tracing is requested, and
// check every output it produced. The report is one JSON document; the
// Python front end (run.py) turns it into the benchmark's result line.
#pragma once

#include "obs/trace.hpp"
#include "service/json.hpp"
#include "util/rng.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using stsense::service::Json;
using Clock = std::chrono::steady_clock;

/// Pool size every workload uses: the benchmark host's core count. The
/// host block of each report records it.
constexpr int kThreads = 4;

/// Command-line arguments of one run.
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;          ///< Smoke size: fewer candidates / dice.
    int setups = 3;              ///< Set-up repetitions (median = setup_s).
    std::string report;          ///< Report JSON path.
    std::string reference;       ///< Reference outputs JSON (may be absent).
    std::string trace_dump;      ///< Chrome trace of one window, for check_trace.
    std::string scratch = ".";   ///< Directory for checkpoints and temp files.
    bool write_reference = false;///< Emit outputs for a new reference file.
};

/// When the process started (static initialization of the harness).
Clock::time_point process_start();

double seconds_since(Clock::time_point t0);

using stsense::util::Rng;

/// Fisher–Yates shuffle driven by `rng` (std::shuffle's draws are not
/// specified, so its order could differ between standard libraries).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Linear-interpolated quantile (numpy's default), p in [0, 1]; 0 for
/// an empty sample.
double quantile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set size of this process [MiB].
double peak_rss_mb();

/// Host and build facts every report carries. Throws when the binary
/// was built without optimization: its timings would mean nothing.
Json host_block(std::size_t trace_capacity);

/// Every exec::MetricsRegistry counter, by name.
using Counters = std::map<std::string, std::uint64_t>;
Counters counter_snapshot();
/// after - before, keeping every name seen in `after`.
Counters counter_delta(const Counters& after, const Counters& before);
Json counters_json(const Counters& c);

/// Aggregates spans over any number of traced windows. A window is
/// opened while no thread records and closed after the work it covers
/// has quiesced; closing it merges the per-thread buffers and folds
/// them into per-name totals, self time (duration minus the direct
/// children on the same thread) and a parent -> child roll-up.
class SpanLedger {
public:
    /// `capacity` events per thread; `keep_durations` names whose every
    /// duration is kept for percentiles.
    SpanLedger(std::size_t capacity, std::set<std::string> keep_durations);

    void open();
    /// Closes the window; when `dump_path` is non-empty the window is
    /// also written as Chrome trace JSON (for scripts/check_trace.py).
    void close(const std::string& dump_path = "");

    struct Stat {
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
        std::vector<double> dur_ns; ///< Only for keep_durations names.
    };

    const Stat& stat(const std::string& name) const;
    double total_ms(const std::string& name) const;
    double self_ms(const std::string& name) const;
    /// Percentile of kept durations [ns]; 0 when none were kept.
    double dur_quantile_ns(const std::string& name, double p) const;

    std::uint64_t dropped() const { return dropped_; }

    /// {"spans":{name:{count,total_ms,self_ms}},"rollup":{"parent > child":ms}}
    Json to_json() const;

private:
    std::size_t capacity_;
    std::set<std::string> keep_;
    std::map<std::string, Stat> stats_;
    std::map<std::string, std::uint64_t> rollup_ns_; ///< "parent > child"
    std::uint64_t dropped_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t max_thread_events_ = 0;
    int windows_ = 0;
};

/// The report document a workload fills in.
struct Report {
    Json doc = Json::object();
    Json metrics = Json::object();  ///< name -> value (end-to-end or per-layer)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< First few failure reasons.

    void metric(const std::string& name, double value) { metrics.set(name, value); }
    void fail(const std::string& why);
    /// Writes the document (with metrics, attempted/failed and failures
    /// merged in) to `path`.
    void write(const std::string& path);
};

/// Reads a JSON file; a missing or unparsable file gives null.
Json read_json_file(const std::string& path);

/// Records the set-up samples; their median is `setup_s`.
void report_setup(Report& r, const std::vector<double>& setup_s);

/// Every per-layer metric a traced run reports (BENCHMARK.json order).
const std::vector<std::string>& layer_metric_names();

/// Zero-fills every per-layer metric, then derives the ones all
/// workloads share from the span ledger and the counter ledger. Span
/// times are normalized per unit of work (`units`: traced passes, or
/// traced heavy jobs); counters are the ledger's, i.e. one fixed unit of
/// deterministic work. `traced_wall_s` is the wall time the traced
/// windows covered.
void emit_layers(Report& r, const SpanLedger& spans, double units,
                 double traced_wall_s, const Counters& ledger);

int run_design_spice(const Args& args, Report& report);
int run_population_mc(const Args& args, Report& report);
int run_telemetry_mix(const Args& args, Report& report);

} // namespace perfbench
