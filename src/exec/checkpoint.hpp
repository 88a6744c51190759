// exec::Checkpoint — crash-safe incremental persistence for long runs.
//
// A sweep or optimizer run over N independent points dies all-or-nothing
// today: a kill at point N-1 recomputes everything. The checkpoint makes
// such runs resumable with the same determinism discipline as the result
// cache:
//
//   * keyed by the run's content fingerprint — a checkpoint written by a
//     *different* computation (other grid, other config, other policy)
//     is detected at load time and ignored wholesale, never merged;
//   * every row carries a trailing FNV-1a checksum, so torn/bit-rotten
//     rows degrade to "recompute that point" instead of poisoning the
//     resumed series;
//   * writes go through atomic_write_file (tmp + rename), so a kill
//     mid-flush leaves either the previous complete checkpoint or the
//     new one — never a half-written file;
//   * each point's payload is stored with shortest-round-trip formatting
//     (util::format_double), so a resumed point is bitwise identical to
//     a recomputed one.
//
// The class is thread-safe: parallel workers record() concurrently and
// flushes are serialized internally.
//
// run_checkpointed() is the one lifecycle every long job shares (sweeps,
// optimizer searches, population studies): open and load the file, run
// the job, flush on cancel, then keep or delete the file on success.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace stsense::exec {

/// Writes `content` to `path` atomically: the bytes land in
/// "<path>.tmp.<pid>" first and are renamed over `path` only after a
/// successful close, so readers never observe a partial file and a kill
/// mid-write loses nothing but the in-flight update. Throws
/// std::runtime_error when the file cannot be written or renamed.
void atomic_write_file(const std::string& path, const std::string& content);

class Checkpoint {
public:
    /// A checkpoint for a run of `n_points` units of work, each
    /// completing with `values_per_point` doubles of payload, identified
    /// by `fingerprint` (the run's content hash). The file at `path` is
    /// not touched until load() or flush().
    Checkpoint(std::string path, std::uint64_t fingerprint,
               std::size_t n_points, std::size_t values_per_point);

    /// Restores completed points from the file; returns how many were
    /// accepted. A missing file is a cold start (returns 0). A header
    /// that fails its checksum or disagrees with (fingerprint, n_points,
    /// values_per_point) invalidates the whole file — a stale checkpoint
    /// from a different run must never leak points into this one. Rows
    /// that fail their checksum, repeat an index, or are out of range
    /// are dropped and counted ("exec.checkpoint.corrupt_rows").
    std::size_t load();

    bool completed(std::size_t index) const;
    /// Payload of a completed point (values_per_point doubles).
    std::span<const double> values(std::size_t index) const;

    /// Marks `index` complete with its payload. Recording a point that
    /// is already complete replaces its payload (last write wins), so a
    /// consumer that carries one evolving state can keep it in a single
    /// point. Every record() counts toward the flush cadence:
    /// auto-flushes after every `flush_every()` calls. Consumers whose
    /// points are final (sweeps, the optimizer) check completed() first
    /// and never re-record. Thread-safe.
    void record(std::size_t index, std::span<const double> values);

    /// Records between automatic flushes (default 8; 1 = flush on every
    /// record; 0 disables auto-flush).
    void set_flush_every(std::size_t n) { flush_every_ = n; }
    std::size_t flush_every() const { return flush_every_; }

    /// Atomically rewrites the file with every completed point. The
    /// FaultInjector's CheckpointTruncate site can shear the content in
    /// half here — load() then recovers everything before the tear.
    void flush();

    std::size_t completed_count() const;

    std::size_t n_points() const { return n_points_; }
    std::uint64_t fingerprint() const { return fingerprint_; }
    const std::string& path() const { return path_; }

    /// Deletes the file (call after the run completes so a finished
    /// run's checkpoint does not linger). Missing file is fine.
    void remove_file();

    /// Forgets every completed point in memory; the file is untouched
    /// until the next flush. For a consumer that loaded a state it
    /// cannot resume from and starts over.
    void clear();

private:
    std::string compose_locked() const; ///< Requires m_ held.
    void flush_locked();                ///< Requires m_ held.

    std::string path_;
    std::uint64_t fingerprint_;
    std::size_t n_points_;
    std::size_t values_per_point_;
    std::size_t flush_every_ = 8;

    mutable std::mutex m_;
    std::vector<std::uint8_t> done_;
    std::vector<double> payload_; ///< n_points * values_per_point, row-major.
    std::size_t completed_ = 0;
    std::size_t since_flush_ = 0;
    std::uint64_t flushes_ = 0;
};

/// One long job's checkpoint: the job's identity and shape, and the
/// path, cadence and retention its runtime struct asked for.
struct JobCheckpoint {
    std::string path; ///< Empty: the job runs without a checkpoint.
    std::uint64_t fingerprint = 0;
    std::size_t n_points = 0;
    std::size_t values_per_point = 0;
    /// Records between automatic flushes; <= 0 selects the Checkpoint
    /// default (8). The same rule holds for every layer's runtime.
    std::int64_t every = 0;
    /// true flushes the file after a completed job (tests, debugging);
    /// false deletes it, so a finished job leaves no stale state.
    bool keep = false;
    /// Counter bumped once per cancelled job ("exec.cancel.sweeps", ...).
    const char* cancel_counter = "";
};

/// Runs `body` under the checkpoint lifecycle of a long job:
///   1. opens the checkpoint at job.path (none when it is empty), sets
///      its cadence and loads it;
///   2. runs body(checkpoint), nullptr without a path;
///   3. on exec::CancelledError counts job.cancel_counter, flushes every
///      completed point and keeps the file (a re-issued identical job
///      resumes bitwise), then rethrows;
///   4. on success flushes (job.keep) or deletes the file.
/// Every other exception, an InjectedKill included, passes through
/// unflushed: it stands for a process death, and a dead process flushes
/// nothing.
void run_checkpointed(const JobCheckpoint& job,
                      const std::function<void(Checkpoint*)>& body);

} // namespace stsense::exec
