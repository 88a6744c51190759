#include "exec/checkpoint.hpp"

#include "exec/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace stsense::exec {
namespace {

/// Temp-file path helper; removes the file on destruction.
struct TempFile {
    std::string path;
    explicit TempFile(const std::string& name)
        : path(testing::TempDir() + name) {}
    ~TempFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
}

TEST(AtomicWriteFile, WritesContentAndLeavesNoTempBehind) {
    TempFile f("ckpt_atomic.txt");
    atomic_write_file(f.path, "hello\nworld\n");
    EXPECT_EQ(slurp(f.path), "hello\nworld\n");
    // Overwrite is atomic too: new content fully replaces the old.
    atomic_write_file(f.path, "x");
    EXPECT_EQ(slurp(f.path), "x");
    EXPECT_FALSE(file_exists(f.path + ".tmp." + std::to_string(::getpid())));
}

TEST(AtomicWriteFile, ThrowsOnUnwritablePath) {
    EXPECT_THROW(atomic_write_file("/nonexistent-dir/x/y.txt", "c"),
                 std::runtime_error);
}

TEST(Checkpoint, ValidatesConstruction) {
    EXPECT_THROW(Checkpoint("", 1, 4, 2), std::invalid_argument);
    TempFile f("ckpt_valid.csv");
    EXPECT_THROW(Checkpoint(f.path, 1, 0, 2), std::invalid_argument);
    EXPECT_THROW(Checkpoint(f.path, 1, 4, 0), std::invalid_argument);
}

TEST(Checkpoint, ColdStartLoadsNothing) {
    TempFile f("ckpt_cold.csv");
    Checkpoint c(f.path, 99, 4, 2);
    EXPECT_EQ(c.load(), 0u);
    EXPECT_EQ(c.completed_count(), 0u);
    EXPECT_FALSE(c.completed(0));
    EXPECT_THROW(c.values(0), std::out_of_range);
}

TEST(Checkpoint, RoundTripRestoresBitwise) {
    TempFile f("ckpt_roundtrip.csv");
    // Awkward payloads on purpose: non-representable fractions, a
    // denormal, a NaN, infinity — shortest-round-trip formatting must
    // bring every one back bit for bit (NaN modulo payload bits).
    const std::vector<std::vector<double>> rows = {
        {1.0 / 3.0, -0.0},
        {5e-324, std::numeric_limits<double>::infinity()},
        {std::numeric_limits<double>::quiet_NaN(), 1.2345678901234567e-300},
    };
    {
        Checkpoint c(f.path, 1234, 3, 2);
        for (std::size_t i = 0; i < rows.size(); ++i) c.record(i, rows[i]);
        c.flush();
    }
    Checkpoint r(f.path, 1234, 3, 2);
    EXPECT_EQ(r.load(), 3u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(r.completed(i));
        const auto v = r.values(i);
        for (std::size_t j = 0; j < 2; ++j) {
            if (std::isnan(rows[i][j])) {
                EXPECT_TRUE(std::isnan(v[j]));
            } else {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(v[j]),
                          std::bit_cast<std::uint64_t>(rows[i][j]))
                    << "row " << i << " col " << j;
            }
        }
    }
}

TEST(Checkpoint, AutoFlushesEveryN) {
    TempFile f("ckpt_autoflush.csv");
    Checkpoint c(f.path, 7, 8, 1);
    c.set_flush_every(2);
    const double v[1] = {1.5};
    c.record(0, v);
    EXPECT_FALSE(file_exists(f.path)); // One point: below the threshold.
    c.record(1, v);
    EXPECT_TRUE(file_exists(f.path)); // Second point triggered the flush.
}

TEST(Checkpoint, ReRecordCountsTowardTheFlushCadence) {
    // One point carrying an evolving state: every record() is a write
    // the cadence counts, and the file holds the newest payload.
    TempFile f("ckpt_rerecord.csv");
    Checkpoint c(f.path, 7, 1, 1);
    c.set_flush_every(2);
    const double first[1] = {1.0};
    const double second[1] = {2.0};
    c.record(0, first);
    EXPECT_FALSE(file_exists(f.path));
    c.record(0, second);
    EXPECT_TRUE(file_exists(f.path));
    Checkpoint r(f.path, 7, 1, 1);
    EXPECT_EQ(r.load(), 1u);
    EXPECT_EQ(r.values(0)[0], 2.0);
}

TEST(Checkpoint, FingerprintMismatchRejectsWholeFile) {
    TempFile f("ckpt_stale.csv");
    {
        Checkpoint c(f.path, 1, 4, 2);
        const double v[2] = {1.0, 2.0};
        c.record(0, v);
        c.flush();
    }
    auto& stale = MetricsRegistry::global().counter("exec.checkpoint.stale_files");
    const auto before = stale.value();
    Checkpoint other(f.path, 2, 4, 2); // Different computation.
    EXPECT_EQ(other.load(), 0u);
    EXPECT_EQ(stale.value(), before + 1);
    // Shape disagreements are equally fatal.
    Checkpoint shape(f.path, 1, 5, 2);
    EXPECT_EQ(shape.load(), 0u);
}

TEST(Checkpoint, CorruptRowIsDroppedOthersSurvive) {
    TempFile f("ckpt_corrupt.csv");
    {
        Checkpoint c(f.path, 42, 4, 1);
        const double a[1] = {10.0};
        const double b[1] = {20.0};
        c.record(0, a);
        c.record(2, b);
        c.flush();
    }
    // Flip one byte inside the *second* data row's payload.
    std::string content = slurp(f.path);
    const std::size_t second_row = content.find("\n2,");
    ASSERT_NE(second_row, std::string::npos);
    content[second_row + 3] ^= 1;
    atomic_write_file(f.path, content);

    auto& corrupt = MetricsRegistry::global().counter("exec.checkpoint.corrupt_rows");
    const auto before = corrupt.value();
    Checkpoint r(f.path, 42, 4, 1);
    EXPECT_EQ(r.load(), 1u);
    EXPECT_TRUE(r.completed(0));
    EXPECT_FALSE(r.completed(2)); // The damaged point recomputes.
    EXPECT_GT(corrupt.value(), before);
}

TEST(Checkpoint, TruncatedFileRecoversPrefix) {
    TempFile f("ckpt_trunc.csv");
    {
        Checkpoint c(f.path, 5, 6, 1);
        for (std::size_t i = 0; i < 6; ++i) {
            const double v[1] = {static_cast<double>(i) + 0.5};
            c.record(i, v);
        }
        c.flush();
    }
    // Shear mid-file: header + early rows stay whole, the torn tail row
    // fails its checksum.
    std::string content = slurp(f.path);
    content.resize(content.size() / 2);
    atomic_write_file(f.path, content);

    Checkpoint r(f.path, 5, 6, 1);
    const std::size_t accepted = r.load();
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, 6u);
    for (std::size_t i = 0; i < accepted; ++i) {
        ASSERT_TRUE(r.completed(i));
        EXPECT_DOUBLE_EQ(r.values(i)[0], static_cast<double>(i) + 0.5);
    }
}

TEST(Checkpoint, RecordValidatesArguments) {
    TempFile f("ckpt_args.csv");
    Checkpoint c(f.path, 3, 2, 2);
    const double ok[2] = {1.0, 2.0};
    const double wrong[1] = {1.0};
    EXPECT_THROW(c.record(2, ok), std::out_of_range);
    EXPECT_THROW(c.record(0, wrong), std::invalid_argument);
    c.record(0, ok);
    const double newer[2] = {3.0, 4.0};
    c.record(0, newer); // Re-record: the second payload wins.
    EXPECT_EQ(c.completed_count(), 1u);
    EXPECT_EQ(c.values(0)[0], 3.0);
    EXPECT_EQ(c.values(0)[1], 4.0);
}

TEST(Checkpoint, RemoveFileDeletesAndToleratesMissing) {
    TempFile f("ckpt_remove.csv");
    Checkpoint c(f.path, 8, 2, 1);
    const double v[1] = {3.0};
    c.record(0, v);
    c.flush();
    ASSERT_TRUE(file_exists(f.path));
    c.remove_file();
    EXPECT_FALSE(file_exists(f.path));
    c.remove_file(); // Second delete: fine.
}

} // namespace
} // namespace stsense::exec
