#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace stsense::util {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class CsvTest : public ::testing::Test {
protected:
    void TearDown() override { std::remove(path_.c_str()); }
    // One file per test: ctest runs the tests of this fixture in
    // parallel processes, which must not write the same file.
    std::string path_ =
        testing::TempDir() + "stsense_csv_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
    {
        CsvWriter w(path_);
        w.header({"a", "b"});
        w.row({1.0, 2.5});
        w.row({-3.0, 0.0});
        EXPECT_EQ(w.rows_written(), 2u);
    }
    EXPECT_EQ(slurp(path_), "a,b\n1,2.5\n-3,0\n");
}

TEST_F(CsvTest, TextRows) {
    {
        CsvWriter w(path_);
        w.row_text({"x", "y z"});
    }
    EXPECT_EQ(slurp(path_), "x,y z\n");
}

TEST_F(CsvTest, HeaderAfterRowThrows) {
    CsvWriter w(path_);
    w.row({1.0});
    EXPECT_THROW(w.header({"a"}), std::logic_error);
}

TEST_F(CsvTest, DoubleHeaderThrows) {
    CsvWriter w(path_);
    w.header({"a"});
    EXPECT_THROW(w.header({"b"}), std::logic_error);
}

TEST(CsvWriter, UnwritablePathThrows) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(FormatDouble, RoundTripsExactly) {
    for (double v : {0.0, 1.0, -1.5, 3.141592653589793, 1e-12, 2.75e9}) {
        EXPECT_EQ(std::stod(format_double(v)), v);
    }
}

} // namespace
} // namespace stsense::util
