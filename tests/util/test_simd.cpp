// util::simd — the CPU probe and the dispatch level it selects. The
// result depends on the host CPU, so expectations are computed against
// the probe rather than hard-coded.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stsense::util {
namespace {

TEST(SimdProbe, StableAndConsistent) {
    const SimdCaps& a = simd_caps();
    const SimdCaps& b = simd_caps();
    EXPECT_EQ(&a, &b); // Cached probe.
    // AVX2 implies SSE4.2 on every real CPU; AVX-512F implies AVX2.
    if (a.avx2) EXPECT_TRUE(a.sse42);
    if (a.avx512f) EXPECT_TRUE(a.avx2);
}

TEST(SimdResolve, HonorsPrecedence) {
    // The probe is the only input left: AVX2 exactly when the CPU has
    // it, scalar otherwise, the same answer on every call.
    const SimdLevel best =
        simd_caps().avx2 ? SimdLevel::Avx2 : SimdLevel::Scalar;
    EXPECT_EQ(resolve_simd(), best);
    EXPECT_EQ(resolve_simd(), resolve_simd());
}

TEST(SimdName, Names) {
    EXPECT_EQ(std::string(simd_level_name(SimdLevel::Scalar)), "scalar");
    EXPECT_EQ(std::string(simd_level_name(SimdLevel::Avx2)), "avx2");
}

} // namespace
} // namespace stsense::util
