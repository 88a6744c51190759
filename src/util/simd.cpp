#include "util/simd.hpp"

namespace stsense::util {

namespace {

SimdCaps probe_caps() {
    SimdCaps caps;
#if defined(__x86_64__) || defined(__i386__)
    caps.sse42 = __builtin_cpu_supports("sse4.2");
    caps.avx2 = __builtin_cpu_supports("avx2");
    caps.fma = __builtin_cpu_supports("fma");
    caps.avx512f = __builtin_cpu_supports("avx512f");
#endif
    return caps;
}

} // namespace

const SimdCaps& simd_caps() {
    static const SimdCaps caps = probe_caps();
    return caps;
}

SimdLevel resolve_simd() {
    return simd_caps().avx2 ? SimdLevel::Avx2 : SimdLevel::Scalar;
}

const char* simd_level_name(SimdLevel level) {
    switch (level) {
        case SimdLevel::Avx2: return "avx2";
        case SimdLevel::Scalar: break;
    }
    return "scalar";
}

} // namespace stsense::util
