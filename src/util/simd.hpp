// util::simd — runtime SIMD capability probe and dispatch level.
//
// The batched device evaluator (spice::DeviceBatch) carries two code
// paths for its hot restamp/mask arithmetic: portable scalar and AVX2.
// Which one runs is decided *at runtime* from the CPU the process
// actually landed on, so one binary serves every x86-64 machine. The
// probe is the only input: no option or environment variable pins a
// level. The kernels' parity is a unit test
// (DeviceBatchSimd.ScalarAndAvx2KernelsBitwiseIdentical), which calls
// both directly.
//
// The contract both paths must honor: identical results bit for bit.
// The vector path therefore performs exactly the scalar expressions in
// exactly the scalar association — in particular the AVX2 translation
// unit is compiled with -ffp-contract=off so GCC cannot fuse its
// mul+add intrinsics into FMAs (an FMA rounds once where mul+add
// rounds twice, which would break parity). FMA support is still probed
// and reported, but no value-critical math uses it.
#pragma once

namespace stsense::util {

/// What the CPU offers (probed once, cached).
struct SimdCaps {
    bool sse42 = false;
    bool avx2 = false;
    bool fma = false;
    bool avx512f = false;
};

/// Instruction-set level a kernel actually dispatches to.
enum class SimdLevel {
    Scalar,
    Avx2,
};

/// CPU capability probe (cached after the first call; never throws).
const SimdCaps& simd_caps();

/// The level the device batch dispatches to: Avx2 when the probe
/// reports it, else Scalar.
SimdLevel resolve_simd();

/// Human-readable level name ("scalar" / "avx2") for logs and benches.
const char* simd_level_name(SimdLevel level);

} // namespace stsense::util
