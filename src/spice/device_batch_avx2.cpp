// AVX2 lane kernel of spice::DeviceBatch.
//
// This translation unit is compiled with -mavx2 -ffp-contract=off (see
// src/spice/CMakeLists.txt). The contract flag is load-bearing: GCC
// happily fuses a _mm256_mul_pd feeding a _mm256_add_pd into one FMA,
// which rounds once where the scalar kernel rounds twice — and the two
// kernels are required to be bitwise identical. No -mfma is passed
// either, so a fused multiply-add cannot even be emitted here.
//
// The vector work covers exactly the arithmetic that is profitable and
// provably parity-safe: the bypass mask (|dv| <= tol on both terminal
// deltas, gated on cache validity) and the hit-lane restamp
// id + gm*dvgs + gds*dvds in the scalar association. Miss lanes drop to
// the shared scalar model evaluation (detail::eval_lane) in ascending
// lane order — the same calls, in the same order, the scalar kernel
// makes.
#include "spice/device_batch.hpp"

#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace stsense::spice::detail {

#if defined(__AVX2__)

void eval_lanes_avx2(const BatchLanes& L, bool use_cache, double tol,
                     BatchCounters& counters) {
    if (!use_cache) {
        // Nothing to vectorize without the caches — every lane is a
        // scalar libm model evaluation anyway.
        eval_lanes_scalar(L, use_cache, tol, counters);
        return;
    }

    const __m256d vtol = _mm256_set1_pd(tol);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d sign_mask = _mm256_set1_pd(-0.0);

    std::size_t i = 0;
    for (; i + 4 <= L.n; i += 4) {
        const __m256d vgs = _mm256_loadu_pd(L.vgs + i);
        const __m256d vds = _mm256_loadu_pd(L.vds + i);
        const __m256d cvgs = _mm256_loadu_pd(L.cache_vgs + i);
        const __m256d cvds = _mm256_loadu_pd(L.cache_vds + i);
        const __m256d dgs = _mm256_sub_pd(vgs, cvgs);
        const __m256d dds = _mm256_sub_pd(vds, cvds);

        // valid && |dgs| <= tol && |dds| <= tol, NaN-false like the
        // scalar comparisons (ordered quiet predicates).
        const __m256d valid =
            _mm256_cmp_pd(_mm256_loadu_pd(L.cache_valid + i), vone, _CMP_EQ_OQ);
        const __m256d near_gs = _mm256_cmp_pd(
            _mm256_andnot_pd(sign_mask, dgs), vtol, _CMP_LE_OQ);
        const __m256d near_ds = _mm256_cmp_pd(
            _mm256_andnot_pd(sign_mask, dds), vtol, _CMP_LE_OQ);
        const __m256d hit =
            _mm256_and_pd(valid, _mm256_and_pd(near_gs, near_ds));

        const __m256d cid = _mm256_loadu_pd(L.cache_id + i);
        const __m256d cgm = _mm256_loadu_pd(L.cache_gm + i);
        const __m256d cgds = _mm256_loadu_pd(L.cache_gds + i);
        // (cid + cgm*dgs) + cgds*dds — the scalar association, unfused.
        const __m256d restamp = _mm256_add_pd(
            _mm256_add_pd(cid, _mm256_mul_pd(cgm, dgs)),
            _mm256_mul_pd(cgds, dds));

        // Store the hit-lane results wholesale; miss lanes are
        // overwritten by their real evaluation just below.
        _mm256_storeu_pd(L.out_id + i, restamp);
        _mm256_storeu_pd(L.out_gm + i, cgm);
        _mm256_storeu_pd(L.out_gds + i, cgds);

        ++counters.simd_groups;
        const int hits = _mm256_movemask_pd(hit) & 0xF;
        counters.bypass_hits += __builtin_popcount(hits);
        int miss = (~hits) & 0xF;
        while (miss != 0) {
            const int b = __builtin_ctz(static_cast<unsigned>(miss));
            miss &= miss - 1;
            const std::size_t lane = i + static_cast<std::size_t>(b);
            const phys::MosEval e = eval_lane(L, lane, L.vgs[lane], L.vds[lane]);
            ++counters.device_evals;
            L.out_id[lane] = e.id;
            L.out_gm[lane] = e.gm;
            L.out_gds[lane] = e.gds;
            L.cache_valid[lane] = 1.0;
            L.cache_vgs[lane] = L.vgs[lane];
            L.cache_vds[lane] = L.vds[lane];
            L.cache_id[lane] = e.id;
            L.cache_gm[lane] = e.gm;
            L.cache_gds[lane] = e.gds;
        }
    }

    // Tail lanes (< 4 remaining): the scalar kernel body, verbatim.
    for (; i < L.n; ++i) {
        const double vgs = L.vgs[i];
        const double vds = L.vds[i];
        if (L.cache_valid[i] == 1.0 && std::abs(vgs - L.cache_vgs[i]) <= tol &&
            std::abs(vds - L.cache_vds[i]) <= tol) {
            ++counters.bypass_hits;
            L.out_id[i] = L.cache_id[i] + L.cache_gm[i] * (vgs - L.cache_vgs[i]) +
                          L.cache_gds[i] * (vds - L.cache_vds[i]);
            L.out_gm[i] = L.cache_gm[i];
            L.out_gds[i] = L.cache_gds[i];
            continue;
        }
        const phys::MosEval e = eval_lane(L, i, vgs, vds);
        ++counters.device_evals;
        L.out_id[i] = e.id;
        L.out_gm[i] = e.gm;
        L.out_gds[i] = e.gds;
        L.cache_valid[i] = 1.0;
        L.cache_vgs[i] = vgs;
        L.cache_vds[i] = vds;
        L.cache_id[i] = e.id;
        L.cache_gm[i] = e.gm;
        L.cache_gds[i] = e.gds;
    }
}

#else // !__AVX2__

void eval_lanes_avx2(const BatchLanes& L, bool use_cache, double tol,
                     BatchCounters& counters) {
    // Built without AVX2 support: the probe-driven dispatch only picks
    // this path on an AVX2 CPU, but keep it correct anyway.
    eval_lanes_scalar(L, use_cache, tol, counters);
}

#endif

} // namespace stsense::spice::detail
