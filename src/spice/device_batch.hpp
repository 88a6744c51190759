// spice::DeviceBatch — structure-of-arrays MOSFET population evaluator,
// and the Simulator's only device evaluator: every solve (DC, transient,
// recovery-ladder rungs) assembles its MOSFET stamps and meters its
// supply currents through one.
//
// The transient kernel's profile is dominated by per-device work: every
// Newton iteration evaluates (or bypass-restamps) each MOSFET and
// scatters its stamps. DeviceBatch lays that work out in columnar lanes
// so the whole population is processed in one pass:
//
//             lane:      0      1      2      3    ...   M-1
//   gather    vgs[]   [v(g)-v(s) per device, contiguous       ]
//             vds[]   [v(d)-v(s)                              ]
//   evaluate  cache_* [bypass caches: valid/vgs/vds/id/gm/gds ]
//             out_*   [id/gm/gds results                      ]
//   scatter   jac offsets (8 per lane, precomputed, branch-free)
//
// * gather reads each lane's terminal voltages through precomputed node
//   indices (polarity folded in: PMOS lanes gather vs-vg / vs-vd).
// * evaluate folds the bypass test into a per-lane mask: quiet lanes are
//   restamped from the cached linearization, the rest run the real
//   alpha-power model. Two kernels exist — portable scalar and AVX2,
//   picked by the CPU probe — and they are bitwise-identical by
//   construction: the AVX2 unit vectorizes only the mask + restamp
//   arithmetic (compiled with -ffp-contract=off so no FMA fusing
//   changes a rounding), and miss lanes call the same scalar model
//   evaluation in the same lane order.
//   The scalar lanes themselves are bitwise-identical to
//   phys::evaluate (same expressions, same association, per-temperature
//   constants prefolded with the exact arithmetic evaluate() uses).
// * scatter writes stamps through a flat offset map built once per
//   (netlist, unknown numbering): entries addressed to eliminated
//   (driven) nodes map to trailing trash slots (Matrix::scratch_index,
//   residual[n]) so the loop carries no per-entry branch, and the
//   stamps accumulate in device order, so every matrix entry is
//   bitwise the per-device walk's (the DeviceBatchGolden suite pins
//   solves against bits captured from that walk).
//
// Blocks: the batch holds K independent blocks of the same netlist at K
// temperatures (constants and caches per block). A solo Simulator uses
// one block; the lock-step multi-point sweep drives one block per sweep
// point over one shared, contiguous allocation.
#pragma once

#include "spice/linalg.hpp"
#include "spice/netlist.hpp"

#include "phys/mosfet.hpp"
#include "util/simd.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace stsense::spice {

namespace detail {

/// Raw SoA lane pointers of one block, handed to the eval kernels. The
/// two kernels live in different translation units (the AVX2 one needs
/// its own compile flags), so the view is plain pointers.
struct BatchLanes {
    std::size_t n = 0; ///< Real (unpadded) lane count.
    const double* vgs = nullptr;
    const double* vds = nullptr;
    double* out_id = nullptr;
    double* out_gm = nullptr;
    double* out_gds = nullptr;
    // Bypass caches (valid is 0.0 / 1.0 so the vector path can mask on it).
    double* cache_valid = nullptr;
    double* cache_vgs = nullptr;
    double* cache_vds = nullptr;
    double* cache_id = nullptr;
    double* cache_gm = nullptr;
    double* cache_gds = nullptr;
    // Per-lane model constants, prefolded at the block's temperature.
    const double* vth = nullptr;
    const double* kfac = nullptr;
    const double* akfac = nullptr;
    const double* alpha = nullptr;
    const double* alpha_m1 = nullptr;
    const double* half_alpha = nullptr;
    const double* half_alpha_m1 = nullptr;
    const double* vdsat_coeff = nullptr;
    const double* dvdsat_coeff = nullptr;
    const double* lambda = nullptr;
    const double* smoothing = nullptr;
};

struct BatchCounters {
    long bypass_hits = 0;
    long device_evals = 0;
    long simd_groups = 0;
};

/// One lane through the alpha-power model: bitwise-identical to
/// phys::evaluate at the lane's device/temperature (the parity suite
/// gates this). Exposed so both kernels share the single definition.
phys::MosEval eval_lane(const BatchLanes& lanes, std::size_t lane,
                        double vgs, double vds);

/// Portable kernel: mask + restamp + model eval, lane by lane.
void eval_lanes_scalar(const BatchLanes& lanes, bool use_cache, double tol,
                       BatchCounters& counters);

/// AVX2 kernel (device_batch_avx2.cpp): vectorized mask + restamp,
/// scalar model eval for miss lanes. Bitwise-identical to the scalar
/// kernel; falls back to it when built without AVX2 support.
void eval_lanes_avx2(const BatchLanes& lanes, bool use_cache, double tol,
                     BatchCounters& counters);

} // namespace detail

/// See the file comment. One DeviceBatch is single-threaded, like the
/// Simulator that owns it.
class DeviceBatch {
public:
    /// Kernel statistics, accumulated into the caller's slot per
    /// evaluate() call (the Simulator's TransientResult device counters
    /// are these).
    struct Stats {
        long bypass_hits = 0;
        long device_evals = 0;
        long batch_lanes = 0; ///< Lanes processed by evaluate() calls.
        long simd_groups = 0; ///< 4-lane groups that went through AVX2.
    };

    /// One block per entry of temps_k; the lane kernel is the CPU
    /// probe's (util::resolve_simd). Throws std::invalid_argument on
    /// model parameters the scalar model would reject (same conditions
    /// as phys::evaluate's input check).
    DeviceBatch(const Circuit& circuit, std::span<const double> temps_k);

    std::size_t blocks() const { return n_blocks_; }
    std::size_t lanes() const { return n_lanes_; }
    util::SimdLevel level() const { return level_; }

    /// Builds the stamp scatter map against an unknown numbering
    /// (unknown_index[node] = slot, or < 0 for eliminated nodes).
    void build_scatter(std::span<const int> unknown_index,
                       std::size_t n_unknowns);
    bool has_scatter() const { return has_scatter_; }

    /// Fills the block's vgs/vds lanes from a node-voltage vector.
    void gather(std::size_t block, const std::vector<double>& volts);

    /// Evaluates every lane of the block: cache restamp for lanes whose
    /// gathered voltages moved <= tol since their last real evaluation,
    /// the real model for the rest. use_cache = false evaluates every
    /// lane and leaves the caches untouched (no bypass).
    void evaluate(std::size_t block, bool use_cache, double tol, Stats& stats);

    void invalidate_cache(std::size_t block);

    /// Scatters the block's evaluated stamps. `residual` must carry
    /// n_unknowns + 1 entries (the trailing trash slot); `jac` must be
    /// n_unknowns square (its scratch slot absorbs driven-node stamps).
    void scatter_stamps(std::size_t block, bool want_jac, Matrix& jac,
                        std::span<double> residual) const;

    /// Adds every lane's drain current into per-node slots (indexed by
    /// raw NodeId; size = circuit node count), in device order — the
    /// device slice of supply metering.
    void accumulate_currents(std::size_t block,
                             std::span<double> node_currents) const;

    std::span<const double> out_id(std::size_t block) const {
        return {out_id_.data() + block * stride_, n_lanes_};
    }
    std::span<const double> out_gm(std::size_t block) const {
        return {out_gm_.data() + block * stride_, n_lanes_};
    }
    std::span<const double> out_gds(std::size_t block) const {
        return {out_gds_.data() + block * stride_, n_lanes_};
    }

private:
    detail::BatchLanes lanes_view(std::size_t block);

    std::size_t n_blocks_ = 0;
    std::size_t n_lanes_ = 0;
    std::size_t stride_ = 0; ///< Lane count padded to the vector width.
    util::SimdLevel level_ = util::SimdLevel::Scalar;
    std::size_t n_unknowns_ = 0;
    bool has_scatter_ = false;

    // Shared per-lane tables (size stride_; identical across blocks).
    std::vector<std::uint32_t> vg_a_, vg_b_, vd_a_, vd_b_; ///< Gather nodes.
    std::vector<std::uint8_t> is_pmos_;
    std::vector<std::uint32_t> node_p_, node_m_; ///< Current +/- terminals.
    std::vector<std::uint32_t> res_p_, res_m_;   ///< Residual offsets.
    std::vector<std::uint32_t> jac_pp_, jac_pg_, jac_pm_; ///< P-row offsets.
    std::vector<std::uint32_t> jac_mm_, jac_mg_, jac_mp_; ///< M-row offsets.

    // Per-(block, lane) state (size n_blocks_ * stride_).
    std::vector<double> vgs_, vds_;
    std::vector<double> out_id_, out_gm_, out_gds_;
    std::vector<double> cache_valid_, cache_vgs_, cache_vds_;
    std::vector<double> cache_id_, cache_gm_, cache_gds_;
    std::vector<double> vth_, kfac_, akfac_, alpha_, alpha_m1_;
    std::vector<double> half_alpha_, half_alpha_m1_;
    std::vector<double> vdsat_coeff_, dvdsat_coeff_, lambda_, smoothing_;
};

} // namespace stsense::spice
