// Process corners and Monte-Carlo variation.
//
// The paper raises "sensor calibration" as a design concern: a ring
// oscillator's absolute period shifts with process, so the smart unit
// calibrates it. The calibration bench exercises exactly that, using
// these corner/variation transforms.
#pragma once

#include "exec/thread_pool.hpp"
#include "phys/technology.hpp"
#include "util/rng.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace stsense::phys {

/// Classic five-corner set (NMOS/PMOS speed).
enum class Corner {
    TT, ///< Typical / typical.
    FF, ///< Fast / fast.
    SS, ///< Slow / slow.
    FS, ///< Fast NMOS / slow PMOS.
    SF, ///< Slow NMOS / fast PMOS.
};

/// Human-readable corner name ("TT", "FF", ...).
std::string to_string(Corner corner);

/// All corners in declaration order, for sweeps.
inline constexpr Corner kAllCorners[] = {Corner::TT, Corner::FF, Corner::SS,
                                         Corner::FS, Corner::SF};

/// Relative strength of the corner shifts.
struct CornerSpec {
    double vth_shift = 0.04;  ///< |Vth| shift per corner step [V] (fast = lower Vth).
    double kp_rel = 0.10;     ///< Relative current-factor shift (fast = higher kp).
};

/// Returns a copy of `tech` moved to the given corner.
Technology apply_corner(const Technology& tech, Corner corner,
                        const CornerSpec& spec = {});

/// Gaussian die-to-die variation magnitudes (1-sigma).
struct VariationSpec {
    double vth_sigma = 0.015;      ///< Vth sigma [V], per device type.
    double kp_rel_sigma = 0.04;    ///< Relative kp sigma.
    double vdd_rel_sigma = 0.0;    ///< Relative supply sigma (0 = ideal supply).
    bool correlated_np = false;    ///< Draw one deviate for both device types.
};

/// Samples one varied die. Deterministic given the Rng state.
Technology sample_variation(const Technology& tech, const VariationSpec& spec,
                            util::Rng& rng);

/// Lazy per-die variation generator — the streaming form of Monte-Carlo
/// sampling. Die i's parameters are a *pure function* of (base state, i)
/// via util::Rng::split(i), so the stream supports random access (at),
/// resume (seek), and shard-by-shard filling (next_n) without ever
/// materializing the whole population: a 10^6-die study touches one
/// shard's worth of Technology at a time.
///
/// Contract: die i draws from the independent stream base.split(i)
/// (see util::Rng::split(stream_id)), so at(i) — and the slot next_n
/// fills for die i — is deterministic for a given `base` state
/// regardless of chunking, thread count or scheduling: the parallel
/// Monte-Carlo contract, asserted in tests.
class VariationStream {
public:
    /// `base` is captured by value (the stream never advances it);
    /// `tech` must validate.
    VariationStream(Technology tech, VariationSpec spec, util::Rng base);

    /// Die `die`'s varied technology — pure in (base, die), independent
    /// of the cursor and of every other die.
    Technology at(std::uint64_t die) const;

    /// Same, and leaves `continuation` holding die `die`'s substream
    /// advanced *past* the variation draws: downstream per-die effects
    /// (aging-rate draws, noise seeds) consume from the continuation
    /// without perturbing the variation values — and without
    /// correlating across dice.
    Technology at(std::uint64_t die, util::Rng& continuation) const;

    /// Fills `out` with dice [cursor, cursor + out.size()) and advances
    /// the cursor. Runs on `pool` (nullptr: the global pool) when
    /// `parallel`; the fill is bitwise identical either way (each slot
    /// is an independent at() call).
    void next_n(std::span<Technology> out, exec::ThreadPool* pool = nullptr,
                bool parallel = true);

    std::uint64_t cursor() const { return cursor_; }
    /// Repositions the stream (e.g. to resume a checkpointed shard).
    void seek(std::uint64_t die) { cursor_ = die; }

    const Technology& nominal() const { return tech_; }
    const VariationSpec& variation() const { return spec_; }

private:
    Technology tech_;
    VariationSpec spec_;
    util::Rng base_;
    std::uint64_t cursor_ = 0;
};

} // namespace stsense::phys
