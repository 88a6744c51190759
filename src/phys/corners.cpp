#include "phys/corners.hpp"

#include <stdexcept>
#include <utility>

namespace stsense::phys {

std::string to_string(Corner corner) {
    switch (corner) {
        case Corner::TT: return "TT";
        case Corner::FF: return "FF";
        case Corner::SS: return "SS";
        case Corner::FS: return "FS";
        case Corner::SF: return "SF";
    }
    throw std::invalid_argument("to_string: bad Corner value");
}

namespace {

// +1 = fast device (lower Vth, higher kp); -1 = slow; 0 = typical.
void shift_device(MosfetParams& p, int direction, const CornerSpec& spec) {
    p.vth0 -= direction * spec.vth_shift;
    p.kp *= 1.0 + direction * spec.kp_rel;
}

} // namespace

Technology apply_corner(const Technology& tech, Corner corner,
                        const CornerSpec& spec) {
    Technology out = tech;
    int n = 0;
    int p = 0;
    switch (corner) {
        case Corner::TT: break;
        case Corner::FF: n = +1; p = +1; break;
        case Corner::SS: n = -1; p = -1; break;
        case Corner::FS: n = +1; p = -1; break;
        case Corner::SF: n = -1; p = +1; break;
    }
    shift_device(out.nmos, n, spec);
    shift_device(out.pmos, p, spec);
    out.name = tech.name + "-" + to_string(corner);
    validate(out);
    return out;
}

Technology sample_variation(const Technology& tech, const VariationSpec& spec,
                            util::Rng& rng) {
    Technology out = tech;

    const double nv = rng.normal();
    const double nk = rng.normal();
    const double pv = spec.correlated_np ? nv : rng.normal();
    const double pk = spec.correlated_np ? nk : rng.normal();

    out.nmos.vth0 += spec.vth_sigma * nv;
    out.nmos.kp *= 1.0 + spec.kp_rel_sigma * nk;
    out.pmos.vth0 += spec.vth_sigma * pv;
    out.pmos.kp *= 1.0 + spec.kp_rel_sigma * pk;
    if (spec.vdd_rel_sigma > 0.0) {
        out.vdd *= 1.0 + spec.vdd_rel_sigma * rng.normal();
    }
    out.name = tech.name + "-mc";
    validate(out);
    return out;
}

VariationStream::VariationStream(Technology tech, VariationSpec spec,
                                 util::Rng base)
    : tech_(std::move(tech)), spec_(spec), base_(base) {
    validate(tech_);
}

Technology VariationStream::at(std::uint64_t die) const {
    // Per-die stream: die i's deviates never depend on which thread ran
    // it, on the cursor, or on the other dies.
    util::Rng trial = base_.split(die);
    return sample_variation(tech_, spec_, trial);
}

Technology VariationStream::at(std::uint64_t die,
                               util::Rng& continuation) const {
    continuation = base_.split(die);
    return sample_variation(tech_, spec_, continuation);
}

void VariationStream::next_n(std::span<Technology> out,
                             exec::ThreadPool* pool, bool parallel) {
    const std::uint64_t first = cursor_;
    auto fill = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            out[i] = at(first + static_cast<std::uint64_t>(i));
        }
    };
    if (!parallel || out.size() < 2) {
        fill(0, out.size());
    } else {
        auto& p = pool != nullptr ? *pool : exec::ThreadPool::global();
        p.parallel_for(out.size(), 4, fill);
    }
    cursor_ = first + out.size();
}

} // namespace stsense::phys
