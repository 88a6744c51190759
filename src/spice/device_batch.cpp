#include "spice/device_batch.hpp"

#include <cmath>
#include <stdexcept>

namespace stsense::spice {

namespace detail {

phys::MosEval eval_lane(const BatchLanes& L, std::size_t i, double vgs,
                        double vds) {
    // Mirror of phys::evaluate, expression for expression, with the
    // temperature-only factors prefolded (using the same association
    // evaluate() uses, so every prefolded constant is the same double).
    // Any edit here must be mirrored there — the parity tests compare
    // the two bitwise across operating regions.
    if (vds < 0.0) {
        // Source/drain symmetry, one level deep (the flipped vds is > 0).
        const phys::MosEval sw = eval_lane(L, i, vgs - vds, -vds);
        phys::MosEval out;
        out.id = -sw.id;
        out.gm = -sw.gm;
        out.gds = sw.gm + sw.gds;
        return out;
    }

    const double vgst = vgs - L.vth[i];
    const phys::SoftplusEval eff = phys::softplus_blend(vgst, L.smoothing[i]);
    const double k = L.kfac[i];

    const double veffa = std::pow(eff.value, L.alpha[i]);
    const double idsat = k * veffa;
    const double didsat_dveff = L.akfac[i] * std::pow(eff.value, L.alpha_m1[i]);

    const double vdsat = L.vdsat_coeff[i] * std::pow(eff.value, L.half_alpha[i]);
    const double dvdsat_dveff =
        L.dvdsat_coeff[i] * std::pow(eff.value, L.half_alpha_m1[i]);

    const double clm = 1.0 + L.lambda[i] * vds;

    phys::MosEval out;
    if (vds >= vdsat) {
        out.id = idsat * clm;
        out.gds = idsat * L.lambda[i];
        out.gm = didsat_dveff * eff.derivative * clm;
    } else {
        const double x = vds / vdsat;
        const double shape = (2.0 - x) * x;
        out.id = idsat * shape * clm;
        const double dshape_dx = 2.0 - 2.0 * x;
        out.gds = idsat * (dshape_dx / vdsat * clm + shape * L.lambda[i]);
        const double dx_dveff = -vds / (vdsat * vdsat) * dvdsat_dveff;
        out.gm = (didsat_dveff * shape + idsat * dshape_dx * dx_dveff) *
                 eff.derivative * clm;
    }
    return out;
}

void eval_lanes_scalar(const BatchLanes& L, bool use_cache, double tol,
                       BatchCounters& counters) {
    for (std::size_t i = 0; i < L.n; ++i) {
        const double vgs = L.vgs[i];
        const double vds = L.vds[i];
        if (use_cache && L.cache_valid[i] == 1.0 &&
            std::abs(vgs - L.cache_vgs[i]) <= tol &&
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
        if (use_cache) {
            L.cache_valid[i] = 1.0;
            L.cache_vgs[i] = vgs;
            L.cache_vds[i] = vds;
            L.cache_id[i] = e.id;
            L.cache_gm[i] = e.gm;
            L.cache_gds[i] = e.gds;
        }
    }
}

} // namespace detail

namespace {

void check_device(const phys::MosfetParams& p, const phys::MosGeometry& g,
                  double temp_k) {
    // Same rejection conditions as phys::evaluate's input check, applied
    // once at batch build instead of once per evaluation.
    if (temp_k <= 0.0) throw std::invalid_argument("mosfet: temperature must be > 0 K");
    if (g.w <= 0.0 || g.l <= 0.0) throw std::invalid_argument("mosfet: W and L must be > 0");
    if (p.alpha < 1.0 || p.alpha > 2.0) throw std::invalid_argument("mosfet: alpha out of [1,2]");
}

} // namespace

DeviceBatch::DeviceBatch(const Circuit& circuit,
                         std::span<const double> temps_k)
    : n_blocks_(temps_k.size()),
      n_lanes_(circuit.mosfets().size()),
      stride_((circuit.mosfets().size() + 3) & ~std::size_t{3}),
      level_(util::resolve_simd()) {
    const auto& mosfets = circuit.mosfets();

    vg_a_.resize(stride_);
    vg_b_.resize(stride_);
    vd_a_.resize(stride_);
    vd_b_.resize(stride_);
    is_pmos_.assign(stride_, 0);
    node_p_.resize(stride_);
    node_m_.resize(stride_);
    for (std::size_t i = 0; i < n_lanes_; ++i) {
        const Mosfet& m = mosfets[i];
        if (m.params.type == phys::MosType::Nmos) {
            vg_a_[i] = m.gate.index;
            vg_b_[i] = m.source.index;
            vd_a_[i] = m.drain.index;
            vd_b_[i] = m.source.index;
            node_p_[i] = m.drain.index;
            node_m_[i] = m.source.index;
        } else {
            is_pmos_[i] = 1;
            vg_a_[i] = m.source.index;
            vg_b_[i] = m.gate.index;
            vd_a_[i] = m.source.index;
            vd_b_[i] = m.drain.index;
            node_p_[i] = m.source.index;
            node_m_[i] = m.drain.index;
        }
    }
    // Padding lanes gather ground minus ground; they are never evaluated
    // (the kernels stop at n) but keep the arrays fully initialized.
    for (std::size_t i = n_lanes_; i < stride_; ++i) {
        vg_a_[i] = vg_b_[i] = vd_a_[i] = vd_b_[i] = 0;
        node_p_[i] = node_m_[i] = 0;
    }

    const std::size_t total = n_blocks_ * stride_;
    vgs_.assign(total, 0.0);
    vds_.assign(total, 0.0);
    out_id_.assign(total, 0.0);
    out_gm_.assign(total, 0.0);
    out_gds_.assign(total, 0.0);
    cache_valid_.assign(total, 0.0);
    cache_vgs_.assign(total, 0.0);
    cache_vds_.assign(total, 0.0);
    cache_id_.assign(total, 0.0);
    cache_gm_.assign(total, 0.0);
    cache_gds_.assign(total, 0.0);
    vth_.assign(total, 0.0);
    kfac_.assign(total, 0.0);
    akfac_.assign(total, 0.0);
    alpha_.assign(total, 0.0);
    alpha_m1_.assign(total, 0.0);
    half_alpha_.assign(total, 0.0);
    half_alpha_m1_.assign(total, 0.0);
    vdsat_coeff_.assign(total, 0.0);
    dvdsat_coeff_.assign(total, 0.0);
    lambda_.assign(total, 0.0);
    smoothing_.assign(total, 0.0);

    for (std::size_t b = 0; b < n_blocks_; ++b) {
        const double temp_k = temps_k[b];
        const std::size_t base = b * stride_;
        for (std::size_t i = 0; i < n_lanes_; ++i) {
            const phys::MosfetParams& p = mosfets[i].params;
            const phys::MosGeometry& g = mosfets[i].geometry;
            check_device(p, g, temp_k);
            // Exactly the temperature/geometry factors phys::evaluate
            // computes, in its association, so the folded constants are
            // the same doubles it would produce internally.
            const double vth = p.vth0 - p.vth_tc * (temp_k - p.t0);
            const double mu = std::pow(temp_k / p.t0, -p.mobility_exp);
            const double k = p.kp * (g.w / g.l) * mu;
            vth_[base + i] = vth;
            kfac_[base + i] = k;
            akfac_[base + i] = p.alpha * k;
            alpha_[base + i] = p.alpha;
            alpha_m1_[base + i] = p.alpha - 1.0;
            half_alpha_[base + i] = 0.5 * p.alpha;
            half_alpha_m1_[base + i] = 0.5 * p.alpha - 1.0;
            vdsat_coeff_[base + i] = p.vdsat_coeff;
            dvdsat_coeff_[base + i] = 0.5 * p.alpha * p.vdsat_coeff;
            lambda_[base + i] = p.lambda;
            smoothing_[base + i] = p.smoothing;
        }
    }
}

void DeviceBatch::build_scatter(std::span<const int> unknown_index,
                                std::size_t n_unknowns) {
    n_unknowns_ = n_unknowns;
    res_p_.resize(stride_);
    res_m_.resize(stride_);
    jac_pp_.resize(stride_);
    jac_pg_.resize(stride_);
    jac_pm_.resize(stride_);
    jac_mm_.resize(stride_);
    jac_mg_.resize(stride_);
    jac_mp_.resize(stride_);

    const auto n = static_cast<std::uint32_t>(n_unknowns);
    const std::uint32_t res_trash = n;
    const std::uint32_t jac_trash = n * n;
    const auto slot = [&](std::uint32_t node) {
        return unknown_index[node]; // < 0 when the node is eliminated.
    };
    const auto res_off = [&](std::uint32_t node) {
        const int s = slot(node);
        return s < 0 ? res_trash : static_cast<std::uint32_t>(s);
    };
    const auto jac_off = [&](std::uint32_t row, std::uint32_t col) {
        const int r = slot(row);
        const int c = slot(col);
        if (r < 0 || c < 0) return jac_trash;
        return static_cast<std::uint32_t>(r) * n + static_cast<std::uint32_t>(c);
    };

    const auto fill = [&](std::size_t i, std::uint32_t p, std::uint32_t g,
                          std::uint32_t m) {
        res_p_[i] = res_off(p);
        res_m_[i] = res_off(m);
        jac_pp_[i] = jac_off(p, p);
        jac_pg_[i] = jac_off(p, g);
        jac_pm_[i] = jac_off(p, m);
        jac_mm_[i] = jac_off(m, m);
        jac_mg_[i] = jac_off(m, g);
        jac_mp_[i] = jac_off(m, p);
    };
    for (std::size_t i = 0; i < n_lanes_; ++i) {
        const std::uint32_t gate = is_pmos_[i] ? vg_b_[i] : vg_a_[i];
        fill(i, node_p_[i], gate, node_m_[i]);
    }
    for (std::size_t i = n_lanes_; i < stride_; ++i) fill(i, 0, 0, 0);
    has_scatter_ = true;
}

void DeviceBatch::gather(std::size_t block, const std::vector<double>& volts) {
    const std::size_t base = block * stride_;
    const double* v = volts.data();
    for (std::size_t i = 0; i < n_lanes_; ++i) {
        vgs_[base + i] = v[vg_a_[i]] - v[vg_b_[i]];
        vds_[base + i] = v[vd_a_[i]] - v[vd_b_[i]];
    }
}

detail::BatchLanes DeviceBatch::lanes_view(std::size_t block) {
    const std::size_t base = block * stride_;
    detail::BatchLanes L;
    L.n = n_lanes_;
    L.vgs = vgs_.data() + base;
    L.vds = vds_.data() + base;
    L.out_id = out_id_.data() + base;
    L.out_gm = out_gm_.data() + base;
    L.out_gds = out_gds_.data() + base;
    L.cache_valid = cache_valid_.data() + base;
    L.cache_vgs = cache_vgs_.data() + base;
    L.cache_vds = cache_vds_.data() + base;
    L.cache_id = cache_id_.data() + base;
    L.cache_gm = cache_gm_.data() + base;
    L.cache_gds = cache_gds_.data() + base;
    L.vth = vth_.data() + base;
    L.kfac = kfac_.data() + base;
    L.akfac = akfac_.data() + base;
    L.alpha = alpha_.data() + base;
    L.alpha_m1 = alpha_m1_.data() + base;
    L.half_alpha = half_alpha_.data() + base;
    L.half_alpha_m1 = half_alpha_m1_.data() + base;
    L.vdsat_coeff = vdsat_coeff_.data() + base;
    L.dvdsat_coeff = dvdsat_coeff_.data() + base;
    L.lambda = lambda_.data() + base;
    L.smoothing = smoothing_.data() + base;
    return L;
}

void DeviceBatch::evaluate(std::size_t block, bool use_cache, double tol,
                           Stats& stats) {
    const detail::BatchLanes view = lanes_view(block);
    detail::BatchCounters counters;
    // The vector kernel earns its keep on the mask/restamp arithmetic;
    // a cacheless pass is all libm model evals, where it has nothing to
    // vectorize — route it scalar directly.
    if (level_ == util::SimdLevel::Avx2 && use_cache) {
        detail::eval_lanes_avx2(view, use_cache, tol, counters);
    } else {
        detail::eval_lanes_scalar(view, use_cache, tol, counters);
    }
    stats.bypass_hits += counters.bypass_hits;
    stats.device_evals += counters.device_evals;
    stats.simd_groups += counters.simd_groups;
    stats.batch_lanes += static_cast<long>(n_lanes_);
}

void DeviceBatch::invalidate_cache(std::size_t block) {
    const std::size_t base = block * stride_;
    std::fill(cache_valid_.begin() + static_cast<std::ptrdiff_t>(base),
              cache_valid_.begin() + static_cast<std::ptrdiff_t>(base + stride_),
              0.0);
}

void DeviceBatch::scatter_stamps(std::size_t block, bool want_jac, Matrix& jac,
                                 std::span<double> residual) const {
    const std::size_t base = block * stride_;
    const double* id = out_id_.data() + base;
    const double* gm = out_gm_.data() + base;
    const double* gds = out_gds_.data() + base;
    double* res = residual.data();
    double* jd = jac.flat();
    // Per lane, the current flows P -> M with the derivative triplet
    // (dP, dG, dM) wrt the (P, G, M) terminal voltages. The writes land
    // on exactly the cells, in exactly the order, of a per-device stamp
    // walk (trash-slot writes stand in for its driven-node branches),
    // so the assembled matrix is bitwise that walk's.
    for (std::size_t i = 0; i < n_lanes_; ++i) {
        double d_p, d_g, d_m;
        if (is_pmos_[i]) {
            d_p = gm[i] + gds[i];
            d_g = -gm[i];
            d_m = -gds[i];
        } else {
            d_p = gds[i];
            d_g = gm[i];
            d_m = -(gm[i] + gds[i]);
        }
        res[res_p_[i]] += id[i];
        if (want_jac) {
            jd[jac_pp_[i]] += d_p;
            jd[jac_pg_[i]] += d_g;
            jd[jac_pm_[i]] += d_m;
        }
        res[res_m_[i]] -= id[i];
        if (want_jac) {
            jd[jac_mm_[i]] -= d_m;
            jd[jac_mg_[i]] -= d_g;
            jd[jac_mp_[i]] -= d_p;
        }
    }
}

void DeviceBatch::accumulate_currents(std::size_t block,
                                      std::span<double> node_currents) const {
    const std::size_t base = block * stride_;
    const double* id = out_id_.data() + base;
    double* out = node_currents.data();
    for (std::size_t i = 0; i < n_lanes_; ++i) {
        out[node_p_[i]] += id[i];
        out[node_m_[i]] -= id[i];
    }
}

} // namespace stsense::spice
