// spice::DeviceBatch — the SoA population evaluator's contract: every
// lane is bitwise-identical to phys::evaluate, the scalar and AVX2
// kernels are bitwise-identical to each other, and the solves that run
// through the batch reproduce, bit for bit, the per-device assembly
// walk it replaced (including stamps addressed at driven nodes, which
// land in the trash slots).
#include "spice/device_batch.hpp"

#include "exec/fault_injector.hpp"
#include "phys/mosfet.hpp"
#include "phys/technology.hpp"
#include "ring/spice_ring.hpp"
#include "spice/simulator.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

#include "golden.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace stsense::spice {
namespace {

bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Operating points covering every region and edge of the alpha-power
/// model: deep cutoff, denormal and near-zero drives, the softplus
/// blend around threshold, triode/saturation both sides of Vdsat, and
/// negative vds (the source/drain swap branch).
std::vector<double> probe_voltages(double vth) {
    return {-1.2,        -1e-9,      0.0,         5e-324,     1e-310,
            1e-12,       0.05,       vth - 1e-9,  vth,        vth + 1e-9,
            vth + 0.02,  0.45,       0.9,         1.8,        3.3};
}

/// One NMOS and one PMOS on free nodes so the gather sees arbitrary
/// terminal voltages.
struct PairFixture {
    phys::Technology tech = phys::cmos350();
    Circuit c;
    NodeId nd, ng, ns; ///< NMOS terminals.
    NodeId pd, pg, ps; ///< PMOS terminals.
    phys::MosGeometry ngeom{1e-6, 0.35e-6};
    phys::MosGeometry pgeom{2e-6, 0.35e-6};

    PairFixture() {
        nd = c.add_node("nd");
        ng = c.add_node("ng");
        ns = c.add_node("ns");
        pd = c.add_node("pd");
        pg = c.add_node("pg");
        ps = c.add_node("ps");
        Mosfet mn;
        mn.drain = nd;
        mn.gate = ng;
        mn.source = ns;
        mn.params = tech.nmos;
        mn.geometry = ngeom;
        c.add_mosfet(mn);
        Mosfet mp;
        mp.drain = pd;
        mp.gate = pg;
        mp.source = ps;
        mp.params = tech.pmos;
        mp.geometry = pgeom;
        c.add_mosfet(mp);
    }
};

void expect_lane_matches_phys(double temp_k) {
    PairFixture f;
    const double temps[] = {temp_k};
    DeviceBatch batch(f.c, temps);
    ASSERT_EQ(batch.lanes(), 2u);

    std::vector<double> volts(f.c.node_count(), 0.0);
    const double vsup = 3.3;
    volts[f.ps.index] = vsup; // PMOS source rail.

    const double nvth = phys::threshold_voltage(f.tech.nmos, temp_k);
    const double pvth = phys::threshold_voltage(f.tech.pmos, temp_k);
    DeviceBatch::Stats stats;
    for (double vgs : probe_voltages(nvth)) {
        for (double vds : probe_voltages(pvth)) {
            // NMOS convention: magnitudes against a grounded source.
            volts[f.ng.index] = vgs;
            volts[f.nd.index] = vds;
            // PMOS convention: magnitudes below the source rail.
            volts[f.pg.index] = vsup - vgs;
            volts[f.pd.index] = vsup - vds;
            batch.gather(0, volts);
            batch.evaluate(0, /*use_cache=*/false, 0.0, stats);

            const auto ne =
                phys::evaluate(f.tech.nmos, f.ngeom, vgs, vds, temp_k);
            // The PMOS magnitudes are what the gather arithmetic
            // produces (vsup - (vsup - v) does not round-trip exactly
            // for every v), so compute the reference at the same point.
            const double pvgs = volts[f.ps.index] - volts[f.pg.index];
            const double pvds = volts[f.ps.index] - volts[f.pd.index];
            const auto pe =
                phys::evaluate(f.tech.pmos, f.pgeom, pvgs, pvds, temp_k);
            const auto id = batch.out_id(0);
            const auto gm = batch.out_gm(0);
            const auto gds = batch.out_gds(0);
            EXPECT_TRUE(bits_equal(id[0], ne.id))
                << "nmos id @ vgs=" << vgs << " vds=" << vds;
            EXPECT_TRUE(bits_equal(gm[0], ne.gm))
                << "nmos gm @ vgs=" << vgs << " vds=" << vds;
            EXPECT_TRUE(bits_equal(gds[0], ne.gds))
                << "nmos gds @ vgs=" << vgs << " vds=" << vds;
            EXPECT_TRUE(bits_equal(id[1], pe.id))
                << "pmos id @ vgs=" << vgs << " vds=" << vds;
            EXPECT_TRUE(bits_equal(gm[1], pe.gm))
                << "pmos gm @ vgs=" << vgs << " vds=" << vds;
            EXPECT_TRUE(bits_equal(gds[1], pe.gds))
                << "pmos gds @ vgs=" << vgs << " vds=" << vds;
        }
    }
    EXPECT_EQ(stats.bypass_hits, 0);
    EXPECT_GT(stats.device_evals, 0);
}

TEST(DeviceBatchLane, BitwiseMatchesPhysEvaluateAtReferenceTemp) {
    expect_lane_matches_phys(300.0);
}

TEST(DeviceBatchLane, BitwiseMatchesPhysEvaluateOffReferenceTemp) {
    // Off t0 the prefolded per-lane constants (vth(T), mobility-scaled
    // k) must still reproduce evaluate()'s own association bit for bit.
    expect_lane_matches_phys(386.5);
}

/// One block's SoA lanes, laid out and folded the way DeviceBatch lays
/// out a block, in plain vectors the test can copy and inspect: the
/// lane kernels run on raw detail::BatchLanes views of it.
struct LaneStore {
    std::size_t n = 0;
    // Inputs, outputs and bypass caches.
    std::vector<double> vgs, vds, out_id, out_gm, out_gds;
    std::vector<double> cache_valid, cache_vgs, cache_vds;
    std::vector<double> cache_id, cache_gm, cache_gds;
    // Per-lane model constants.
    std::vector<double> vth, kfac, akfac, alpha, alpha_m1, half_alpha;
    std::vector<double> half_alpha_m1, vdsat_coeff, dvdsat_coeff, lambda;
    std::vector<double> smoothing;

    /// n lanes alternating NMOS/PMOS cards of growing width at temp_k.
    LaneStore(std::size_t lanes, double temp_k) : n(lanes) {
        for (auto* v : {&vgs, &vds, &out_id, &out_gm, &out_gds, &cache_valid,
                        &cache_vgs, &cache_vds, &cache_id, &cache_gm, &cache_gds}) {
            v->assign(n, 0.0);
        }
        const phys::Technology tech = phys::cmos350();
        for (std::size_t i = 0; i < n; ++i) {
            const phys::MosfetParams& p = i % 2 == 0 ? tech.nmos : tech.pmos;
            const double w = 1e-6 + 2e-7 * static_cast<double>(i);
            const double k = p.kp * (w / tech.lmin) *
                             std::pow(temp_k / p.t0, -p.mobility_exp);
            vth.push_back(p.vth0 - p.vth_tc * (temp_k - p.t0));
            kfac.push_back(k);
            akfac.push_back(p.alpha * k);
            alpha.push_back(p.alpha);
            alpha_m1.push_back(p.alpha - 1.0);
            half_alpha.push_back(0.5 * p.alpha);
            half_alpha_m1.push_back(0.5 * p.alpha - 1.0);
            vdsat_coeff.push_back(p.vdsat_coeff);
            dvdsat_coeff.push_back(0.5 * p.alpha * p.vdsat_coeff);
            lambda.push_back(p.lambda);
            smoothing.push_back(p.smoothing);
        }
    }

    detail::BatchLanes view() {
        detail::BatchLanes L;
        L.n = n;
        L.vgs = vgs.data();
        L.vds = vds.data();
        L.out_id = out_id.data();
        L.out_gm = out_gm.data();
        L.out_gds = out_gds.data();
        L.cache_valid = cache_valid.data();
        L.cache_vgs = cache_vgs.data();
        L.cache_vds = cache_vds.data();
        L.cache_id = cache_id.data();
        L.cache_gm = cache_gm.data();
        L.cache_gds = cache_gds.data();
        L.vth = vth.data();
        L.kfac = kfac.data();
        L.akfac = akfac.data();
        L.alpha = alpha.data();
        L.alpha_m1 = alpha_m1.data();
        L.half_alpha = half_alpha.data();
        L.half_alpha_m1 = half_alpha_m1.data();
        L.vdsat_coeff = vdsat_coeff.data();
        L.dvdsat_coeff = dvdsat_coeff.data();
        L.lambda = lambda.data();
        L.smoothing = smoothing.data();
        return L;
    }
};

bool all_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The dyadic tolerance the exact-boundary draws aim at.
constexpr double kDyadicTol = 0x1p-11;

/// One terminal voltage for the next round: a real move, a
/// sub-tolerance wiggle, a delta of exactly +-kDyadicTol, or NaN. Every
/// finite voltage sits on a 2^-16 V grid, so `cached +- kDyadicTol` and
/// its difference back are exact.
double next_voltage(util::Rng& rng, double cached) {
    const double grid = 0x1p-16;
    switch (rng.below(4)) {
        case 0: // Real move anywhere on [-0.5, 3.5): mostly past tol.
            return std::floor(rng.uniform(-0.5, 3.5) / grid) * grid;
        case 1: // Wiggle strictly inside the tolerance.
            return std::isfinite(cached)
                       ? cached + grid * static_cast<double>(
                                             static_cast<int>(rng.below(31)) - 15)
                       : cached;
        case 2: // Exactly at the dyadic tolerance, either side.
            return rng.below(2) == 0 ? cached + kDyadicTol : cached - kDyadicTol;
        default: // NaN on one in eight draws of this branch.
            return rng.below(8) == 0 ? std::numeric_limits<double>::quiet_NaN()
                                     : cached;
    }
}

TEST(DeviceBatchSimd, ScalarAndAvx2KernelsBitwiseIdentical) {
    // Both kernels called directly on two copies of the same lanes, so
    // the check needs no dispatch pin: it skips only on a CPU without
    // AVX2. Lane counts 1..9 cover every tail length after a 4-lane
    // group; the seeded rounds mix real moves, sub-tolerance wiggles,
    // deltas exactly at the tolerance and NaN voltages (the vector mask
    // must be NaN-false like the scalar compares), with cacheless
    // passes in between.
    if (!util::simd_caps().avx2) GTEST_SKIP() << "CPU lacks AVX2";

    util::Rng rng(20260917);
    long hits = 0;
    long groups = 0;
    for (std::size_t n = 1; n <= 9; ++n) {
        SCOPED_TRACE("lanes " + std::to_string(n));
        LaneStore scalar(n, 320.0);
        LaneStore vec = scalar;
        for (int round = 0; round < 24; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const double tol = round % 3 == 0 ? 5e-4 : kDyadicTol;
            const bool use_cache = round % 5 != 4;
            for (std::size_t i = 0; i < n; ++i) {
                scalar.vgs[i] = next_voltage(rng, scalar.cache_vgs[i]);
                scalar.vds[i] = next_voltage(rng, scalar.cache_vds[i]);
            }
            vec.vgs = scalar.vgs;
            vec.vds = scalar.vds;

            detail::BatchCounters sc, vc;
            detail::eval_lanes_scalar(scalar.view(), use_cache, tol, sc);
            detail::eval_lanes_avx2(vec.view(), use_cache, tol, vc);

            EXPECT_EQ(sc.bypass_hits, vc.bypass_hits);
            EXPECT_EQ(sc.device_evals, vc.device_evals);
            EXPECT_EQ(sc.simd_groups, 0);
            EXPECT_EQ(vc.simd_groups, use_cache ? static_cast<long>(n / 4) : 0);
            EXPECT_TRUE(all_bits_equal(scalar.out_id, vec.out_id));
            EXPECT_TRUE(all_bits_equal(scalar.out_gm, vec.out_gm));
            EXPECT_TRUE(all_bits_equal(scalar.out_gds, vec.out_gds));
            EXPECT_TRUE(all_bits_equal(scalar.cache_valid, vec.cache_valid));
            EXPECT_TRUE(all_bits_equal(scalar.cache_vgs, vec.cache_vgs));
            EXPECT_TRUE(all_bits_equal(scalar.cache_vds, vec.cache_vds));
            EXPECT_TRUE(all_bits_equal(scalar.cache_id, vec.cache_id));
            EXPECT_TRUE(all_bits_equal(scalar.cache_gm, vec.cache_gm));
            EXPECT_TRUE(all_bits_equal(scalar.cache_gds, vec.cache_gds));
            hits += sc.bypass_hits;
            groups += vc.simd_groups;
        }
    }
    // The schedule exercised both mask outcomes and the vector path.
    EXPECT_GT(hits, 0);
    EXPECT_GT(groups, 0);
}

// --- DeviceBatchGolden -----------------------------------------------------
//
// Every solve assembles its device stamps through the batch: DC, the
// recovery-ladder rungs, and default-kernel and bypass-only transients.
// The digests below were captured from the per-device assembly walk
// that the batch replaced, so each test pins that the batch reproduces
// those solves bit for bit. They run on the lane kernel the CPU probe
// picks; DeviceBatchSimd holds the two kernels to each other.

using golden::digest;

std::string hex_bits(double v) { return digest({v}); }

/// CMOS inverter with driven rails and a pulsed input: the batched
/// scatter must route the rail-addressed stamps into the trash slots.
struct InverterFixture {
    phys::Technology tech = phys::cmos350();
    Circuit c;
    NodeId in, out;

    InverterFixture() {
        const NodeId vdd = c.add_driven_node("vdd", Source::dc(tech.vdd));
        in = c.add_driven_node(
            "in", Source::pulse(0.0, tech.vdd, 1e-9, 2e-9, 4e-9, 0.2e-9));
        out = c.add_node("out");
        Mosfet mn;
        mn.drain = out;
        mn.gate = in;
        mn.source = c.ground();
        mn.params = tech.nmos;
        mn.geometry = {1e-6, tech.lmin};
        c.add_mosfet(mn);
        Mosfet mp;
        mp.drain = out;
        mp.gate = in;
        mp.source = vdd;
        mp.params = tech.pmos;
        mp.geometry = {2e-6, tech.lmin};
        c.add_mosfet(mp);
        c.add_capacitor(out, c.ground(), 50e-15);
    }

    TransientSpec spec() const {
        TransientSpec s;
        s.t_stop = 12e-9;
        s.dt = 10e-12;
        s.start_from_dc = true;
        return s;
    }
};

struct DcGolden {
    const char* name;
    RecoveryRung rung;
    const char* volts;
};

std::string dc_digest(const Circuit& c, SimOptions opt, RecoveryRung& rung) {
    Simulator sim(c, opt);
    const auto r = sim.try_dc_operating_point();
    EXPECT_TRUE(r.ok()) << r.error().to_string();
    rung = sim.last_dc_rung();
    return r.ok() ? digest(r.value()) : "";
}

TEST(DeviceBatchGolden, DcOperatingPointsFromAFlatStart) {
    const auto tech = phys::cmos350();
    const std::vector<std::pair<std::string, ring::RingConfig>> rings = {
        {"5xINV", ring::RingConfig::uniform(cells::CellKind::Inv, 5)},
        {"2xINV + 3xNAND2",
         ring::RingConfig::mix({{cells::CellKind::Inv, 2}, {cells::CellKind::Nand2, 3}})},
        {"2xINV + 3xNOR2",
         ring::RingConfig::mix({{cells::CellKind::Inv, 2}, {cells::CellKind::Nor2, 3}})},
    };
    const DcGolden want[] = {
        {"inverter", RecoveryRung::None, "3d9e9e3fddd53b0e"},
        {"5xINV", RecoveryRung::None, "8d1b9c2fcc893e01"},
        {"2xINV + 3xNAND2", RecoveryRung::None, "af6fcacbc6bb111b"},
        {"2xINV + 3xNOR2", RecoveryRung::None, "d920320dfd97c24f"},
        {"5xINV @ 398.15 K", RecoveryRung::None, "2c0ad69a2d349672"},
    };

    std::vector<std::pair<std::string, Circuit>> circuits;
    circuits.reserve(std::size(want)); // The last entry copies circuits[1].
    circuits.emplace_back("inverter", InverterFixture().c);
    for (const auto& [name, cfg] : rings) {
        Circuit c;
        ring::SpiceRingModel(tech, cfg).build(c);
        circuits.emplace_back(name, std::move(c));
    }
    circuits.emplace_back("5xINV @ 398.15 K", circuits[1].second);

    ASSERT_EQ(circuits.size(), std::size(want));
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        SCOPED_TRACE(circuits[i].first);
        SimOptions opt;
        if (i + 1 == circuits.size()) opt.temp_k = 398.15;
        RecoveryRung rung = RecoveryRung::None;
        EXPECT_EQ(dc_digest(circuits[i].second, opt, rung), want[i].volts);
        EXPECT_EQ(rung, want[i].rung);
    }
}

struct TransientGolden {
    const char* trace;
    long newton_iters;
    long device_evals;
    long bypass_hits;
};

void expect_transient(const TransientResult& r, const TransientGolden& want) {
    EXPECT_EQ(digest(r.trace("out").value), want.trace);
    EXPECT_EQ(r.total_newton_iters, want.newton_iters);
    EXPECT_EQ(r.device_evals, want.device_evals);
    EXPECT_EQ(r.bypass_hits, want.bypass_hits);
}

TEST(DeviceBatchGolden, DefaultKernelTransient) {
    const InverterFixture f;
    Simulator sim(f.c);
    const auto r = sim.transient(f.spec());
    expect_transient(r, {"c6b4b155ae50a0dd", 2036, 4072, 0});
    EXPECT_GT(r.batch_lanes, 0);
}

TEST(DeviceBatchGolden, BypassOnlyTransient) {
    const InverterFixture f;
    SimOptions opt;
    opt.kernel.bypass_tol_v = 5e-4;
    Simulator sim(f.c, opt);
    expect_transient(sim.transient(f.spec()), {"ade6d08fc9d6e1d0", 2036, 1074, 2998});
}

TEST(DeviceBatchGolden, MeteredTransientSupplyEnergy) {
    const InverterFixture f;
    TransientSpec spec = f.spec();
    spec.measure_power = true;
    Simulator sim(f.c);
    const auto r = sim.transient(spec);
    ASSERT_FALSE(r.source_energy_j.empty());
    EXPECT_EQ(hex_bits(r.source_energy_j[f.c.node_by_name("vdd").index]),
              "df03dd820771604b");
    EXPECT_EQ(digest(r.trace("out").value), "c6b4b155ae50a0dd");
}

exec::FaultInjector::Config newton_fail(double p, int rungs) {
    exec::FaultInjector::Config cfg;
    cfg.seed = 3;
    cfg.p_newton_fail = p;
    cfg.newton_fail_rungs = rungs;
    return cfg;
}

TEST(DeviceBatchGolden, RecoveryLadderDcRescues) {
    // The inverter at mid-rail input (both devices saturated), with the
    // shallower rungs sabotaged so the damped, gmin and source rungs
    // each produce the answer.
    const auto tech = phys::cmos350();
    Circuit c;
    const NodeId vdd = c.add_driven_node("vdd", Source::dc(tech.vdd));
    const NodeId in = c.add_driven_node("in", Source::dc(0.5 * tech.vdd));
    const NodeId out = c.add_node("out");
    c.add_mosfet({out, in, c.ground(), tech.nmos, {1e-6, tech.lmin}});
    c.add_mosfet({out, in, vdd, tech.pmos, {2e-6, tech.lmin}});

    const DcGolden want[] = {
        {"damped", RecoveryRung::DampedNewton, "276e01c8aa771453"},
        {"gmin", RecoveryRung::GminStepping, "7d6756f6ed52e05e"},
        {"source", RecoveryRung::SourceStepping, "276e01c8aa771453"},
    };
    for (int rungs = 1; rungs <= 3; ++rungs) {
        SCOPED_TRACE(want[rungs - 1].name);
        exec::FaultInjector inj(newton_fail(1.0, rungs));
        exec::FaultInjector::Scope scope(inj);
        RecoveryRung rung = RecoveryRung::None;
        EXPECT_EQ(dc_digest(c, SimOptions{}, rung), want[rungs - 1].volts);
        EXPECT_EQ(rung, want[rungs - 1].rung);
    }
}

TEST(DeviceBatchGolden, RecoveryLadderTransientRescues) {
    // A fifth of the inverter's steps sabotaged: one rung deep the
    // damped rung rescues them, two deep the gmin rung does.
    const InverterFixture f;
    const struct {
        RecoveryRung rung;
        TransientGolden run;
        long rescued;
    } want[] = {
        {RecoveryRung::DampedNewton, {"a83dd7c6be8aad26", 2084, 4168, 0}, 241},
        {RecoveryRung::GminStepping, {"4c2ba9f80acc1185", 5182, 10364, 0}, 241},
    };
    for (int rungs = 1; rungs <= 2; ++rungs) {
        SCOPED_TRACE("rungs " + std::to_string(rungs));
        exec::FaultInjector inj(newton_fail(0.2, rungs));
        exec::FaultInjector::Scope scope(inj);
        Simulator sim(f.c);
        const auto r = sim.try_transient(f.spec());
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        EXPECT_EQ(r.value().deepest_rung, want[rungs - 1].rung);
        EXPECT_EQ(r.value().rescued_steps, want[rungs - 1].rescued);
        expect_transient(r.value(), want[rungs - 1].run);
    }
}

TEST(DeviceBatchGolden, RecoveryLadderTransientRescuesUnderTheFastKernel) {
    // Ladder rungs solve one-shot and keep no factorization: were the
    // next base attempt to reuse a rung's LU, these bits would move.
    const InverterFixture f;
    exec::FaultInjector inj(newton_fail(0.2, 1));
    exec::FaultInjector::Scope scope(inj);
    SimOptions opt;
    opt.kernel = TransientOptions::fast();
    Simulator sim(f.c, opt);
    const auto r = sim.try_transient(f.spec());
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(r.value().deepest_rung, RecoveryRung::DampedNewton);
    EXPECT_EQ(r.value().rescued_steps, 241);
    expect_transient(r.value(), {"7ca16aab33929fe8", 2226, 1870, 2582});
    EXPECT_EQ(r.value().lu_reuses, 1382);
}

} // namespace
} // namespace stsense::spice
