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

#include "golden.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
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
    DeviceBatch batch(f.c, temps, util::SimdMode::ForceScalar);
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

/// A wider population (odd count: 4-lane groups + tail) under a voltage
/// schedule that mixes sub-tolerance wiggles (bypass restamps) with
/// real moves (model evaluations).
struct ChainFixture {
    phys::Technology tech = phys::cmos350();
    Circuit c;
    std::vector<NodeId> nodes;
    static constexpr std::size_t kDevices = 11;

    ChainFixture() {
        for (std::size_t i = 0; i <= kDevices; ++i) {
            nodes.push_back(c.add_node("n" + std::to_string(i)));
        }
        for (std::size_t i = 0; i < kDevices; ++i) {
            Mosfet m;
            m.drain = nodes[i + 1];
            m.gate = nodes[(i + 2) % (kDevices + 1)];
            m.source = i % 3 == 0 ? c.ground() : nodes[i];
            m.params = i % 2 == 0 ? tech.nmos : tech.pmos;
            m.geometry = {1e-6 + 1e-7 * static_cast<double>(i), tech.lmin};
            c.add_mosfet(m);
        }
    }

    std::vector<double> volts_at(int round) const {
        std::vector<double> v(c.node_count(), 0.0);
        for (std::size_t i = 0; i < c.node_count(); ++i) {
            const double base =
                0.3 * static_cast<double>((i * 7 + 3) % 11) - 0.9;
            // Rounds alternate big moves with sub-tolerance wiggles.
            const double wiggle = round % 2 == 0
                                      ? 0.11 * static_cast<double>(round)
                                      : 1e-5 * static_cast<double>(round);
            v[i] = base + wiggle;
        }
        return v;
    }
};

TEST(DeviceBatchSimd, ScalarAndAvx2KernelsBitwiseIdentical) {
    ChainFixture f;
    const double temps[] = {320.0};
    DeviceBatch scalar(f.c, temps, util::SimdMode::ForceScalar);
    DeviceBatch vec(f.c, temps, util::SimdMode::ForceAvx2);
    ASSERT_EQ(scalar.level(), util::SimdLevel::Scalar);
    if (vec.level() != util::SimdLevel::Avx2) {
        GTEST_SKIP() << "AVX2 unavailable (CPU or STSENSE_SIMD pin)";
    }

    DeviceBatch::Stats ss, vs;
    for (int round = 0; round < 8; ++round) {
        const auto volts = f.volts_at(round);
        scalar.gather(0, volts);
        vec.gather(0, volts);
        scalar.evaluate(0, /*use_cache=*/true, 5e-4, ss);
        vec.evaluate(0, /*use_cache=*/true, 5e-4, vs);
        const auto sid = scalar.out_id(0), vid = vec.out_id(0);
        const auto sgm = scalar.out_gm(0), vgm = vec.out_gm(0);
        const auto sgds = scalar.out_gds(0), vgds = vec.out_gds(0);
        for (std::size_t lane = 0; lane < scalar.lanes(); ++lane) {
            EXPECT_TRUE(bits_equal(sid[lane], vid[lane]))
                << "round " << round << " lane " << lane;
            EXPECT_TRUE(bits_equal(sgm[lane], vgm[lane]))
                << "round " << round << " lane " << lane;
            EXPECT_TRUE(bits_equal(sgds[lane], vgds[lane]))
                << "round " << round << " lane " << lane;
        }
    }
    // Same bypass decisions on both paths; the vector path additionally
    // reports its 4-lane groups.
    EXPECT_EQ(ss.bypass_hits, vs.bypass_hits);
    EXPECT_EQ(ss.device_evals, vs.device_evals);
    EXPECT_GT(ss.bypass_hits, 0);
    EXPECT_GT(ss.device_evals, 0);
    EXPECT_EQ(ss.simd_groups, 0);
    EXPECT_GT(vs.simd_groups, 0);
}

// --- DeviceBatchGolden -----------------------------------------------------
//
// Every solve assembles its device stamps through the batch: DC, the
// recovery-ladder rungs, and default-kernel and bypass-only transients.
// The digests below were captured from the per-device assembly walk
// that the batch replaced, so each test pins that the batch reproduces
// those solves bit for bit. Tier 1 runs this suite under both lane
// dispatches (the probed level and STSENSE_SIMD=scalar).

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
