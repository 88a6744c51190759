// phys::VariationStream — the lazy redesign of Monte-Carlo die
// sampling. The load-bearing contracts: at(i) is bitwise slot i of a
// whole-population next_n() fill (what the deleted materialize-all
// batch call returned), random access is pure in (base, i), next_n()
// is cursor sugar over at(), and the continuation Rng decouples
// downstream draws from the variation draws.
#include "phys/corners.hpp"

#include "phys/technology.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace stsense::phys {
namespace {

VariationSpec spec_all_on() {
    VariationSpec spec;
    spec.vth_sigma = 0.02;
    spec.kp_rel_sigma = 0.05;
    spec.vdd_rel_sigma = 0.01;
    return spec;
}

bool tech_equal(const Technology& a, const Technology& b) {
    return a.vdd == b.vdd && a.nmos.vth0 == b.nmos.vth0 &&
           a.pmos.vth0 == b.pmos.vth0 && a.nmos.kp == b.nmos.kp &&
           a.pmos.kp == b.pmos.kp;
}

TEST(VariationStream, MatchesBatchShimBitwise) {
    const auto tech = cmos350();
    const auto spec = spec_all_on();
    const util::Rng base(42);
    constexpr std::size_t kDice = 64;

    std::vector<Technology> batch(kDice);
    VariationStream(tech, spec, base).next_n(batch, nullptr);
    const VariationStream stream(tech, spec, base);
    ASSERT_EQ(batch.size(), kDice);
    for (std::size_t i = 0; i < kDice; ++i) {
        EXPECT_TRUE(tech_equal(stream.at(i), batch[i])) << "die " << i;
    }
}

TEST(VariationStream, RandomAccessIsPure) {
    const VariationStream stream(cmos350(), spec_all_on(), util::Rng(7));
    const Technology first = stream.at(17);
    // Touching other dice (in any order) never perturbs die 17.
    (void)stream.at(3);
    (void)stream.at(1000000);
    (void)stream.at(0);
    EXPECT_TRUE(tech_equal(stream.at(17), first));
}

TEST(VariationStream, NextNEqualsRandomAccessAcrossChunks) {
    const auto tech = cmos350();
    const auto spec = spec_all_on();
    VariationStream stream(tech, spec, util::Rng(9));
    const VariationStream witness(tech, spec, util::Rng(9));

    std::vector<Technology> out(24);
    // Uneven chunking: 10 + 14, serial and parallel.
    stream.next_n(std::span(out.data(), 10), nullptr, /*parallel=*/false);
    stream.next_n(std::span(out.data() + 10, 14), nullptr, /*parallel=*/true);
    EXPECT_EQ(stream.cursor(), 24u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(tech_equal(out[i], witness.at(i))) << "die " << i;
    }
}

TEST(VariationStream, SeekRepositionsTheCursor) {
    VariationStream stream(cmos350(), spec_all_on(), util::Rng(13));
    const VariationStream witness(cmos350(), spec_all_on(), util::Rng(13));

    stream.seek(100);
    std::vector<Technology> out(4);
    stream.next_n(out, nullptr, /*parallel=*/false);
    EXPECT_EQ(stream.cursor(), 104u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(tech_equal(out[i], witness.at(100 + i))) << "die " << i;
    }
}

TEST(VariationStream, ContinuationDoesNotPerturbVariation) {
    const VariationStream stream(cmos350(), spec_all_on(), util::Rng(21));

    util::Rng cont_a;
    const Technology with_cont = stream.at(5, cont_a);
    const Technology without = stream.at(5);
    EXPECT_TRUE(tech_equal(with_cont, without));

    // The continuation is deterministic per die and independent across
    // dice: the same die yields the same next draw, a different die a
    // different substream.
    util::Rng cont_b;
    (void)stream.at(5, cont_b);
    EXPECT_EQ(cont_a.normal(), cont_b.normal());

    util::Rng cont_c;
    (void)stream.at(6, cont_c);
    util::Rng cont_d;
    (void)stream.at(5, cont_d);
    EXPECT_NE(cont_c.normal(), cont_d.normal());
}

TEST(VariationStream, ZeroSigmaStreamsTheNominalDevice) {
    const VariationStream stream(cmos350(), VariationSpec{0.0, 0.0, 0.0, false},
                                 util::Rng(1));
    EXPECT_TRUE(tech_equal(stream.at(0), cmos350()));
    EXPECT_TRUE(tech_equal(stream.at(999), cmos350()));
    EXPECT_EQ(stream.nominal().vdd, cmos350().vdd);
}

} // namespace
} // namespace stsense::phys
