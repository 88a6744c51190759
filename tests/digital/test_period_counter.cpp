#include "digital/period_counter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace stsense::digital {
namespace {

GateConfig osc_window(std::uint32_t m = 1024, double fref = 100e6) {
    GateConfig g;
    g.scheme = GatingScheme::OscWindow;
    g.osc_cycles = m;
    g.ref_freq_hz = fref;
    return g;
}

GateConfig ref_window(std::uint32_t n = 4096, double fref = 100e6) {
    GateConfig g;
    g.scheme = GatingScheme::RefWindow;
    g.ref_cycles = n;
    g.ref_freq_hz = fref;
    return g;
}

TEST(GateConfig, Validation) {
    EXPECT_NO_THROW(validate(osc_window()));
    GateConfig bad = osc_window();
    bad.ref_freq_hz = 0.0;
    EXPECT_THROW(validate(bad), std::invalid_argument);
    bad = osc_window(0);
    EXPECT_THROW(validate(bad), std::invalid_argument);
    bad = ref_window(0);
    EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(IdealCode, OscWindowProportionalToPeriod) {
    const GateConfig g = osc_window(1000, 100e6); // t_ref = 10 ns.
    EXPECT_NEAR(ideal_code(g, 300e-12), 1000 * 300e-12 / 10e-9, 1e-9);
    // Doubling the period doubles the code.
    EXPECT_NEAR(ideal_code(g, 600e-12) / ideal_code(g, 300e-12), 2.0, 1e-12);
}

TEST(IdealCode, RefWindowInverseInPeriod) {
    const GateConfig g = ref_window(100, 100e6); // Window = 1 us.
    EXPECT_NEAR(ideal_code(g, 1e-9), 1000.0, 1e-9);
    EXPECT_NEAR(ideal_code(g, 2e-9), 500.0, 1e-9);
}

TEST(IdealCode, NonPositivePeriodThrows) {
    EXPECT_THROW(ideal_code(osc_window(), 0.0), std::invalid_argument);
}

TEST(IdealCode, NonFinitePeriodThrows) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const GateConfig& g : {osc_window(), ref_window()}) {
        for (double period : {nan, inf, -inf}) {
            EXPECT_THROW(ideal_code(g, period), std::invalid_argument) << period;
            EXPECT_THROW(quantized_code(g, period), std::invalid_argument) << period;
            EXPECT_THROW(measurement_time(g, period), std::invalid_argument)
                << period;
        }
    }
    // The default gate, as a NaN period from a broken ring reaches it.
    EXPECT_THROW(quantized_code(GateConfig{}, nan), std::invalid_argument);
}

TEST(GateConfig, NonFiniteReferenceFrequencyRejected) {
    for (double f : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
        GateConfig g = osc_window();
        g.ref_freq_hz = f;
        EXPECT_THROW(validate(g), std::invalid_argument) << f;
        EXPECT_THROW(quantized_code(g, 1e-9), std::invalid_argument) << f;
    }
}

TEST(QuantizedCode, NanPhaseThrows) {
    EXPECT_THROW(quantized_code(osc_window(), 1e-9,
                                std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(quantized_code(osc_window(), 1e-9,
                                std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(QuantizedCode, FloorsIdealCode) {
    const GateConfig g = osc_window(1000, 100e6);
    // Ideal code = 1000 * 305 ps / 10 ns = 30.5 -> 30.
    EXPECT_EQ(quantized_code(g, 305e-12), 30u);
}

TEST(QuantizedCode, PhaseCanBumpOneCount) {
    const GateConfig g = osc_window(1000, 100e6);
    EXPECT_EQ(quantized_code(g, 305e-12, 0.0), 30u);
    EXPECT_EQ(quantized_code(g, 305e-12, 0.9), 31u);
}

TEST(QuantizedCode, BadPhaseThrows) {
    EXPECT_THROW(quantized_code(osc_window(), 1e-9, 1.0), std::invalid_argument);
    EXPECT_THROW(quantized_code(osc_window(), 1e-9, -0.1), std::invalid_argument);
}

TEST(MeasurementTime, SchemesDiffer) {
    // RefWindow is fixed-duration; OscWindow scales with the period.
    const GateConfig rw = ref_window(1000, 100e6);
    EXPECT_DOUBLE_EQ(measurement_time(rw, 1e-9), 1000 / 100e6);
    EXPECT_DOUBLE_EQ(measurement_time(rw, 5e-9), 1000 / 100e6);

    const GateConfig ow = osc_window(1000, 100e6);
    EXPECT_DOUBLE_EQ(measurement_time(ow, 1e-9), 1000 * 1e-9);
    EXPECT_DOUBLE_EQ(measurement_time(ow, 5e-9), 1000 * 5e-9);
}

TEST(LsbTemperature, ImprovesWithLongerGate) {
    const double period = 300e-12;
    const double sens = 1.2e-12; // s per degC.
    const double lsb_short = lsb_temperature_c(osc_window(1u << 10), period, sens);
    const double lsb_long = lsb_temperature_c(osc_window(1u << 17), period, sens);
    EXPECT_LT(lsb_long, lsb_short);
    EXPECT_NEAR(lsb_short / lsb_long, 128.0, 1e-6);
}

TEST(LsbTemperature, DefaultSensorGateSubTenthDegree) {
    // The library's default gate should resolve < 0.1 degC for the
    // paper ring's sensitivity.
    const double lsb = lsb_temperature_c(osc_window(1u << 17), 275e-12, 1.2e-12);
    EXPECT_LT(lsb, 0.1);
    EXPECT_GT(lsb, 0.001);
}

TEST(LsbTemperature, RefWindowMatchesHandComputation) {
    // Regression: the ref_cycles term must be negated as a double —
    // unsigned negation wrapped it to ~4.29e9 and produced an LSB a
    // million times too small.
    const GateConfig g = ref_window(4096, 100e6);
    const double period = 2.82e-10;
    const double sens = 9.66e-13;
    const double dcode =
        4096.0 * 1e-8 / (period * period); // |dcode/dperiod|.
    EXPECT_NEAR(lsb_temperature_c(g, period, sens), 1.0 / (dcode * sens), 1e-9);
    EXPECT_NEAR(lsb_temperature_c(g, period, sens), 0.00201, 1e-4);
}

TEST(LsbTemperature, RefWindowConsistentWithCodeDelta) {
    // The LSB must agree with the actual code movement per degree.
    const GateConfig g = ref_window(1u << 14, 100e6);
    const double p27 = 275e-12;
    const double sens = 0.95e-12;
    const double p28 = p27 + sens;
    const double dcode = std::abs(ideal_code(g, p28) - ideal_code(g, p27));
    EXPECT_NEAR(lsb_temperature_c(g, p27, sens), 1.0 / dcode,
                0.02 / dcode);
}

TEST(LsbTemperature, ZeroSensitivityThrows) {
    EXPECT_THROW(lsb_temperature_c(osc_window(), 1e-9, 0.0), std::invalid_argument);
}

TEST(Divider, RatioAndValidation) {
    GateConfig g = osc_window();
    EXPECT_DOUBLE_EQ(divider_ratio(g), 1.0);
    g.divider_log2 = 4;
    EXPECT_DOUBLE_EQ(divider_ratio(g), 16.0);
    g.divider_log2 = -1;
    EXPECT_THROW(validate(g), std::invalid_argument);
    g.divider_log2 = 17;
    EXPECT_THROW(validate(g), std::invalid_argument);
}

TEST(Divider, OscWindowGateCountsDividedCycles) {
    // Dividing by 2^k stretches the physical window 2^k-fold at the same
    // osc_cycles setting: code and measurement time scale by 2^k, and
    // the temperature LSB improves by the same factor.
    GateConfig base = osc_window(1000, 100e6);
    GateConfig divided = base;
    divided.divider_log2 = 3;
    const double period = 300e-12;
    EXPECT_NEAR(ideal_code(divided, period) / ideal_code(base, period), 8.0, 1e-9);
    EXPECT_NEAR(measurement_time(divided, period) / measurement_time(base, period),
                8.0, 1e-9);
    EXPECT_NEAR(lsb_temperature_c(base, period, 1.2e-12) /
                    lsb_temperature_c(divided, period, 1.2e-12),
                8.0, 1e-9);
}

TEST(Divider, RefWindowLosesResolution) {
    // RefWindow counts divided edges in a fixed window: 2^k fewer counts,
    // 2^k coarser LSB.
    GateConfig base = ref_window(4096, 100e6);
    GateConfig divided = base;
    divided.divider_log2 = 2;
    const double period = 300e-12;
    EXPECT_NEAR(ideal_code(base, period) / ideal_code(divided, period), 4.0, 1e-9);
    EXPECT_NEAR(lsb_temperature_c(divided, period, 1.2e-12) /
                    lsb_temperature_c(base, period, 1.2e-12),
                4.0, 1e-9);
    // The window itself is unchanged.
    EXPECT_DOUBLE_EQ(measurement_time(divided, period),
                     measurement_time(base, period));
}

// Property: quantized code always within 1 of the ideal code for any phase.
class QuantizationBoundTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantizationBoundTest, WithinOneCount) {
    const double period = GetParam();
    for (const GateConfig& g : {osc_window(), ref_window()}) {
        const double ideal = ideal_code(g, period);
        for (double phase : {0.0, 0.25, 0.5, 0.75, 0.999}) {
            const double q = quantized_code(g, period, phase);
            EXPECT_LE(std::abs(q - ideal), 1.0)
                << "period=" << period << " phase=" << phase;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Periods, QuantizationBoundTest,
                         ::testing::Values(120e-12, 275e-12, 433e-12, 1.7e-9),
                         [](const ::testing::TestParamInfo<double>& info) {
                             return "p" + std::to_string(static_cast<int>(info.param * 1e13));
                         });

} // namespace
} // namespace stsense::digital
