// SmartUnitGolden — the smart unit's codes and cycle counters pinned to
// digests captured from the tick-per-cycle FSM, over both gate schemes,
// a divided and an undivided ring clock, zero and non-zero settling, a
// tripping watchdog, an auto-scan past a stuck channel and an alarm
// threshold. Each case records, after every blocking call: the code,
// cycles_total, cycles_osc_enabled, measurements_done and
// watchdog_trips.
#include "digital/smart_unit.hpp"

#include "golden.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::digital {
namespace {

using golden::digest;

SmartUnitConfig gate_config(GatingScheme scheme, int divider_log2, int settle,
                            int channels) {
    SmartUnitConfig c;
    c.gate.scheme = scheme;
    c.gate.osc_cycles = 1000;
    c.gate.ref_cycles = 4096;
    c.gate.ref_freq_hz = 100e6;
    c.gate.divider_log2 = divider_log2;
    c.num_channels = channels;
    c.settle_cycles = settle;
    return c;
}

void record(std::vector<double>& out, const SmartUnit& u, std::uint32_t code) {
    out.push_back(static_cast<double>(code));
    out.push_back(static_cast<double>(u.cycles_total()));
    out.push_back(static_cast<double>(u.cycles_osc_enabled()));
    out.push_back(static_cast<double>(u.measurements_done()));
    out.push_back(static_cast<double>(u.watchdog_trips()));
}

TEST(SmartUnitGolden, BlockingMeasurementsOverGateSchemes) {
    struct Case {
        GatingScheme scheme;
        int divider_log2;
        int settle;
        const char* want;
    };
    const Case cases[] = {
        {GatingScheme::OscWindow, 0, 0, "40c1b26318990caa"},
        {GatingScheme::OscWindow, 0, 16, "3a6189eca8aeb5ca"},
        {GatingScheme::OscWindow, 3, 0, "369eb8aa1de53cc2"},
        {GatingScheme::OscWindow, 3, 16, "1a2fe5a1a413a88a"},
        {GatingScheme::RefWindow, 0, 0, "1c43fbb1165257ad"},
        {GatingScheme::RefWindow, 0, 16, "3f1815e42586a07d"},
        {GatingScheme::RefWindow, 3, 0, "e23dd4a549c1f8dd"},
        {GatingScheme::RefWindow, 3, 16, "9f90bb2d0a3a5bed"},
    };
    for (const auto& c : cases) {
        SmartUnit u(gate_config(c.scheme, c.divider_log2, c.settle, 2),
                    [](int ch) { return ch == 0 ? 0.37e-9 : 1.13e-9; });
        std::vector<double> seen;
        record(seen, u, u.measure_blocking(0));
        record(seen, u, u.measure_blocking(1));
        record(seen, u, u.measure_blocking(0));
        std::uint32_t code = 0;
        const bool ok = u.measure_with_watchdog(1, code);
        seen.push_back(ok ? 1.0 : 0.0);
        record(seen, u, code);
        // A free-running ring between measurements counts as enabled.
        u.write(reg::kCtrl, kCtrlForceEnable);
        for (int i = 0; i < 37; ++i) u.tick();
        record(seen, u, u.measure_blocking(1));
        seen.push_back(static_cast<double>(u.read(reg::kStatus)));
        EXPECT_EQ(digest(seen), c.want)
            << "scheme " << static_cast<int>(c.scheme) << ", divider 2^"
            << c.divider_log2 << ", settle " << c.settle;
    }
}

TEST(SmartUnitGolden, WatchdogTrips) {
    SmartUnitConfig c = gate_config(GatingScheme::OscWindow, 0, 16, 2);
    c.watchdog_cycles = 500;
    SmartUnit u(c, [](int ch) { return ch == 1 ? 1e-3 : 0.37e-9; });
    std::vector<double> seen;
    std::uint32_t code = 0;
    seen.push_back(u.measure_with_watchdog(1, code) ? 1.0 : 0.0);
    record(seen, u, code);
    seen.push_back(u.measure_with_watchdog(0, code) ? 1.0 : 0.0);
    record(seen, u, code);
    // measure_blocking has no success/failure return: after the abort
    // the unit idles until the cycle budget runs out.
    EXPECT_THROW(u.measure_blocking(1, 3000), std::runtime_error);
    record(seen, u, u.data());
    seen.push_back(u.channel_timed_out(0) ? 1.0 : 0.0);
    seen.push_back(u.channel_timed_out(1) ? 1.0 : 0.0);
    seen.push_back(static_cast<double>(u.read(reg::kStatus)));
    EXPECT_EQ(digest(seen), "76a57624251de410");
}

TEST(SmartUnitGolden, AutoScanPastStuckChannel) {
    SmartUnitConfig c = gate_config(GatingScheme::OscWindow, 2, 16, 3);
    c.watchdog_cycles = 700;
    SmartUnit u(c, [](int ch) { return ch == 1 ? 1e-3 : 0.29e-9 * (1 + ch); });
    std::vector<double> seen;
    u.scan_all_blocking();
    for (int ch = 0; ch < 3; ++ch) {
        record(seen, u, u.channel_data(ch));
        seen.push_back(u.channel_timed_out(ch) ? 1.0 : 0.0);
    }
    // Every channel has been attempted, so a second scan returns after
    // one cycle, mid-measurement.
    u.scan_all_blocking();
    record(seen, u, u.data());
    seen.push_back(static_cast<double>(u.read(reg::kStatus)));
    EXPECT_EQ(digest(seen), "391e2a4556e30060");
}

TEST(SmartUnitGolden, AlarmThreshold) {
    SmartUnit u(gate_config(GatingScheme::OscWindow, 0, 16, 4),
                [](int ch) { return 0.31e-9 + 0.05e-9 * ch; });
    std::vector<double> seen;
    u.write(reg::kThreshold, 38);
    u.scan_all_blocking();
    for (int ch = 0; ch < 4; ++ch) record(seen, u, u.channel_data(ch));
    seen.push_back(u.alarm() ? 1.0 : 0.0);
    seen.push_back(static_cast<double>(u.alarm_channel()));
    seen.push_back(static_cast<double>(u.read(reg::kStatus)));
    EXPECT_EQ(digest(seen), "36e37cc3408021e0");
}

} // namespace
} // namespace stsense::digital
