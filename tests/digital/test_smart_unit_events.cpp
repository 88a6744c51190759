// SmartUnitTickParity — the blocking helpers advance the FSM by events
// (SETTLE in one step, COUNT in a tight loop). This suite drives one
// unit through the helpers and a twin through the helpers' documented
// loops, one tick() per cycle, over randomized configurations and
// operation sequences, and requires every register and counter to agree
// after every operation — including max_cycles exhaustion, which must
// throw on the same cycle, and a provider returning NaN.
#include "digital/smart_unit.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace stsense::digital {
namespace {

/// The reference: each blocking helper written as the loop its contract
/// describes, testing the exit condition after every tick().
class TickedTwin {
public:
    TickedTwin(const SmartUnitConfig& c, SmartUnit::PeriodProvider p)
        : unit(c, std::move(p)),
          attempted_(static_cast<std::size_t>(c.num_channels), false) {}

    SmartUnit unit;

    std::uint32_t measure_blocking(int channel, std::uint64_t max_cycles) {
        start(kCtrlStart, channel);
        for (std::uint64_t i = 0; i < max_cycles; ++i) {
            tick();
            if (unit.done()) return unit.data();
        }
        throw std::runtime_error("SmartUnit: measurement timed out");
    }

    bool measure_with_watchdog(int channel, std::uint32_t& code,
                               std::uint64_t max_cycles) {
        const std::uint64_t trips_before = unit.watchdog_trips();
        start(kCtrlStart, channel);
        for (std::uint64_t i = 0; i < max_cycles; ++i) {
            tick();
            if (unit.done()) {
                code = unit.data();
                return true;
            }
            if (unit.watchdog_trips() > trips_before) return false;
        }
        throw std::runtime_error("SmartUnit: measurement timed out");
    }

    void scan_all_blocking(std::uint64_t max_cycles) {
        start(kCtrlScan, unit.selected_channel());
        for (std::uint64_t i = 0; i < max_cycles; ++i) {
            tick();
            bool all = true;
            for (const bool a : attempted_) all = all && a;
            if (all) return;
        }
        throw std::runtime_error("SmartUnit: scan timed out");
    }

    /// One cycle; a measurement that ends on it (completed or aborted)
    /// marks the channel it ran on as attempted.
    void tick() {
        const int channel = unit.selected_channel();
        const auto done_before = unit.measurements_done();
        const auto trips_before = unit.watchdog_trips();
        unit.tick();
        if (unit.measurements_done() > done_before ||
            unit.watchdog_trips() > trips_before) {
            attempted_[static_cast<std::size_t>(channel)] = true;
        }
    }

private:
    void start(std::uint32_t mode, int channel) {
        const bool force = (unit.read(reg::kCtrl) & kCtrlForceEnable) != 0;
        unit.write(reg::kCtrl, mode | (force ? kCtrlForceEnable : 0u) |
                                   (static_cast<std::uint32_t>(channel)
                                    << kCtrlChannelShift));
    }

    std::vector<bool> attempted_;
};

/// Every observable register and counter, for one comparison.
std::vector<double> snapshot(const SmartUnit& u, int channels) {
    std::vector<double> v = {
        static_cast<double>(u.read(reg::kCtrl)),
        static_cast<double>(u.read(reg::kStatus)),
        static_cast<double>(u.read(reg::kData)),
        static_cast<double>(u.read(reg::kCycles)),
        static_cast<double>(u.read(reg::kThreshold)),
        static_cast<double>(u.cycles_total()),
        static_cast<double>(u.cycles_osc_enabled()),
        static_cast<double>(u.measurements_done()),
        static_cast<double>(u.watchdog_trips()),
        static_cast<double>(u.state()),
        static_cast<double>(u.selected_channel()),
        static_cast<double>(u.alarm_channel()),
        u.alarm() ? 1.0 : 0.0,
        u.watchdog_latched() ? 1.0 : 0.0,
    };
    for (int ch = 0; ch < channels; ++ch) {
        v.push_back(static_cast<double>(u.read(reg::kChanBase + ch)));
        v.push_back(u.channel_timed_out(ch) ? 1.0 : 0.0);
    }
    return v;
}

/// Runs `op` on both units; both must throw or both return the same.
template <class Op>
void both(SmartUnit& fast, TickedTwin& twin, int channels, Op op,
          const std::string& what) {
    std::string fast_error;
    std::string twin_error;
    std::int64_t fast_result = -1;
    std::int64_t twin_result = -1;
    try {
        fast_result = op(fast, nullptr);
    } catch (const std::runtime_error& e) {
        fast_error = e.what();
    }
    try {
        twin_result = op(twin.unit, &twin);
    } catch (const std::runtime_error& e) {
        twin_error = e.what();
    }
    ASSERT_EQ(fast_error, twin_error) << what;
    ASSERT_EQ(fast_result, twin_result) << what;
    ASSERT_EQ(snapshot(fast, channels), snapshot(twin.unit, channels)) << what;
}

SmartUnitConfig random_config(util::Rng& rng) {
    SmartUnitConfig c;
    c.gate.scheme = rng.below(2) == 0 ? GatingScheme::OscWindow
                                      : GatingScheme::RefWindow;
    c.gate.osc_cycles = static_cast<std::uint32_t>(1 + rng.below(400));
    c.gate.ref_cycles = static_cast<std::uint32_t>(1 + rng.below(600));
    c.gate.ref_freq_hz = rng.uniform(20e6, 200e6);
    c.gate.divider_log2 = static_cast<int>(rng.below(5));
    c.num_channels = static_cast<int>(1 + rng.below(5));
    c.settle_cycles = static_cast<int>(rng.below(24));
    c.watchdog_cycles = rng.below(3) == 0 ? 0 : 20 + rng.below(900);
    return c;
}

TEST(SmartUnitTickParity, RandomizedOperationSequences) {
    util::Rng rng(20261017);
    for (int trial = 0; trial < 300; ++trial) {
        const SmartUnitConfig c = random_config(rng);
        const int n = c.num_channels;
        // Per-channel periods: mostly healthy rings, sometimes a stuck
        // slow one (watchdog fodder) or a dead one (NaN).
        std::vector<double> periods;
        for (int ch = 0; ch < n; ++ch) {
            const auto kind = rng.below(12);
            periods.push_back(kind == 0   ? 1e-3
                              : kind == 1 ? std::numeric_limits<double>::quiet_NaN()
                                          : rng.uniform(0.2e-9, 3e-9));
        }
        auto provider = [periods](int ch) {
            return periods[static_cast<std::size_t>(ch)];
        };
        SmartUnit fast(c, provider);
        TickedTwin twin(c, provider);

        for (int step = 0; step < 8; ++step) {
            const int ch = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
            // Budgets from "runs out mid-measurement" to plenty.
            const std::uint64_t budget =
                rng.below(3) == 0 ? 1 + rng.below(300) : 200000;
            const std::string what = "trial " + std::to_string(trial) +
                                     ", step " + std::to_string(step);
            switch (rng.below(6)) {
                case 0:
                    both(fast, twin, n,
                         [&](SmartUnit& u, TickedTwin* t) -> std::int64_t {
                             return t ? t->measure_blocking(ch, budget)
                                      : u.measure_blocking(ch, budget);
                         },
                         what + " measure_blocking");
                    break;
                case 1:
                    both(fast, twin, n,
                         [&](SmartUnit& u, TickedTwin* t) -> std::int64_t {
                             std::uint32_t code = 7;
                             const bool ok =
                                 t ? t->measure_with_watchdog(ch, code, budget)
                                   : u.measure_with_watchdog(ch, code, budget);
                             return ok ? code : -static_cast<std::int64_t>(code);
                         },
                         what + " measure_with_watchdog");
                    break;
                case 2:
                    both(fast, twin, n,
                         [&](SmartUnit& u, TickedTwin* t) -> std::int64_t {
                             t ? t->scan_all_blocking(budget)
                               : u.scan_all_blocking(budget);
                             return 0;
                         },
                         what + " scan_all_blocking");
                    break;
                case 3: {
                    const int ticks = static_cast<int>(rng.below(64));
                    both(fast, twin, n,
                         [&](SmartUnit& u, TickedTwin* t) -> std::int64_t {
                             for (int i = 0; i < ticks; ++i) t ? t->tick() : u.tick();
                             return 0;
                         },
                         what + " ticks");
                    break;
                }
                case 4: {
                    const auto force = rng.below(2) == 0 ? kCtrlForceEnable : 0u;
                    both(fast, twin, n,
                         [&](SmartUnit& u, TickedTwin*) -> std::int64_t {
                             u.write(reg::kCtrl,
                                     force | (static_cast<std::uint32_t>(ch)
                                              << kCtrlChannelShift));
                             return 0;
                         },
                         what + " force-enable write");
                    break;
                }
                default: {
                    const auto threshold = static_cast<std::uint32_t>(rng.below(400));
                    both(fast, twin, n,
                         [&](SmartUnit& u, TickedTwin*) -> std::int64_t {
                             u.write(reg::kThreshold, threshold);
                             return 0;
                         },
                         what + " threshold write");
                    break;
                }
            }
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
}

TEST(SmartUnitTickParity, ExhaustionThrowsOnTheSameCycle) {
    // A gate far longer than the budget: both must run exactly
    // max_cycles cycles and then throw, leaving the unit mid-COUNT.
    SmartUnitConfig c;
    c.gate.osc_cycles = 1u << 20;
    c.settle_cycles = 5;
    SmartUnit fast(c, [](int) { return 1e-9; });
    TickedTwin twin(c, [](int) { return 1e-9; });
    EXPECT_THROW(fast.measure_blocking(0, 12345), std::runtime_error);
    EXPECT_THROW(twin.measure_blocking(0, 12345), std::runtime_error);
    EXPECT_EQ(fast.cycles_total(), 12345u);
    EXPECT_EQ(fast.state(), UnitState::Count);
    EXPECT_EQ(snapshot(fast, 1), snapshot(twin.unit, 1));
    // Resuming completes on the same cycle as the ticked twin.
    EXPECT_EQ(fast.measure_blocking(0), twin.measure_blocking(0, 1u << 26));
    EXPECT_EQ(snapshot(fast, 1), snapshot(twin.unit, 1));
}

TEST(SmartUnitTickParity, NanProviderThrowsOnTheFirstCountCycle) {
    SmartUnitConfig c;
    c.settle_cycles = 9;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    SmartUnit fast(c, [nan](int) { return nan; });
    TickedTwin twin(c, [nan](int) { return nan; });
    EXPECT_THROW(fast.measure_blocking(0), std::runtime_error);
    EXPECT_THROW(twin.measure_blocking(0, 1u << 26), std::runtime_error);
    // Nine SETTLE cycles, then the COUNT cycle that read the period.
    EXPECT_EQ(fast.cycles_total(), 10u);
    EXPECT_EQ(fast.cycles_osc_enabled(), 10u);
    EXPECT_EQ(snapshot(fast, 1), snapshot(twin.unit, 1));
}

} // namespace
} // namespace stsense::digital
