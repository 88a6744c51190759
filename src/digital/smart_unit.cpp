#include "digital/smart_unit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace stsense::digital {

SmartUnit::SmartUnit(SmartUnitConfig config, PeriodProvider provider)
    : config_(config),
      provider_(std::move(provider)),
      channel_data_(static_cast<std::size_t>(std::max(config.num_channels, 1)), 0),
      channel_attempted_(static_cast<std::size_t>(std::max(config.num_channels, 1)), 0),
      channel_timed_out_(static_cast<std::size_t>(std::max(config.num_channels, 1)), 0) {
    validate(config_.gate);
    if (config_.num_channels < 1 || config_.num_channels > 256) {
        throw std::invalid_argument("SmartUnit: num_channels out of [1, 256]");
    }
    if (config_.settle_cycles < 0) {
        throw std::invalid_argument("SmartUnit: settle_cycles must be >= 0");
    }
    if (!provider_) {
        throw std::invalid_argument("SmartUnit: null period provider");
    }
}

bool SmartUnit::oscillator_enabled() const {
    return force_enable_ || busy();
}

double SmartUnit::oscillator_duty() const {
    if (cycles_total_ == 0) return 0.0;
    return static_cast<double>(cycles_osc_on_) / static_cast<double>(cycles_total_);
}

void SmartUnit::write(std::uint32_t addr, std::uint32_t value) {
    if (addr == reg::kThreshold) {
        // Rewriting the threshold re-arms the (sticky) alarm.
        threshold_ = value;
        alarm_ = false;
        alarm_channel_ = 0;
        return;
    }
    if (addr != reg::kCtrl) {
        throw std::invalid_argument("SmartUnit: write to read-only register");
    }
    const int channel = static_cast<int>((value & kCtrlChannelMask) >> kCtrlChannelShift);
    if (channel >= config_.num_channels) {
        throw std::invalid_argument("SmartUnit: channel out of range");
    }
    channel_ = channel;
    force_enable_ = (value & kCtrlForceEnable) != 0;
    scan_ = (value & kCtrlScan) != 0;
    if ((value & kCtrlStart) || (scan_ && !busy())) start_measurement();
}

void SmartUnit::start_measurement() {
    if (busy()) return; // Hardware ignores START while a measurement runs.
    osc_phase_ = 0.0;
    ref_count_ = 0;
    meas_cycles_ = 0;
    settle_left_ = config_.settle_cycles;
    state_ = settle_left_ > 0 ? UnitState::Settle : UnitState::Count;
}

std::uint32_t SmartUnit::channel_data(int channel) const {
    if (channel < 0 || channel >= config_.num_channels) {
        throw std::invalid_argument("SmartUnit: channel out of range");
    }
    return channel_data_[static_cast<std::size_t>(channel)];
}

std::uint32_t SmartUnit::read(std::uint32_t addr) const {
    if (addr >= reg::kChanBase &&
        addr < reg::kChanBase + static_cast<std::uint32_t>(config_.num_channels)) {
        return channel_data_[addr - reg::kChanBase];
    }
    switch (addr) {
        case reg::kCtrl:
            return (force_enable_ ? kCtrlForceEnable : 0u) |
                   (scan_ ? kCtrlScan : 0u) |
                   (static_cast<std::uint32_t>(channel_) << kCtrlChannelShift);
        case reg::kStatus: {
            std::uint32_t s = 0;
            if (busy()) s |= kStatusBusy;
            if (done()) s |= kStatusDone;
            if (oscillator_enabled()) s |= kStatusOscOn;
            if (watchdog_latched_) s |= kStatusWatchdog;
            if (alarm_) {
                s |= kStatusAlarm;
                s |= static_cast<std::uint32_t>(alarm_channel_) << kStatusAlarmChShift;
            }
            s |= static_cast<std::uint32_t>(state_) << kStatusStateShift;
            return s;
        }
        case reg::kData:
            return data_;
        case reg::kCycles:
            return static_cast<std::uint32_t>(cycles_total_);
        case reg::kThreshold:
            return threshold_;
        default:
            throw std::invalid_argument("SmartUnit: bad register address");
    }
}

std::uint64_t SmartUnit::advance(std::uint64_t max_cycles) {
    constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t watchdog = config_.watchdog_cycles;
    std::uint64_t used = 0;
    // Cycles spent busy: the ring is on and, with a watchdog armed, the
    // measurement's deadline clock runs.
    auto spend_busy = [&](std::uint64_t n) {
        cycles_total_ += n;
        cycles_osc_on_ += n;
        if (watchdog > 0) meas_cycles_ += n;
        used += n;
    };
    while (used < max_cycles) {
        const std::uint64_t room = max_cycles - used;
        if (!busy()) {
            // IDLE/DONE: nothing moves until a register write; the cycles
            // only count (a force-enabled ring keeps oscillating).
            cycles_total_ += room;
            if (force_enable_) cycles_osc_on_ += room;
            return max_cycles;
        }
        // Per-measurement watchdog: a stuck-slow oscillator (or an absurd
        // gate) must drop the busy flag after the deadline, not wedge the
        // unit in COUNT forever. It fires on cycle `to_abort` from here,
        // before that cycle's FSM step.
        const std::uint64_t to_abort =
            watchdog > 0 ? watchdog - meas_cycles_ + 1 : kNever;
        if (to_abort == 1) {
            spend_busy(1);
            abort_measurement();
            return used;
        }
        const std::uint64_t steps = std::min(room, to_abort - 1);
        if (state_ == UnitState::Settle) {
            const auto n = std::min<std::uint64_t>(
                steps, static_cast<std::uint64_t>(settle_left_));
            spend_busy(n);
            settle_left_ -= static_cast<int>(n);
            if (settle_left_ <= 0) state_ = UnitState::Count;
            continue;
        }

        // COUNT, up to `steps` cycles. The first cycle is spent before the
        // provider is read, so a bad period throws on the cycle it is read.
        spend_busy(1);
        const double period = provider_(channel_);
        if (!(period > 0.0) || !std::isfinite(period)) {
            throw std::runtime_error("SmartUnit: provider returned bad period");
        }
        const double t_ref = 1.0 / config_.gate.ref_freq_hz;
        // The counter sees the (optionally divided) ring clock. The same
        // addition runs once per cycle, so the phase is bitwise the
        // cycle-by-cycle accumulation.
        const double step = t_ref / (period * divider_ratio(config_.gate));
        double phase = osc_phase_;
        std::uint64_t n = 0;
        bool closed = false;
        if (config_.gate.scheme == GatingScheme::RefWindow) {
            const std::uint64_t to_close = config_.gate.ref_cycles - ref_count_;
            n = std::min(steps, to_close);
            for (std::uint64_t i = 0; i < n; ++i) phase += step;
            closed = n == to_close;
        } else {
            const auto target = static_cast<double>(config_.gate.osc_cycles);
            while (n < steps && !closed) {
                phase += step;
                ++n;
                closed = phase >= target;
            }
        }
        spend_busy(n - 1);
        osc_phase_ = phase;
        ref_count_ += static_cast<std::uint32_t>(n);
        if (closed) {
            data_ = config_.gate.scheme == GatingScheme::RefWindow
                        ? static_cast<std::uint32_t>(osc_phase_)
                        : ref_count_;
            finish_measurement();
            return used;
        }
    }
    return used;
}

template <class Pred>
bool SmartUnit::run_until(std::uint64_t max_cycles, Pred reached) {
    std::uint64_t left = max_cycles;
    while (left > 0) {
        // advance() stops at every measurement end, so a condition that
        // does not hold yet is tested exactly where it can first hold; one
        // that already holds still costs the one cycle before its test.
        left -= advance(reached() ? 1 : left);
        if (reached()) return true;
    }
    return false;
}

void SmartUnit::finish_measurement() {
    state_ = UnitState::Done;
    channel_data_[static_cast<std::size_t>(channel_)] = data_;
    mark_attempted(static_cast<std::size_t>(channel_));
    channel_timed_out_[static_cast<std::size_t>(channel_)] = 0;
    ++measurements_done_;
    // OscWindow codes grow with the period, i.e. with temperature: a
    // code at/above the threshold is an over-temperature event.
    if (threshold_ != 0 && data_ >= threshold_ && !alarm_) {
        alarm_ = true;
        alarm_channel_ = channel_;
    }
    if (scan_) {
        channel_ = (channel_ + 1) % config_.num_channels;
        start_measurement();
    }
}

void SmartUnit::abort_measurement() {
    const auto ch = static_cast<std::size_t>(channel_);
    channel_timed_out_[ch] = 1;
    mark_attempted(ch);
    ++watchdog_trips_;
    watchdog_latched_ = true;
    // Busy deasserts instead of the FSM hanging in COUNT; in scan mode
    // the mux steps past the stuck channel so the rest of the die still
    // gets read.
    state_ = UnitState::Idle;
    if (scan_) {
        channel_ = (channel_ + 1) % config_.num_channels;
        start_measurement();
    }
}

bool SmartUnit::channel_timed_out(int channel) const {
    if (channel < 0 || channel >= config_.num_channels) {
        throw std::invalid_argument("SmartUnit: channel out of range");
    }
    return channel_timed_out_[static_cast<std::size_t>(channel)] != 0;
}

void SmartUnit::mark_attempted(std::size_t channel) {
    if (channel_attempted_[channel] == 0) {
        channel_attempted_[channel] = 1;
        ++channels_attempted_;
    }
}

void SmartUnit::scan_all_blocking(std::uint64_t max_cycles) {
    write(reg::kCtrl, kCtrlScan | (force_enable_ ? kCtrlForceEnable : 0u) |
                          (static_cast<std::uint32_t>(channel_)
                           << kCtrlChannelShift));
    // Attempted (completed or watchdog-aborted), not valid: a scan with a
    // stuck channel must still terminate once every channel has been
    // visited.
    if (!run_until(max_cycles, [&] {
            return channels_attempted_ == channel_attempted_.size();
        })) {
        throw std::runtime_error("SmartUnit: scan timed out");
    }
}

bool SmartUnit::measure_with_watchdog(int channel, std::uint32_t& code,
                                      std::uint64_t max_cycles) {
    const std::uint64_t trips_before = watchdog_trips_;
    write(reg::kCtrl,
          kCtrlStart | (force_enable_ ? kCtrlForceEnable : 0u) |
              (static_cast<std::uint32_t>(channel) << kCtrlChannelShift));
    if (!run_until(max_cycles,
                   [&] { return done() || watchdog_trips_ > trips_before; })) {
        throw std::runtime_error("SmartUnit: measurement timed out");
    }
    if (!done()) return false;
    code = data_;
    return true;
}

std::uint32_t SmartUnit::measure_blocking(int channel, std::uint64_t max_cycles) {
    write(reg::kCtrl,
          kCtrlStart | (force_enable_ ? kCtrlForceEnable : 0u) |
              (static_cast<std::uint32_t>(channel) << kCtrlChannelShift));
    if (!run_until(max_cycles, [&] { return done(); })) {
        throw std::runtime_error("SmartUnit: measurement timed out");
    }
    return data_;
}

} // namespace stsense::digital
