// Cycle-accurate model of the smart unit's digital block.
//
// Implements the features the paper's Section 3 describes in prose:
//   * a measurement FSM (IDLE -> SETTLE -> COUNT -> DONE),
//   * an enable that gates the ring oscillator off between measurements
//     to minimize self-heating,
//   * a "measurement in progress" (busy) status output,
//   * a channel multiplexer selecting one of several ring oscillators
//     distributed over the die (thermal mapping),
//   * the period counter and a register map (CTRL / STATUS / DATA).
//
// The model ticks in the reference-clock domain; the selected
// oscillator's (real-valued) period is supplied by a callback so the
// sensor layer can bind it to ring physics, thermal state and noise.
// The blocking helpers advance the same FSM by events rather than one
// tick() call per cycle: SETTLE in one step, COUNT in a tight loop of
// the per-cycle phase additions. Codes and cycle counters are the ones
// ticking produces, cycle for cycle.
#pragma once

#include "digital/period_counter.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace stsense::digital {

/// FSM states, exposed for inspection/tests.
enum class UnitState : std::uint8_t {
    Idle,
    Settle,
    Count,
    Done,
};

/// Static configuration of the unit.
struct SmartUnitConfig {
    GateConfig gate;
    int num_channels = 1;     ///< Ring oscillators behind the mux.
    int settle_cycles = 16;   ///< Ref cycles of oscillator warm-up before COUNT.
    /// Per-measurement watchdog deadline in ref cycles; 0 disables. A
    /// measurement (SETTLE + COUNT) that exceeds it is aborted: the busy
    /// flag drops, the channel is flagged timed-out, and — in scan mode —
    /// the mux moves on to the next channel instead of wedging the whole
    /// scan behind one stuck oscillator.
    std::uint64_t watchdog_cycles = 0;
};

/// Register map offsets (word addresses).
namespace reg {
inline constexpr std::uint32_t kCtrl = 0;   ///< W: start/force-enable/scan/channel.
inline constexpr std::uint32_t kStatus = 1; ///< R: busy/done/osc-on/alarm/state.
inline constexpr std::uint32_t kData = 2;   ///< R: last measurement code.
inline constexpr std::uint32_t kCycles = 3; ///< R: ref cycles since reset (low 32 bits).
inline constexpr std::uint32_t kThreshold = 4; ///< RW: alarm code threshold.
inline constexpr std::uint32_t kChanBase = 8;  ///< R: per-channel code (kChanBase + ch).
} // namespace reg

// CTRL bits.
inline constexpr std::uint32_t kCtrlStart = 1u << 0;      ///< Self-clearing.
inline constexpr std::uint32_t kCtrlForceEnable = 1u << 1;///< Keep ring free-running.
inline constexpr std::uint32_t kCtrlScan = 1u << 2;       ///< Round-robin auto-scan.
inline constexpr std::uint32_t kCtrlChannelShift = 8;     ///< Bits 15:8.
inline constexpr std::uint32_t kCtrlChannelMask = 0xFFu << kCtrlChannelShift;

// STATUS bits.
inline constexpr std::uint32_t kStatusBusy = 1u << 0;
inline constexpr std::uint32_t kStatusDone = 1u << 1;
inline constexpr std::uint32_t kStatusOscOn = 1u << 2;
inline constexpr std::uint32_t kStatusAlarm = 1u << 3; ///< Latched: code >= threshold.
inline constexpr std::uint32_t kStatusWatchdog = 1u << 6; ///< Latched: a measurement was aborted.
inline constexpr std::uint32_t kStatusStateShift = 4; ///< Bits 5:4 = UnitState.
inline constexpr std::uint32_t kStatusAlarmChShift = 8; ///< Bits 15:8: first alarming channel.

class SmartUnit {
public:
    /// Returns the selected channel's oscillation period [s]. It must be
    /// constant over a measurement: the unit samples it once per run of
    /// COUNT cycles (once per measurement in the blocking helpers, once
    /// per cycle under tick()), not on every cycle. Every provider in
    /// the library returns a period fixed before the measurement starts.
    using PeriodProvider = std::function<double(int channel)>;

    SmartUnit(SmartUnitConfig config, PeriodProvider provider);

    /// Register write (CTRL only; others read-only).
    void write(std::uint32_t addr, std::uint32_t value);

    /// Register read.
    std::uint32_t read(std::uint32_t addr) const;

    /// Advances one reference-clock cycle.
    void tick() { advance(1); }

    // Convenience views over the registers.
    bool busy() const { return state_ == UnitState::Settle || state_ == UnitState::Count; }
    bool done() const { return state_ == UnitState::Done; }
    bool oscillator_enabled() const;
    UnitState state() const { return state_; }
    int selected_channel() const { return channel_; }
    std::uint32_t data() const { return data_; }

    /// Total ref cycles ticked and cycles with the oscillator enabled —
    /// the duty factor feeding the self-heating model.
    std::uint64_t cycles_total() const { return cycles_total_; }
    std::uint64_t cycles_osc_enabled() const { return cycles_osc_on_; }
    double oscillator_duty() const;

    /// Starts a measurement on `channel` and ticks until DONE; returns
    /// the code. Throws std::runtime_error if the measurement does not
    /// finish within `max_cycles`.
    std::uint32_t measure_blocking(int channel, std::uint64_t max_cycles = 1u << 26);

    // --- Watchdog ------------------------------------------------------
    /// Starts a measurement on `channel` and ticks until it completes or
    /// the configured watchdog aborts it. Returns true with the code on
    /// completion; false when the watchdog tripped (the unit is back in
    /// IDLE with busy deasserted — the caller can retry or quarantine
    /// the channel). With the watchdog disabled this is measure_blocking
    /// with a success/failure return instead of a throw.
    bool measure_with_watchdog(int channel, std::uint32_t& code,
                               std::uint64_t max_cycles = 1u << 26);
    /// Measurements aborted by the watchdog since construction.
    std::uint64_t watchdog_trips() const { return watchdog_trips_; }
    /// Sticky flag: some measurement was watchdog-aborted (STATUS bit 6).
    bool watchdog_latched() const { return watchdog_latched_; }
    /// true when the channel's most recent measurement was aborted.
    bool channel_timed_out(int channel) const;

    // --- Alarm (Thermal-Assist-Unit style) ----------------------------
    /// With an OscWindow gate, larger code = hotter; a completed
    /// measurement whose code reaches the THRESHOLD register latches the
    /// alarm (sticky until threshold rewrite). 0 disables it.
    bool alarm() const { return alarm_; }
    int alarm_channel() const { return alarm_channel_; }

    // --- Auto-scan -----------------------------------------------------
    /// While CTRL.SCAN is set, the FSM round-robins all channels without
    /// software: each completed measurement stores its code in the
    /// per-channel result register and starts the next channel.
    bool scanning() const { return scan_; }
    /// Last stored code of a channel (also readable at kChanBase + ch).
    std::uint32_t channel_data(int channel) const;
    /// Completed measurements since construction.
    std::uint64_t measurements_done() const { return measurements_done_; }

    /// Runs the scan until every channel has at least one stored code.
    /// Throws std::runtime_error on `max_cycles` exhaustion.
    void scan_all_blocking(std::uint64_t max_cycles = 1u << 28);

private:
    /// Advances up to `max_cycles` cycles and returns the number taken.
    /// Stops early right after a cycle that ends a measurement
    /// (completed or watchdog-aborted): the only instants at which a
    /// blocking helper's exit condition can change.
    std::uint64_t advance(std::uint64_t max_cycles);
    /// Advances until `reached()` holds, as a loop testing it after
    /// every cycle would; false when `max_cycles` run out first.
    template <class Pred>
    bool run_until(std::uint64_t max_cycles, Pred reached);
    void start_measurement();
    void finish_measurement();
    void abort_measurement();
    void mark_attempted(std::size_t channel);

    SmartUnitConfig config_;
    PeriodProvider provider_;

    UnitState state_ = UnitState::Idle;
    int channel_ = 0;
    bool force_enable_ = false;
    bool scan_ = false;
    std::uint32_t data_ = 0;
    std::uint32_t threshold_ = 0; ///< 0 = alarm disabled.
    bool alarm_ = false;
    int alarm_channel_ = 0;

    int settle_left_ = 0;
    double osc_phase_ = 0.0;       ///< Oscillator cycles accumulated in COUNT.
    std::uint32_t ref_count_ = 0;  ///< Ref cycles counted in COUNT.

    std::vector<std::uint32_t> channel_data_;
    /// Channel visited (completed *or* watchdog-aborted); the scan
    /// terminates on all-attempted so one stuck channel cannot hang
    /// scan_all_blocking.
    std::vector<char> channel_attempted_;
    std::size_t channels_attempted_ = 0; ///< Set entries of channel_attempted_.
    std::vector<char> channel_timed_out_;
    std::uint64_t measurements_done_ = 0;
    std::uint64_t meas_cycles_ = 0; ///< Ref cycles in the current measurement.
    std::uint64_t watchdog_trips_ = 0;
    bool watchdog_latched_ = false;

    std::uint64_t cycles_total_ = 0;
    std::uint64_t cycles_osc_on_ = 0;
};

} // namespace stsense::digital
