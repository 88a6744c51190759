// Analytic propagation-delay model for the standard cells.
//
// Delay of a CMOS stage under the alpha-power law (Sakurai–Newton):
//
//     t_p = K * C_L * Vdd / I_eff(T)
//
// where I_eff is the effective drive of the switching network:
// a k-deep series stack divides the saturation current by k, and (in
// Bridge tie mode) k parallel switching devices multiply it by k.
//
// Because I_eff carries the full temperature model of phys::MosfetParams,
// this closed form reproduces the period-vs-temperature curvature that
// the paper tunes via Wp/Wn ratio (Fig. 2) and cell mix (Fig. 3) at a
// fraction of the cost of transistor-level simulation. The SPICE
// cross-check bench quantifies the agreement.
//
// The delay is evaluated in two parts. DelayModel::bind forms, once per
// cell instance and load, everything that does not depend on
// temperature: C_L, the charge (K * C_L) * Vdd and, per switching
// network, the shifted threshold, kp * (W/L), the parallel count and
// the stack depth; the spec, load and geometry checks run there too.
// BoundStage::delays then evaluates per temperature only the
// threshold, the overdrive's softplus blend, one pow per network and
// the divides, with the products associated as the one-shot formula
// forms them, so a bound delay is bitwise the unbound one.
// DelayModel::delays(spec, load, T) is bind(spec, load).delays(...):
// there is one expression for t_p.
#pragma once

#include "cells/cell.hpp"
#include "phys/technology.hpp"

namespace stsense::cells {

/// Drawn transistor widths of a cell instance.
struct CellSizes {
    double wn = 0.0; ///< Each NMOS width [m].
    double wp = 0.0; ///< Each PMOS width [m].
};

/// Propagation delays of one cell for a given load and temperature.
struct CellDelays {
    double tphl = 0.0; ///< High-to-low output transition [s].
    double tplh = 0.0; ///< Low-to-high output transition [s].

    double pair_delay() const { return tphl + tplh; }
};

/// Mobility factors mu(T)/mu(t0) of a technology's two device cards at
/// one temperature (phys::mobility_factor).
struct Mobility {
    double nmos = 1.0;
    double pmos = 1.0;
};

/// One cell instance bound to its load and to a DelayModel's technology
/// (DelayModel::bind): every temperature-independent constant of its
/// delays, formed once.
class BoundStage {
public:
    /// Propagation delays at `temp_k`. `mu` must be the binding model's
    /// mobility(temp_k): mobility depends only on the device card and the
    /// temperature, so a ring forms it once per period, not per stage.
    /// Throws std::invalid_argument for temp_k <= 0.
    CellDelays delays(double temp_k, const Mobility& mu) const;

    /// The external load this instance was bound to [F].
    double load() const { return load_; }

private:
    friend class DelayModel;

    /// One switching network (pull-down or pull-up).
    struct Network {
        phys::BoundDevice device; ///< One device, vth0 shifted by the spec.
        double par = 1.0;         ///< Parallel switching devices.
        double stack = 1.0;       ///< Series stack depth.

        /// Effective saturation current at temp_k [A].
        double current(double vdd, double temp_k, double mu) const;
    };

    Network down_;
    Network up_;
    double vdd_ = 0.0;
    double charge_ = 0.0; ///< (K * C_L) * Vdd [C].
    double load_ = 0.0;
};

/// Analytic delay/capacitance model bound to one technology.
class DelayModel {
public:
    /// Validates and captures the technology by value.
    explicit DelayModel(const phys::Technology& tech);

    /// Transistor widths implied by the spec (drive and ratio applied).
    CellSizes sizes(const CellSpec& spec) const;

    /// Capacitive load the cell presents to its driver [F]. Accounts for
    /// the number of connected input pins (1 for Supply tie, all for
    /// Bridge tie).
    double input_capacitance(const CellSpec& spec) const;

    /// Parasitic capacitance at the cell's own output node [F].
    double output_capacitance(const CellSpec& spec) const;

    /// Effective pull-down / pull-up saturation currents at temp_k [A].
    double pulldown_current(const CellSpec& spec, double temp_k) const;
    double pullup_current(const CellSpec& spec, double temp_k) const;

    /// The technology's mobility factors at temp_k.
    Mobility mobility(double temp_k) const;

    /// The instance `spec` driving `load_farads`, bound for evaluation at
    /// any temperature. Validates the spec and the load (finite, >= 0);
    /// throws std::invalid_argument.
    BoundStage bind(const CellSpec& spec, double load_farads) const;

    /// Propagation delays driving `load_farads` at `temp_k`:
    /// bind(spec, load_farads).delays(temp_k, mobility(temp_k)).
    CellDelays delays(const CellSpec& spec, double load_farads,
                      double temp_k) const;

    const phys::Technology& technology() const { return tech_; }

private:
    double resolved_ratio(const CellSpec& spec) const;

    phys::Technology tech_;
};

/// Proportionality constant in t_p = K * C_L * Vdd / I_eff. The standard
/// step-response estimate gives K = 1/2 (output slews half the swing).
inline constexpr double kDelayFactor = 0.5;

} // namespace stsense::cells
