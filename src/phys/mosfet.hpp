// Alpha-power-law MOSFET model (Sakurai–Newton) with first-order
// temperature dependences.
//
// This is the transducer physics of the whole library: gate delay is set
// by the saturation current
//
//     Id,sat(T) = kp * (W/L) * (T/T0)^-m * (Vgs - Vth(T))^alpha
//     Vth(T)    = Vth0 - kappa * (T - T0)
//
// Mobility degradation ((T/T0)^-m) slows the device as temperature
// rises; threshold reduction (kappa) speeds it up. Their different
// strengths in NMOS vs PMOS give the two devices delay-vs-temperature
// curves of opposite curvature, which is what the paper's ratio and
// cell-mix optimizations exploit.
//
// The same model is used in two places:
//   * analytically, by cells::DelayModel, to predict propagation delays;
//   * numerically, by spice::MosfetDevice, as the I-V surface of the
//     transient simulator.
// Using one model in both keeps the cross-check bench meaningful.
#pragma once

namespace stsense::phys {

/// Device polarity.
enum class MosType {
    Nmos,
    Pmos,
};

/// Alpha-power-law parameters of one device type. All voltages are
/// magnitudes (PMOS values are positive too; polarity handling is the
/// caller's job, see spice::MosfetDevice).
struct MosfetParams {
    MosType type = MosType::Nmos;

    double vth0 = 0.55;       ///< Threshold voltage magnitude at t0 [V].
    double alpha = 1.3;       ///< Velocity-saturation index (1 = fully saturated, 2 = long channel).
    double kp = 5.0e-5;       ///< Current factor [A / V^alpha] per unit W/L at t0.
    double mobility_exp = 1.5;///< m in mu(T) = mu0 * (T/t0)^-m.
    double vth_tc = 1.0e-3;   ///< kappa in Vth(T) = vth0 - kappa*(T - t0) [V/K].
    double lambda = 0.05;     ///< Channel-length modulation [1/V].
    double vdsat_coeff = 0.5; ///< Kv in Vdsat = Kv * Vgst^(alpha/2) [V^(1-alpha/2)].
    double t0 = 300.0;        ///< Reference temperature [K].
    double smoothing = 0.03;  ///< Softplus width blending sub/above-threshold [V].

    double cgate_per_w = 1.6e-9;  ///< Gate capacitance per unit width [F/m].
    double cdrain_per_w = 1.0e-9; ///< Drain junction capacitance per unit width [F/m].
};

/// Channel geometry of a device instance.
struct MosGeometry {
    double w = 1.0e-6; ///< Channel width [m].
    double l = 0.35e-6;///< Channel length [m].
};

/// Evaluation result: drain current and small-signal derivatives, all in
/// the device's own polarity convention (current flows drain->source for
/// positive vgs/vds magnitudes).
struct MosEval {
    double id = 0.0;  ///< Drain current [A].
    double gm = 0.0;  ///< dId/dVgs [S].
    double gds = 0.0; ///< dId/dVds [S].
};

/// Softplus evaluation: smooth max(x, 0) of width s, with derivative.
struct SoftplusEval {
    double value = 0.0;
    double derivative = 0.0;
};

/// The softplus blend the alpha-power model uses to fade the overdrive
/// in around threshold. Exported (rather than kept file-static) so the
/// batched device evaluator (spice::DeviceBatch) runs the *same*
/// function — its lanes must be bitwise-identical to evaluate().
SoftplusEval softplus_blend(double x, double s);

/// Threshold voltage magnitude at temperature `temp_k` [V].
double threshold_voltage(const MosfetParams& p, double temp_k);

/// Mobility scale factor mu(T)/mu(t0) (dimensionless, 1 at t0).
double mobility_factor(const MosfetParams& p, double temp_k);

/// Saturation current magnitude for gate overdrive `vgs` (magnitude) at
/// `temp_k`. Smoothly approaches ~0 below threshold (softplus blend).
double saturation_current(const MosfetParams& p, const MosGeometry& g,
                          double vgs, double temp_k);

/// Same, with the mobility factor supplied by the caller: `mu` must be
/// mobility_factor(p, temp_k). It depends only on the device card and
/// the temperature, so a caller evaluating many instances of one card at
/// one temperature forms it once.
double saturation_current(const MosfetParams& p, const MosGeometry& g,
                          double vgs, double temp_k, double mu);

/// One device instance's saturation-current constants: everything the
/// I-V law needs that does not depend on temperature, with kp * (W/L)
/// folded into one current factor. Built by bind_device().
struct BoundDevice {
    double kw = 0.0;         ///< kp * (W/L) [A / V^alpha].
    double vth0 = 0.0;       ///< Threshold voltage magnitude at t0 [V].
    double vth_tc = 0.0;     ///< kappa [V/K].
    double t0 = 300.0;       ///< Reference temperature [K].
    double smoothing = 0.03; ///< Softplus width [V].
    double alpha = 1.3;      ///< Velocity-saturation index.
};

/// Binds card `p` to geometry `g`. Throws std::invalid_argument unless
/// W and L are > 0 and alpha is in [1, 2]: the checks the geometry forms
/// of saturation_current() run on every call.
BoundDevice bind_device(const MosfetParams& p, const MosGeometry& g);

/// Saturation current of a bound device; `mu` must be
/// mobility_factor(p, temp_k) of its card. The I-V law is written here
/// once: both geometry forms forward to it, so all three are bitwise
/// equal. Checks only the temperature.
double saturation_current(const BoundDevice& d, double vgs, double temp_k,
                          double mu);

/// Saturation voltage Vdsat for the given gate overdrive (magnitude).
double saturation_voltage(const MosfetParams& p, double vgs, double temp_k);

/// Full I-V evaluation with derivatives, for the circuit simulator.
/// `vgs` and `vds` are magnitudes in the device polarity convention;
/// vds < 0 is handled by source/drain symmetry.
MosEval evaluate(const MosfetParams& p, const MosGeometry& g,
                 double vgs, double vds, double temp_k);

/// Gate capacitance of an instance [F].
double gate_capacitance(const MosfetParams& p, const MosGeometry& g);

/// Drain junction capacitance of an instance [F].
double drain_capacitance(const MosfetParams& p, const MosGeometry& g);

} // namespace stsense::phys
