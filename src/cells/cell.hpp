// Standard-cell descriptors.
//
// The paper's contribution is that a ring oscillator composed from
// *stock inverting cells* (INV, NAND, NOR) can be linearity-optimized by
// choosing the cell mix, with no custom transistor sizing. CellSpec
// describes one such stage: which cell, at which drive strength, and —
// for the transistor-level study of Fig. 2 — an optional Wp/Wn override.
#pragma once

#include <string>

namespace stsense::cells {

/// Inverting standard cells available as ring stages.
enum class CellKind {
    Inv,
    Nand2,
    Nand3,
    Nor2,
    Nor3,
};

/// All kinds, for sweeps.
inline constexpr CellKind kAllCellKinds[] = {CellKind::Inv, CellKind::Nand2,
                                             CellKind::Nand3, CellKind::Nor2,
                                             CellKind::Nor3};

/// Cell name as used in tables ("INV", "NAND2", ...).
std::string to_string(CellKind kind);

/// Parses a cell name; throws std::invalid_argument for unknown names.
CellKind cell_kind_from_string(const std::string& name);

/// Number of logic inputs.
int input_count(CellKind kind);

/// Series-connected NMOS devices in the pull-down path.
int nmos_stack_depth(CellKind kind);

/// Series-connected PMOS devices in the pull-up path.
int pmos_stack_depth(CellKind kind);

/// How the non-switching inputs of a multi-input cell are tied when the
/// cell is used as an inverting ring stage.
enum class SideInputTie {
    /// NAND side inputs to VDD, NOR side inputs to GND (cell acts as an
    /// inverter through the remaining input). Default; keeps the input
    /// load of the stage equal to a single input pin.
    Supply,
    /// All inputs bridged together: every transistor switches. Loads the
    /// driving stage with all input pins.
    Bridge,
};

/// One ring stage.
struct CellSpec {
    CellKind kind = CellKind::Inv;
    double drive = 1.0;  ///< Multiplies the technology unit widths. > 0.
    double ratio = 0.0;  ///< Wp/Wn; 0 selects the library ratio.
    SideInputTie tie = SideInputTie::Supply;
    /// Local threshold-voltage shift of this instance's devices [V]
    /// (within-die mismatch; applied to both polarities). Unlike width
    /// mismatch — which cancels to first order around a ring because
    /// drive current and input capacitance scale together — Vth mismatch
    /// shifts the period linearly, so it dominates sensor-to-sensor
    /// spread on one die.
    double vth_shift_v = 0.0;

    friend bool operator==(const CellSpec&, const CellSpec&) = default;
};

/// Short printable form, e.g. "NAND2 x1 r=2.00".
std::string describe(const CellSpec& spec);

/// Validates a spec (drive finite and > 0, ratio finite and >= 0,
/// |vth_shift_v| <= 0.2 V); throws std::invalid_argument on violation.
void validate(const CellSpec& spec);

} // namespace stsense::cells
