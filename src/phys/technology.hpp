// Technology descriptors: supply, minimum geometry, and the NMOS/PMOS
// model cards. Presets model generic 0.35 um / 0.18 um / 0.13 um CMOS
// nodes (the paper simulates "a CMOS technology" and motivates the work
// with 0.35 um and 0.13 um examples).
//
// The absolute numbers are representative textbook values, not foundry
// data; DESIGN.md documents this substitution. Every experiment is a
// *relative* comparison (non-linearity of one configuration vs another),
// which is robust to the absolute calibration.
#pragma once

#include "phys/mosfet.hpp"

#include <string>

namespace stsense::phys {

/// One CMOS process node.
struct Technology {
    std::string name;

    double vdd = 3.3;        ///< Nominal supply [V].
    double lmin = 0.35e-6;   ///< Minimum (and default) channel length [m].
    double wmin = 0.5e-6;    ///< Minimum channel width [m].

    MosfetParams nmos;
    MosfetParams pmos;

    double unit_nmos_width = 1.0e-6; ///< NMOS width of a 1x-drive cell [m].
    double library_ratio = 2.0;      ///< Wp/Wn of the stock library cells.
    double wire_cap_per_stage = 0.0; ///< Extra fixed load per ring node [F].
};

/// Generic 0.35 um node (Vdd = 3.3 V). Primary node for all paper
/// experiments; its parameters place the linearity optimum inside the
/// paper's ratio family {1.75, 2.25, 3, 4}.
Technology cmos350();

/// Generic 0.18 um node (Vdd = 1.8 V), for scaling studies.
Technology cmos180();

/// Generic 0.13 um node (Vdd = 1.2 V), for scaling studies (the paper's
/// intro motivates thermal monitoring with 0.13 um junction temperatures).
Technology cmos130();

/// Looks a preset up by name ("cmos350", "cmos180", "cmos130");
/// throws std::invalid_argument for unknown names.
Technology technology_by_name(const std::string& name);

/// Validates invariants (every field finite, positive voltages/geometry,
/// model sanity); throws std::invalid_argument with a descriptive message
/// on violation.
void validate(const Technology& tech);

} // namespace stsense::phys
