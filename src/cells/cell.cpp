#include "cells/cell.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace stsense::cells {

std::string to_string(CellKind kind) {
    switch (kind) {
        case CellKind::Inv: return "INV";
        case CellKind::Nand2: return "NAND2";
        case CellKind::Nand3: return "NAND3";
        case CellKind::Nor2: return "NOR2";
        case CellKind::Nor3: return "NOR3";
    }
    throw std::invalid_argument("to_string: bad CellKind");
}

CellKind cell_kind_from_string(const std::string& name) {
    for (CellKind k : kAllCellKinds) {
        if (to_string(k) == name) return k;
    }
    throw std::invalid_argument("unknown cell kind: " + name);
}

int input_count(CellKind kind) {
    switch (kind) {
        case CellKind::Inv: return 1;
        case CellKind::Nand2:
        case CellKind::Nor2: return 2;
        case CellKind::Nand3:
        case CellKind::Nor3: return 3;
    }
    throw std::invalid_argument("input_count: bad CellKind");
}

int nmos_stack_depth(CellKind kind) {
    switch (kind) {
        case CellKind::Inv:
        case CellKind::Nor2:
        case CellKind::Nor3: return 1;
        case CellKind::Nand2: return 2;
        case CellKind::Nand3: return 3;
    }
    throw std::invalid_argument("nmos_stack_depth: bad CellKind");
}

int pmos_stack_depth(CellKind kind) {
    switch (kind) {
        case CellKind::Inv:
        case CellKind::Nand2:
        case CellKind::Nand3: return 1;
        case CellKind::Nor2: return 2;
        case CellKind::Nor3: return 3;
    }
    throw std::invalid_argument("pmos_stack_depth: bad CellKind");
}

std::string describe(const CellSpec& spec) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " x%.2g r=%.2f%s", spec.drive, spec.ratio,
                  spec.tie == SideInputTie::Bridge ? " bridge" : "");
    return to_string(spec.kind) + buf;
}

void validate(const CellSpec& spec) {
    // Written to fail on NaN: a delay model binds these once.
    if (!(std::isfinite(spec.drive) && spec.drive > 0.0)) {
        throw std::invalid_argument("CellSpec: drive must be finite and > 0");
    }
    if (!(std::isfinite(spec.ratio) && spec.ratio >= 0.0)) {
        throw std::invalid_argument("CellSpec: ratio must be finite and >= 0");
    }
    if (!(spec.vth_shift_v >= -0.2 && spec.vth_shift_v <= 0.2)) {
        throw std::invalid_argument("CellSpec: |vth_shift_v| above 200 mV is not mismatch");
    }
    // Exhaustiveness check on the kind.
    (void)input_count(spec.kind);
}

} // namespace stsense::cells
