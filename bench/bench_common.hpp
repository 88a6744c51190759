// Shared helpers for the reproduction benches: uniform banners and the
// shape-check protocol. Every bench prints the paper-shaped series and
// then PASS/FAIL lines for the qualitative claims it reproduces; the
// process exit code reflects the checks so CI can gate on them.
#pragma once

#include "util/table.hpp"

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

namespace stsense::bench {

/// Prints the bench banner (experiment id + paper artifact).
inline void banner(const std::string& id, const std::string& title) {
    std::cout << "================================================================\n"
              << id << " — " << title << "\n"
              << "================================================================\n";
}

/// Wall time [s] of one call of `f`. Snapshots report it; no shape
/// check gates on it (the host's timing noise is too large for that).
template <class F>
double wall_seconds(F&& f) {
    const auto start = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

/// Collects named boolean claims and renders the PASS/FAIL summary.
class ShapeChecks {
public:
    void expect(const std::string& claim, bool ok) {
        results_.emplace_back(claim, ok);
    }

    /// Prints all checks; returns the process exit code (0 = all pass).
    int report() const {
        std::cout << "\nshape checks:\n";
        bool all = true;
        for (const auto& [claim, ok] : results_) {
            std::cout << "  [" << (ok ? "PASS" : "FAIL") << "] " << claim << "\n";
            all = all && ok;
        }
        std::cout << (all ? "ALL SHAPE CHECKS PASSED\n"
                          : "SHAPE CHECK FAILURES PRESENT\n");
        return all ? 0 : 1;
    }

private:
    std::vector<std::pair<std::string, bool>> results_;
};

} // namespace stsense::bench
