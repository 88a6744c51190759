// stsense_perfbench — the benchmark harness binary. One process runs one
// workload and writes one report; run.py builds it, runs it and turns
// the report into the benchmark's result line.
//
//   stsense_perfbench --workload design_spice --seed 3 --seconds 10
//                     --trace 0 --report out.json [--reference ref.json]
//                     [--trace-dump window.json] [--scratch DIR]
//                     [--setups N] [--smoke]
//                     [--write-reference]
//
// Exit status: 0 when the run completed and every output check passed,
// 1 when an output check failed (the report says which), 2 on a usage
// or environment error (no report is written).
#include "common.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

namespace {

perfbench::Args parse_args(int argc, char** argv) {
    perfbench::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
            return argv[++i];
        };
        if (key == "--workload") a.workload = value();
        else if (key == "--seed") a.seed = std::stoull(value());
        else if (key == "--seconds") a.seconds = std::stod(value());
        else if (key == "--trace") a.trace = value() != "0";
        else if (key == "--report") a.report = value();
        else if (key == "--reference") a.reference = value();
        else if (key == "--trace-dump") a.trace_dump = value();
        else if (key == "--scratch") a.scratch = value();
        else if (key == "--setups") a.setups = std::stoi(value());
        else if (key == "--smoke") a.smoke = true;
        else if (key == "--write-reference") a.write_reference = true;
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty() || a.report.empty()) {
        throw std::invalid_argument("--workload and --report are required");
    }
    if (!(a.seconds > 0.0) || a.setups < 1) {
        throw std::invalid_argument("--seconds and --setups must be positive");
    }
    return a;
}

} // namespace

int main(int argc, char** argv) {
    perfbench::Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "stsense_perfbench: " << e.what() << "\n";
        return 2;
    }

    perfbench::Report report;
    int rc = 0;
    try {
        report.doc.set("workload", args.workload);
        report.doc.set("seed", args.seed);
        report.doc.set("seconds", args.seconds);
        report.doc.set("trace", args.trace);
        report.doc.set("smoke", args.smoke);
        report.doc.set("write_reference", args.write_reference);
        if (args.workload == "design_spice") {
            rc = perfbench::run_design_spice(args, report);
        } else if (args.workload == "population_mc") {
            rc = perfbench::run_population_mc(args, report);
        } else if (args.workload == "telemetry_mix") {
            rc = perfbench::run_telemetry_mix(args, report);
        } else {
            std::cerr << "stsense_perfbench: unknown workload " << args.workload << "\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "stsense_perfbench: " << e.what() << "\n";
        return 2;
    }
    if (report.failed > 0) rc = 1;
    report.write(args.report);
    return rc;
}
