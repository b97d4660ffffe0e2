// perfbench: the repository benchmark.
//
//   perfbench --workload sweep|scan|serve --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload in this process. Standard output carries a readable
// record (skipped passes, every metric and figure by name and unit, the
// outcome digest), then one JSON record line that adds the host and load
// facts, and last the result line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced;
// with --trace 1 they are the per-layer set, measured by a traced run
// that records spans around every call into a layer (trace.h). Exit code
// 0 on a completed run (also when a correctness check failed: that shows
// in "correct"), 2 on bad arguments, 1 on an unexpected error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|scan|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    usage(flag + " out of range: '" + text + "'");
  }
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      options.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.workload != "sweep" && options.workload != "scan" &&
      options.workload != "serve") {
    usage("unknown workload '" + options.workload + "'");
  }
  return options;
}

/// Every digit of a measured value. JSON has no NaN or infinity; such a
/// value is printed as 0 and already failed the finiteness check.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, perfbench::Metric>& m) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
        << number(metric.value) << ", \"unit\": " << quoted(metric.unit)
        << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Result result;
  try {
    if (options.workload == "sweep") {
      result = perfbench::run_sweep(options);
    } else if (options.workload == "scan") {
      result = perfbench::run_scan(options);
    } else {
      result = perfbench::run_serve(options);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload
              << " aborted: " << error.what() << "\n";
    return 1;
  }

  // A value that is not a finite number cannot be compared run to run.
  for (auto& [name, metric] : result.metrics) {
    result.check(std::isfinite(metric.value), "metric " + name + " is finite");
  }
  if (result.attempted == 0) result.check(false, "workload checked nothing");
  const double error_rate = static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);
  result.note("error_rate", error_rate, "ratio");
  result.facts["build_type"] = PERFBENCH_BUILD_TYPE;
  result.facts["workload_seed"] = std::to_string(options.seed);
  result.facts["traced"] = options.trace ? "1" : "0";

  std::cout << "perfbench " << options.workload << " (seed " << options.seed
            << ", " << (options.trace ? "traced" : "untraced") << ")\n";
  for (const std::string& why : result.skipped) {
    std::cout << "  SKIPPED " << why << "\n";
  }
  for (const auto* group : {&result.metrics, &result.extra}) {
    for (const auto& [name, metric] : *group) {
      std::cout << "  " << (group == &result.metrics ? "metric" : "figure")
                << " " << name << " = " << number(metric.value) << " "
                << metric.unit << "\n";
    }
  }
  std::cout << "  digest " << result.digest << "\n";

  std::ostringstream facts;
  facts << "{";
  bool first = true;
  for (const auto& [key, value] : result.facts) {
    facts << (first ? "" : ", ") << quoted(key) << ": " << quoted(value);
    first = false;
  }
  facts << "}";
  std::ostringstream skipped;
  skipped << "[";
  for (std::size_t i = 0; i < result.skipped.size(); ++i) {
    skipped << (i == 0 ? "" : ", ") << quoted(result.skipped[i]);
  }
  skipped << "]";
  std::cout << "record {\"workload\": " << quoted(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"traced\": " << (options.trace ? "true" : "false")
            << ", \"host\": " << facts.str()
            << ", \"skipped\": " << skipped.str()
            << ", \"digest\": " << quoted(result.digest)
            << ", \"figures\": " << metrics_json(result.extra) << "}\n";

  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(result.metrics) << "}"
            << std::endl;
  return 0;
}
