// Shared plumbing of the repository benchmark: command-line options, the
// result record every workload fills in, host facts, and small statistics
// helpers. Each workload (sweep.cc, scan.cc, serve.cc) drives only the
// public APIs of the library modules under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Target length of the measured phase; each workload runs whole
  /// units of work until it is reached (and at least its minimum count).
  double seconds = 10.0;
  /// true: the traced run (per-layer metrics); false: end-to-end metrics.
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// One named figure with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the correctness tally, the
/// metrics for the final JSON line, and everything else the record shows.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metrics of the final line: the end-to-end set (untraced run) or the
  /// per-layer set (traced run).
  std::map<std::string, Metric> metrics;
  /// Further figures shown in the record but not in the final line, e.g.
  /// each workload's own headline numbers and the error rate.
  std::map<std::string, Metric> extra;
  /// Host and load facts: nproc, jobs, shards, threads, build type, seed.
  std::map<std::string, std::string> facts;
  /// Passes the workload could not run on this host, with the reason.
  std::vector<std::string> skipped;
  /// Outcome digest: a hash over every deterministic output, printed so
  /// two runs (or a traced and an untraced run) can be compared.
  std::string digest;

  /// Counts one checked operation; a false `ok` is a failure and logs
  /// `what` on stderr.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra[name] = Metric{value, unit};
  }
};

Result run_sweep(const Options& options);
Result run_scan(const Options& options);
Result run_serve(const Options& options);

/// Online processors (sched_getaffinity, else hardware_concurrency).
unsigned host_nproc();
/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mib();
/// Last-level cache size in bytes as the C library reports it (0 if
/// unknown).
std::uint64_t llc_bytes();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Geometric mean of positive `values`; 0 if empty. A change of x% in
/// any one of n values moves it by about x/n%, whichever value it is.
double geomean(const std::vector<double>& values);

/// Order-sensitive 64-bit digest accumulator (splitmix64 chain).
class Digest {
 public:
  void add(std::uint64_t v);
  void add_double(double v);
  std::uint64_t value() const { return state_; }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0x5EED'0F5C'A221'1A60ULL;
};

/// Derives an independent 64-bit stream key from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench
