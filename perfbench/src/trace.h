// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public functions;
// nothing inside src/ is instrumented. A span has a name
// ("<layer>.<what>"), start and end on the steady clock, the span that
// caused it, and the id of the run (one TGA run, one scan pass, one
// refresh cycle) it belongs to. `busy` is the time the span actually
// covered — equal to end - start except for coalesced spans (per-address
// TGA feedback calls folded into one span per scan batch).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t run = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  /// Small per-tracer thread index (0 = the thread that built the tracer).
  unsigned thread = 0;
};

class Tracer {
 public:
  Tracer();

  /// Nanoseconds since the tracer was built.
  std::int64_t now_ns() const;
  std::int64_t next_id() { return next_id_.fetch_add(1); }
  /// Index of the calling thread (assigned on first use).
  unsigned thread_index();

  void record(SpanRecord span);

  /// Every recorded span, ordered by id.
  std::vector<SpanRecord> spans() const;

  /// Self time per span name: busy time minus the busy time of its
  /// direct children, in seconds. Negative self time (a child outlasting
  /// its parent) is reported as-is so the coverage check can catch it.
  std::map<std::string, double> self_seconds() const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool write_jsonl(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, unsigned> threads_;
};

/// RAII span. A null tracer makes it inert.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::int64_t parent = -1,
        std::uint64_t run = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// Sum of self time over every span whose name starts with `prefix`.
double self_with_prefix(const std::map<std::string, double>& self,
                        const std::string& prefix);

}  // namespace perfbench
