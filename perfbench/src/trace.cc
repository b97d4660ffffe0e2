#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

unsigned Tracer::thread_index() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, fresh] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<unsigned>(threads_.size()));
  return it->second;
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::int64_t, std::int64_t> child_busy;
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) child_busy[s.parent] += s.busy_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : all) {
    const auto it = child_busy.find(s.id);
    const std::int64_t children = it == child_busy.end() ? 0 : it->second;
    self[s.name] += static_cast<double>(s.busy_ns - children) * 1e-9;
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path, const std::string& workload,
                         std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans()) {
    out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << ",\"thread\":" << s.thread
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"busy_ns\":" << s.busy_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

Scope::Scope(Tracer* tracer, std::string name, std::int64_t parent,
             std::uint64_t run)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  record_.run = run;
  record_.name = std::move(name);
  record_.thread = tracer_->thread_index();
  record_.start_ns = tracer_->now_ns();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->now_ns();
  record_.busy_ns = record_.end_ns - record_.start_ns;
  tracer_->record(std::move(record_));
}

double self_with_prefix(const std::map<std::string, double>& self,
                        const std::string& prefix) {
  double total = 0.0;
  for (const auto& [name, seconds] : self) {
    if (name.rfind(prefix, 0) == 0) total += seconds;
  }
  return total;
}

}  // namespace perfbench
