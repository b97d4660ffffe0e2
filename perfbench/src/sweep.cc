// Workload `sweep`: the paper study as users run it.
//
// Inputs from the seed: the pipeline seed, which drives every TGA's
// randomness and the scan order. The fixture — the simulated Internet and
// the 12-source seed dataset the Workbench collects — is the Workbench
// default, so seed rows have the same sizes on every run.
//
// One round runs all 8 paper TGAs on 4 seed rows of the RQ1/RQ2 study —
// All, Active-Inactive (joint dealiased), All Active, and the
// port-matched row — on ICMP and TCP443, at a budget of 20,000 per run:
// 8 ScanSession::sweep() calls of 8 runs each, jobs = min(4, nproc).
// Rounds repeat until --seconds have passed. op_geomean_s is the
// geometric mean over the 8 (seed row, port) calls of each call's median
// wall time, so a change that speeds up only the small rows moves it as
// much as one on the large rows.
//
// The traced run drives the same 64 runs through run_tga() directly,
// with the same jobs, handing each a pass-through TargetGenerator that
// records prepare / next_batch / observe spans; its outcomes must equal
// the ScanSession outcomes field by field.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "dealias/dealiaser.h"
#include "experiment/pipeline.h"
#include "experiment/session.h"
#include "experiment/workbench.h"
#include "metrics/scan_outcome.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "runtime/thread_pool.h"
#include "tga/registry.h"
#include "tga/target_generator.h"
#include "trace.h"

namespace perfbench {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kBudget = 20'000;
constexpr std::array<ProbeType, 2> kPorts = {ProbeType::kIcmp,
                                             ProbeType::kTcp443};
constexpr std::array<const char*, 4> kRowNames = {"All", "Active-Inactive",
                                                  "All Active", "Port"};

/// One sweep() call: a seed row on a port.
struct Call {
  ProbeType port{};
  int row = 0;
  std::span<const Ipv6Addr> seeds;
};

std::vector<Call> make_calls(v6::experiment::Workbench& bench) {
  std::vector<Call> calls;
  for (const ProbeType port : kPorts) {
    const std::array<const std::vector<Ipv6Addr>*, 4> rows = {
        &bench.full(), &bench.dealiased(v6::dealias::DealiasMode::kJoint),
        &bench.all_active(), &bench.port_specific(port)};
    for (int row = 0; row < 4; ++row) {
      calls.push_back({port, row, *rows[static_cast<std::size_t>(row)]});
    }
  }
  return calls;
}

v6::experiment::PipelineConfig call_config(const Call& call,
                                           std::uint64_t seed) {
  return v6::experiment::PipelineConfig{}
      .with_budget(kBudget)
      .with_type(call.port)
      .with_seed(derive_seed(seed, 0x919E));
}

/// Order-independent hash of a set's members.
template <typename Set, typename Key>
std::uint64_t set_hash(const Set& set, Key key) {
  std::uint64_t h = 0;
  for (const auto& member : set) h += v6::net::splitmix64(key(member));
  return h;
}

std::uint64_t addr_key(const Ipv6Addr& a) {
  return v6::net::splitmix64(a.hi()) ^ a.lo();
}

void digest_outcome(Digest& d, v6::tga::TgaKind kind,
                    const v6::metrics::ScanOutcome& o) {
  d.add(static_cast<std::uint64_t>(kind));
  for (const std::uint64_t v : {o.generated, o.unique_generated, o.responsive,
                                o.aliases, o.dense_filtered, o.packets,
                                o.hits(), o.ases()}) {
    d.add(v);
  }
  d.add_double(o.virtual_seconds);
  d.add(set_hash(o.hit_set, addr_key));
  d.add(set_hash(o.as_set, [](std::uint32_t asn) { return asn; }));
}

bool outcomes_equal(const v6::metrics::ScanOutcome& a,
                    const v6::metrics::ScanOutcome& b) {
  return a.generated == b.generated &&
         a.unique_generated == b.unique_generated &&
         a.responsive == b.responsive && a.aliases == b.aliases &&
         a.dense_filtered == b.dense_filtered && a.packets == b.packets &&
         a.virtual_seconds == b.virtual_seconds && a.hit_set == b.hit_set &&
         a.as_set == b.as_set;
}

/// Per-run invariants every outcome must satisfy.
bool outcome_sane(const v6::metrics::ScanOutcome& o) {
  return o.generated > 0 && o.generated <= kBudget &&
         o.unique_generated == o.generated && o.responsive <= o.generated &&
         o.aliases + o.dense_filtered + o.hits() <= o.responsive &&
         o.ases() <= o.hits() && o.packets >= o.generated &&
         o.virtual_seconds > 0.0;
}

struct Round {
  std::vector<v6::experiment::TgaRun> runs;  // call-major, kAllTgas order
  std::vector<double> call_walls;
  double wall = 0.0;
  Digest digest;
};

Round run_round(const v6::experiment::Workbench& bench,
                const std::vector<Call>& calls, unsigned jobs,
                std::uint64_t seed) {
  Round round;
  const auto start = Clock::now();
  for (const Call& call : calls) {
    const auto call_start = Clock::now();
    std::vector<v6::experiment::TgaRun> runs =
        v6::experiment::ScanSession(bench.universe(), bench.alias_list())
            .with_seeds(call.seeds)
            .with_config(call_config(call, seed))
            .with_jobs(jobs)
            .sweep();
    round.call_walls.push_back(seconds_since(call_start));
    for (auto& run : runs) round.runs.push_back(std::move(run));
  }
  round.wall = seconds_since(start);
  for (const auto& run : round.runs) {
    digest_outcome(round.digest, run.kind, run.outcome);
  }
  return round;
}

/// Pass-through generator recording a span per prepare() and next_batch()
/// call, and the per-address observe() calls of each scan batch folded
/// into one `tga.observe` span whose busy time is the calls' sum.
class TracedGenerator final : public v6::tga::TargetGenerator {
 public:
  TracedGenerator(std::unique_ptr<v6::tga::TargetGenerator> inner,
                  Tracer& tracer, std::int64_t parent, std::uint64_t run)
      : inner_(std::move(inner)),
        tracer_(tracer),
        parent_(parent),
        run_(run),
        prefix_("tga." + std::string(inner_->name()) + ".") {}

  ~TracedGenerator() override { flush_observe(); }
  TracedGenerator(const TracedGenerator&) = delete;
  TracedGenerator& operator=(const TracedGenerator&) = delete;

  std::string_view name() const override { return inner_->name(); }
  bool is_online() const override { return inner_->is_online(); }

  void prepare(std::span<const Ipv6Addr> seeds,
               std::uint64_t rng_seed) override {
    const Scope span(&tracer_, prefix_ + "prepare", parent_, run_);
    inner_->prepare(seeds, rng_seed);
  }

  std::vector<Ipv6Addr> next_batch(std::size_t n) override {
    flush_observe();
    const Scope span(&tracer_, prefix_ + "generate", parent_, run_);
    std::vector<Ipv6Addr> batch = inner_->next_batch(n);
    generated_ += batch.size();
    return batch;
  }

  void observe(const Ipv6Addr& addr, bool active) override {
    const std::int64_t t0 = tracer_.now_ns();
    inner_->observe(addr, active);
    const std::int64_t t1 = tracer_.now_ns();
    if (observe_.busy_ns == 0 && observe_.start_ns == 0) observe_.start_ns = t0;
    observe_.end_ns = t1;
    observe_.busy_ns += t1 - t0;
  }

  bool absorb_seeds(std::span<const Ipv6Addr> added) override {
    return inner_->absorb_seeds(added);
  }

  void attach_online_dealiaser(v6::dealias::OnlineDealiaser* dealiaser,
                               ProbeType type) override {
    inner_->attach_online_dealiaser(dealiaser, type);
  }

  std::uint64_t generated() const { return generated_; }

 private:
  void flush_observe() {
    if (observe_.end_ns == 0) return;
    observe_.id = tracer_.next_id();
    observe_.parent = parent_;
    observe_.run = run_;
    observe_.name = "tga.observe";
    observe_.thread = tracer_.thread_index();
    tracer_.record(observe_);
    observe_ = SpanRecord{};
  }

  std::unique_ptr<v6::tga::TargetGenerator> inner_;
  Tracer& tracer_;
  std::int64_t parent_;
  std::uint64_t run_;
  std::string prefix_;
  SpanRecord observe_;
  std::uint64_t generated_ = 0;
};

struct TracedRound {
  std::vector<v6::metrics::ScanOutcome> outcomes;  // same order as Round
  std::vector<double> call_walls;
  double idle_s = 0.0;
  unsigned max_threads = 0;
  std::uint64_t generated = 0;
};

/// The round again through run_tga with traced generators, `jobs` runs at
/// a time like ScanSession::sweep (one parallel_for per call).
TracedRound run_traced_round(const v6::experiment::Workbench& bench,
                             const std::vector<Call>& calls, unsigned jobs,
                             std::uint64_t seed, Tracer& tracer) {
  TracedRound out;
  const std::size_t n = v6::tga::kAllTgas.size();
  out.outcomes.resize(calls.size() * n);
  std::vector<std::uint64_t> generated(calls.size() * n, 0);
  std::vector<std::int64_t> task_busy(calls.size() * n, 0);
  std::vector<unsigned> task_thread(calls.size() * n, 0);
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const Call& call = calls[c];
    const v6::experiment::PipelineConfig base = call_config(call, seed);
    const auto call_start = Clock::now();
    v6::runtime::parallel_for(jobs, n, [&](std::size_t i) {
      const std::size_t slot = c * n + i;
      const std::int64_t t0 = tracer.now_ns();
      {
        // experiment.task self time is the benchmark's own glue (the
        // per-run Telemetry and its report); the coverage check leaves
        // it out.
        const Scope task(&tracer, "experiment.task", -1, slot);
        v6::obs::Telemetry local;
        v6::experiment::PipelineConfig config = base;
        config.telemetry = &local;
        std::unique_ptr<v6::tga::TargetGenerator> inner;
        {
          const Scope make(&tracer, "tga.make_generator", task.id(), slot);
          inner = v6::tga::make_generator(v6::tga::kAllTgas[i]);
        }
        const Scope run(&tracer, "experiment.run_tga", task.id(), slot);
        TracedGenerator generator(std::move(inner), tracer, run.id(), slot);
        out.outcomes[slot] = v6::experiment::run_tga(
            bench.universe(), generator, call.seeds, bench.alias_list(),
            config);
        generated[slot] = generator.generated();
        // ScanSession::sweep keeps each run's report; take it here too so
        // both paths do the same work.
        const v6::obs::Report report = local.registry().snapshot();
      }
      task_busy[slot] = tracer.now_ns() - t0;
      task_thread[slot] = tracer.thread_index();
    });
    const double wall = seconds_since(call_start);
    out.call_walls.push_back(wall);
    double busy = 0.0;
    std::vector<unsigned> threads;
    for (std::size_t i = 0; i < n; ++i) {
      busy += static_cast<double>(task_busy[c * n + i]) * 1e-9;
      threads.push_back(task_thread[c * n + i]);
    }
    std::sort(threads.begin(), threads.end());
    const auto distinct = static_cast<unsigned>(
        std::unique(threads.begin(), threads.end()) - threads.begin());
    out.max_threads = std::max(out.max_threads, distinct);
    out.idle_s += static_cast<double>(jobs) * wall - busy;
  }
  for (const std::uint64_t g : generated) out.generated += g;
  return out;
}

}  // namespace

Result run_sweep(const Options& options) {
  Result result;
  const unsigned nproc = host_nproc();
  const unsigned jobs = std::min(4U, nproc);
  result.facts["nproc"] = std::to_string(nproc);
  result.facts["jobs"] = std::to_string(jobs);
  result.facts["shards"] = "0";
  result.facts["load_threads"] = std::to_string(jobs);
  result.facts["budget_per_run"] = std::to_string(kBudget);
  result.check(jobs <= nproc, "load-generator threads <= nproc");

  // ---- Setup: Workbench construction + precompute, several times.
  std::vector<double> setup_samples;
  double construct_s = 0.0, precompute_s = 0.0;
  std::optional<v6::experiment::Workbench> bench;
  for (int i = 0; i < kSetupRepeats; ++i) {
    bench.reset();
    const auto start = Clock::now();
    bench.emplace(v6::experiment::WorkbenchConfig{});
    construct_s = seconds_since(start);
    const auto precompute_start = Clock::now();
    bench->precompute(jobs);
    precompute_s = seconds_since(precompute_start);
    setup_samples.push_back(seconds_since(start));
  }
  const std::vector<Call> calls = make_calls(*bench);
  for (const Call& call : calls) {
    result.facts["seeds." + std::string(v6::net::to_string(call.port)) + "." +
                 kRowNames[static_cast<std::size_t>(call.row)]] =
        std::to_string(call.seeds.size());
  }

  // ---- Measured rounds (untraced). Each round is checked as it ends;
  // only round 0 keeps its outcomes (the traced run compares against
  // them), so peak RSS does not grow with the number of rounds.
  std::vector<Round> rounds;
  std::uint64_t generated = 0, hits = 0;
  const auto measure_start = Clock::now();
  do {
    rounds.push_back(run_round(*bench, calls, jobs, options.seed));
    Round& round = rounds.back();
    for (std::size_t i = 0; i < round.runs.size(); ++i) {
      const v6::experiment::TgaRun& run = round.runs[i];
      const v6::tga::TgaKind expected =
          v6::tga::kAllTgas[i % v6::tga::kAllTgas.size()];
      result.check(run.kind == expected && outcome_sane(run.outcome),
                   "sweep run " + std::to_string(i) + " (" +
                       std::string(v6::tga::to_string(run.kind)) +
                       ") outcome invariants");
      generated += run.outcome.generated;
      hits += run.outcome.hits();
    }
    if (rounds.size() > 1) {
      result.check(round.digest.value() == rounds[0].digest.value(),
                   "sweep round " + std::to_string(rounds.size() - 1) +
                       " repeats round 0");
      round.runs = {};
    }
  } while (!options.trace && seconds_since(measure_start) < options.seconds);
  result.digest = rounds[0].digest.hex();

  std::vector<double> round_walls;
  // cell_walls[c]: the walls of call c (one seed row on one port) over
  // the rounds.
  std::vector<std::vector<double>> cell_walls(calls.size());
  double call_total = 0.0;
  for (const Round& r : rounds) {
    round_walls.push_back(r.wall);
    for (std::size_t c = 0; c < r.call_walls.size(); ++c) {
      cell_walls[c].push_back(r.call_walls[c]);
      call_total += r.call_walls[c];
    }
  }
  result.note("sweep_s", median(round_walls), "s");
  result.note("sweep.hits", static_cast<double>(hits / rounds.size()), "count");
  result.note("rounds", static_cast<double>(rounds.size()), "count");

  if (!options.trace) {
    result.set("setup_s", median(setup_samples), "s");
    result.set("peak_rss_mib", peak_rss_mib(), "MiB");
    std::vector<double> cell_medians;
    for (const auto& walls : cell_walls) cell_medians.push_back(median(walls));
    result.set("op_geomean_s", geomean(cell_medians), "s");
    result.set("rate_per_s", static_cast<double>(generated) / call_total,
               "1/s");
    return result;
  }

  // ---- Traced run.
  Tracer tracer;
  const TracedRound traced =
      run_traced_round(*bench, calls, jobs, options.seed, tracer);
  bool equal = traced.outcomes.size() == rounds[0].runs.size();
  for (std::size_t i = 0; equal && i < traced.outcomes.size(); ++i) {
    equal = outcomes_equal(traced.outcomes[i], rounds[0].runs[i].outcome);
  }
  result.check(equal,
               "traced run_tga outcomes field-equal to ScanSession outcomes");
  Digest traced_digest;
  for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
    digest_outcome(traced_digest,
                   v6::tga::kAllTgas[i % v6::tga::kAllTgas.size()],
                   traced.outcomes[i]);
  }
  result.check(traced_digest.value() == rounds[0].digest.value(),
               "traced sweep outcome digest equals the untraced digest");
  result.digest = traced_digest.hex();
  result.check(traced.max_threads <= jobs,
               "traced runs used at most jobs threads per call");

  const std::map<std::string, double> self = tracer.self_seconds();
  double traced_wall = 0.0;
  for (const double w : traced.call_walls) traced_wall += w;
  // Idle is jobs x wall minus the task spans, so the task spans' self
  // time (benchmark glue) is the one share the layer spans and idle do
  // not account for; coverage below 0.98 means glue or mis-nested spans
  // hide more than 2% of the time.
  double covered = 0.0;
  bool non_negative = true;
  for (const auto& [name, seconds] : self) {
    if (name != "experiment.task") covered += seconds;
    non_negative = non_negative && seconds >= 0.0;
  }
  const double coverage =
      (covered + traced.idle_s) / (static_cast<double>(jobs) * traced_wall);
  result.check(non_negative && traced.idle_s >= 0.0 && coverage >= 0.98 &&
                   coverage <= 1.0001,
               "layer span self times + idle cover jobs x traced wall "
               "(coverage " +
                   std::to_string(coverage) + ")");

  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  for (const v6::tga::TgaKind kind : v6::tga::kAllTgas) {
    const std::string prefix = "tga." + std::string(v6::tga::to_string(kind));
    result.set(prefix + ".prepare_s", self_of(prefix + ".prepare"), "s");
    result.set(prefix + ".generate_s", self_of(prefix + ".generate"), "s");
  }
  std::uint64_t traced_hits = 0, traced_generated = 0;
  for (const auto& o : traced.outcomes) {
    traced_hits += o.hits();
    traced_generated += o.generated;
  }
  result.check(traced.generated == traced_generated,
               "generator-side and pipeline-side generated counts agree");
  result.set("tga.observe_s", self_of("tga.observe"), "s");
  result.set("tga.generated", static_cast<double>(traced.generated), "count");
  result.set("sweep.hits_per_generated",
             static_cast<double>(traced_hits) /
                 static_cast<double>(traced_generated),
             "ratio");
  result.set("experiment.residual_s", self_of("experiment.run_tga"), "s");
  result.set("experiment.idle_s", traced.idle_s, "s");
  result.set("experiment.parallel_efficiency",
             1.0 - traced.idle_s / (static_cast<double>(jobs) * traced_wall),
             "ratio");
  result.set("workbench.construct_s", construct_s, "s");
  result.set("workbench.precompute_s", precompute_s, "s");
  double untraced_calls = 0.0;
  for (const double w : rounds[0].call_walls) untraced_calls += w;
  result.set("trace.overhead_ratio", traced_wall / untraced_calls, "ratio");
  result.set("trace.coverage", coverage, "ratio");
  if (!options.trace_out.empty() &&
      !tracer.write_jsonl(options.trace_out, "sweep", options.seed)) {
    result.check(false, "writing spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
