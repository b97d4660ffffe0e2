// Workload `serve`: the continuous hitlist service under reads and writes.
//
// The writer side is `sos serve` with its defaults: the Workbench default
// Internet and seed collection, the All Active row as the initial seeds,
// ServiceConfig defaults (discovery budget 40,000 per cycle, the full TGA
// roster), the default churn model (AgingConfig defaults, one aging step
// per cycle), and every cycle's new hitlist addresses fed back through
// ingest_seeds() (`--feed 1`): incrementally where the model allows
// (6Hit), else a full rebuild. It is fixed, not drawn from the seed: the
// refresh trajectory compounds any difference in the seed list.
//
// Inputs from the seed: the lookup query mix — addresses sampled from the
// Workbench's collected seed dataset (the All row), i.e. a client
// filtering its candidate list through the hitlist, which is what a
// published hitlist is for. The share of them on the hitlist follows from
// the service (about a third at the first measured cycle) and is printed.
//
// Set-up builds the service's own universe, the Workbench and the service,
// and runs cycle 1 (so readers start on a full snapshot). Then a solo
// lookup pass runs against that snapshot, and the measured phase starts:
// one writer thread runs refresh_once() + ingest_seeds() for cycles 2-7
// while the calling thread runs lookup batches against the live snapshot,
// auditing it as it goes (fingerprint re-verification per new epoch,
// monotonic versions, lookup() agreeing with snapshot().contains()). Both
// loops are closed: the next call is issued when the previous one returns.
// A phase has only 6 cycles: from cycle 9 on the default churn has halved
// the hitlist of cycle 1, which the size band check counts as failures. So
// phases repeat, each on a freshly built fixture, until their wall time
// reaches --seconds.
//
// op_geomean_s is the geometric mean of three medians — one batch of 4,096
// lookups, one refresh_once(), one ingest_seeds() — so reader and writer
// regressions both move it; rate_per_s is the lookups per second during
// refresh.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "experiment/workbench.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "runtime/worker_group.h"
#include "service/hitlist_service.h"
#include "service/hitlist_store.h"
#include "simnet/universe.h"
#include "simnet/universe_builder.h"
#include "simnet/universe_config.h"
#include "trace.h"

namespace perfbench {
namespace {

using v6::net::Ipv6Addr;

constexpr int kSetupRepeats = 3;
constexpr int kWarmCycles = 1;
constexpr int kMeasuredCycles = 6;
constexpr std::size_t kQueries = 4096;
constexpr std::uint64_t kSoloLookups = 2'000'000;
/// The hitlist must stay within [1/kBand, kBand] x its size after the
/// warm cycles over the measured cycles; a breach is a failed cycle (a
/// shrinking hitlist inflates the lookup rate).
constexpr double kBand = 2.0;

/// A service after its warm cycles, plus the client-side feed state.
struct Fixture {
  explicit Fixture(v6::simnet::Universe u) : universe(std::move(u)) {}

  v6::experiment::Workbench bench;
  double simnet_build_s = 0.0;
  /// The service's own copy of the Workbench Internet, aged every cycle.
  v6::simnet::Universe universe;
  std::optional<v6::service::HitlistService> service;
  /// Addresses already handed back to the generators as seeds.
  std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> fed;
};

v6::service::SeedDelta feed_delta(Fixture& f,
                                  const v6::service::HitlistEpoch& epoch) {
  v6::service::SeedDelta delta;
  for (const Ipv6Addr& addr : epoch.addrs) {
    if (f.fed.insert(addr).second) delta.added.push_back(addr);
  }
  return delta;
}

/// The service as `sos serve` builds it with default flags.
std::unique_ptr<Fixture> build_fixture() {
  const auto start = Clock::now();
  v6::simnet::Universe universe = v6::simnet::UniverseBuilder::build(
      v6::experiment::WorkbenchConfig{}.universe);
  const double simnet_build_s = seconds_since(start);
  auto f = std::make_unique<Fixture>(std::move(universe));
  f->simnet_build_s = simnet_build_s;
  const std::vector<Ipv6Addr>& seeds = f->bench.all_active();
  f->fed.insert(seeds.begin(), seeds.end());
  v6::service::ServiceConfig config;
  config.age_universe = true;
  f->service.emplace(f->universe, seeds, config);
  for (int c = 0; c < kWarmCycles; ++c) {
    f->service->ingest_seeds(feed_delta(*f, f->service->refresh_once()));
  }
  return f;
}

/// kQueries addresses of the collected seed dataset, drawn by `seed`.
std::vector<Ipv6Addr> make_queries(const std::vector<Ipv6Addr>& dataset,
                                   std::uint64_t seed) {
  std::vector<Ipv6Addr> queries;
  if (dataset.empty()) return queries;
  const std::uint64_t key = derive_seed(seed, 0x9E1D);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries.push_back(
        dataset[v6::net::splitmix64(key + i) % dataset.size()]);
  }
  return queries;
}

/// Per-cycle observations of the writer thread.
struct Cycle {
  double refresh_s = 0.0;
  double ingest_s = 0.0;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  std::uint64_t fingerprint = 0;
  bool fingerprint_ok = false;
};

struct Phase {
  std::vector<Cycle> cycles;
  double writer_wall = 0.0;
  double reader_wall = 0.0;
  /// Wall time of each reader batch of kQueries lookups (audit excluded).
  std::vector<double> batch_walls;
  std::uint64_t lookups = 0;
  /// Lookups that found their address; keeps the lookup results live.
  std::uint64_t present = 0;
  std::uint64_t audits = 0;
  std::uint64_t audit_failures = 0;
  v6::service::ServiceStats before, after;
  std::size_t settled_size = 0;
  /// Over every cycle's epoch (version, size, fingerprint) and the
  /// final service counters.
  Digest digest;
};

/// The measured phase: fixed writer cycles against a reader that looks
/// up in batches until the writer is done.
Phase run_phase(Fixture& f, const std::vector<Ipv6Addr>& queries,
                Tracer* tracer) {
  v6::service::HitlistService& service = *f.service;
  Phase phase;
  phase.settled_size = service.snapshot().size();
  phase.before = service.stats();
  phase.cycles.resize(kMeasuredCycles);
  std::atomic<bool> done{false};
  {
    v6::runtime::WorkerGroup writer;
    writer.spawn([&] {
      const auto writer_start = Clock::now();
      for (int c = 0; c < kMeasuredCycles; ++c) {
        Cycle& cycle = phase.cycles[static_cast<std::size_t>(c)];
        const Scope cycle_span(tracer, "client.cycle", -1,
                               static_cast<std::uint64_t>(c));
        const v6::service::HitlistEpoch* epoch = nullptr;
        {
          const Scope span(tracer, "service.refresh", cycle_span.id(),
                           static_cast<std::uint64_t>(c));
          const auto t0 = Clock::now();
          epoch = &service.refresh_once();
          cycle.refresh_s = seconds_since(t0);
        }
        v6::service::SeedDelta delta;
        {
          const Scope span(tracer, "client.feed", cycle_span.id(),
                           static_cast<std::uint64_t>(c));
          delta = feed_delta(f, *epoch);
        }
        {
          const Scope span(tracer, "service.ingest", cycle_span.id(),
                           static_cast<std::uint64_t>(c));
          const auto t0 = Clock::now();
          service.ingest_seeds(delta);
          cycle.ingest_s = seconds_since(t0);
        }
        cycle.version = epoch->version;
        cycle.size = epoch->size();
        cycle.fingerprint = epoch->fingerprint;
        cycle.fingerprint_ok =
            v6::service::epoch_fingerprint(epoch->version, epoch->addrs) ==
            epoch->fingerprint;
      }
      phase.writer_wall = seconds_since(writer_start);
      done.store(true, std::memory_order_release);
    });

    // Reader: closed-loop lookup batches with one audit per batch.
    std::uint64_t last_version = 0;
    const v6::service::HitlistEpoch* verified = nullptr;
    std::uint64_t batch = 0;
    const auto reader_start = Clock::now();
    while (!done.load(std::memory_order_acquire)) {
      const Scope span(tracer, "service.lookup", -1, batch);
      const auto batch_start = Clock::now();
      for (const Ipv6Addr& addr : queries) {
        phase.present += service.lookup(addr) ? 1 : 0;
      }
      phase.batch_walls.push_back(seconds_since(batch_start));
      phase.lookups += queries.size();
      const v6::service::HitlistEpoch& snap = service.snapshot();
      bool ok = snap.version >= last_version;
      last_version = snap.version;
      if (&snap != verified) {
        ok = ok && v6::service::epoch_fingerprint(snap.version, snap.addrs) ==
                       snap.fingerprint;
        verified = &snap;
      }
      const Ipv6Addr& probe = queries[batch % queries.size()];
      const bool found = service.lookup(probe);
      // Agreement is only defined against the epoch lookup() read; a
      // publication in between makes the pair incomparable, not wrong.
      if (&service.snapshot() == &snap) {
        ok = ok && found == snap.contains(probe);
      }
      ++phase.audits;
      phase.audit_failures += ok ? 0 : 1;
      ++batch;
    }
    phase.reader_wall = seconds_since(reader_start);
    writer.join();
  }
  phase.after = service.stats();
  Digest& d = phase.digest;
  for (const Cycle& c : phase.cycles) {
    d.add(c.version);
    d.add(c.size);
    d.add(c.fingerprint);
  }
  for (const std::uint64_t v :
       {phase.after.cycles, phase.after.probes, phase.after.discovered,
        phase.after.rescans, phase.after.evicted,
        phase.after.incremental_updates, phase.after.full_rebuilds}) {
    d.add(v);
  }
  d.add_double(phase.after.virtual_seconds);
  return phase;
}

/// Counts the writer's cycles and the reader's audits as operations.
void check_phase(const Phase& phase, std::uint64_t first_version,
                 Result& result) {
  const double lo = static_cast<double>(phase.settled_size) / kBand;
  const double hi = static_cast<double>(phase.settled_size) * kBand;
  std::uint64_t expected = first_version;
  for (const Cycle& c : phase.cycles) {
    ++expected;
    const auto size = static_cast<double>(c.size);
    result.check(c.fingerprint_ok && c.version == expected && size >= lo &&
                     size <= hi,
                 "refresh cycle " + std::to_string(c.version) +
                     ": fingerprint, version, hitlist size " +
                     std::to_string(c.size) + " in band [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  result.attempted += phase.audits;
  result.failed += phase.audit_failures;
  if (phase.audit_failures != 0) {
    std::cerr << "perfbench: check failed: " << phase.audit_failures
              << " snapshot audits\n";
  }
}

/// Solo lookups against the settled snapshot; every query is checked
/// against snapshot().contains() once.
double solo_lookup_ns(const v6::service::HitlistService& service,
                      const std::vector<Ipv6Addr>& queries, Result& result) {
  const v6::service::HitlistEpoch& settled = service.snapshot();
  bool agree = true;
  for (const Ipv6Addr& addr : queries) {
    agree = agree && service.lookup(addr) == settled.contains(addr);
  }
  result.check(agree, "solo lookup() agrees with snapshot().contains()");
  std::uint64_t present = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kSoloLookups; ++i) {
    present += service.lookup(queries[i % queries.size()]) ? 1 : 0;
  }
  const double ns =
      seconds_since(start) * 1e9 / static_cast<double>(kSoloLookups);
  result.check(present > 0, "solo lookups find present addresses");
  return ns;
}

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  const unsigned nproc = host_nproc();
  const unsigned threads = 2;  // one writer, one reader
  result.facts["nproc"] = std::to_string(nproc);
  result.facts["jobs"] = "1";
  result.facts["shards"] = "1";
  result.facts["load_threads"] = std::to_string(threads);
  result.check(threads <= nproc, "load-generator threads <= nproc");
  result.facts["measured_cycles"] = std::to_string(kMeasuredCycles);
  result.facts["discovery_budget_per_cycle"] =
      std::to_string(v6::service::ServiceConfig{}.budget_per_cycle);

  std::vector<double> setup_samples;
  std::unique_ptr<Fixture> f;
  const auto build = [&] {
    f.reset();
    const auto start = Clock::now();
    f = build_fixture();
    setup_samples.push_back(seconds_since(start));
  };
  for (int i = 0; i < kSetupRepeats; ++i) build();
  const std::vector<Ipv6Addr> queries =
      make_queries(f->bench.full(), options.seed);
  result.check(!queries.empty() && !f->service->snapshot().addrs.empty(),
               "seed dataset and warm-cycle hitlist are non-empty");
  if (queries.empty()) return result;
  std::uint64_t listed = 0;
  for (const Ipv6Addr& addr : queries) {
    listed += f->service->snapshot().contains(addr) ? 1 : 0;
  }
  result.note("serve.query_listed_share",
              static_cast<double>(listed) / static_cast<double>(kQueries),
              "ratio");
  const double solo_ns = solo_lookup_ns(*f->service, queries, result);

  // ---- Measured phases (untraced): cycles 2-7 on a fresh fixture each
  // time, until the phases' own wall time reaches --seconds. Every phase
  // must publish the same epochs; the fixture builds between phases are
  // further set-up samples.
  std::vector<Phase> phases;
  double measured_s = 0.0;
  do {
    if (!phases.empty()) build();
    const std::uint64_t first_version = f->service->snapshot().version;
    phases.push_back(run_phase(*f, queries, nullptr));
    const Phase& phase = phases.back();
    check_phase(phase, first_version, result);
    if (phases.size() > 1) {
      result.check(phase.digest.value() == phases[0].digest.value(),
                   "serve phase " + std::to_string(phases.size() - 1) +
                       " repeats phase 0");
    }
    measured_s += phase.writer_wall;
  } while (!options.trace && measured_s < options.seconds);
  result.digest = phases[0].digest.hex();

  std::vector<double> refresh, ingest, cycle_walls, batch_walls;
  std::uint64_t lookups = 0;
  double reader_wall = 0.0;
  std::uint64_t min_size = ~std::uint64_t{0}, max_size = 0;
  for (const Phase& phase : phases) {
    for (const Cycle& c : phase.cycles) {
      refresh.push_back(c.refresh_s);
      ingest.push_back(c.ingest_s);
      cycle_walls.push_back(c.refresh_s + c.ingest_s);
      min_size = std::min(min_size, c.size);
      max_size = std::max(max_size, c.size);
    }
    batch_walls.insert(batch_walls.end(), phase.batch_walls.begin(),
                       phase.batch_walls.end());
    lookups += phase.lookups;
    reader_wall += phase.reader_wall;
  }
  const double lookups_per_s = static_cast<double>(lookups) / reader_wall;
  result.note("refresh_s_p50", quantile(refresh, 0.5), "s");
  result.note("refresh_s_p90", quantile(refresh, 0.9), "s");
  result.note("serve_s", phases[0].writer_wall, "s");
  result.note("serve.cycle_s_p50", quantile(cycle_walls, 0.5), "s");
  result.note("serve.cycle_s_p90", quantile(cycle_walls, 0.9), "s");
  result.note("lookups_per_s", lookups_per_s, "lookups/s");
  result.note("service.lookup_ns.solo", solo_ns, "ns");
  result.note("service.hitlist_settled",
              static_cast<double>(phases[0].settled_size), "count");
  result.note("service.hitlist_min", static_cast<double>(min_size), "count");
  result.note("service.hitlist_max", static_cast<double>(max_size), "count");
  result.note("phases", static_cast<double>(phases.size()), "count");

  if (!options.trace) {
    result.set("setup_s", median(setup_samples), "s");
    result.set("peak_rss_mib", peak_rss_mib(), "MiB");
    result.set("op_geomean_s",
               geomean({median(batch_walls), median(refresh), median(ingest)}),
               "s");
    result.set("rate_per_s", lookups_per_s, "1/s");
    return result;
  }

  // ---- Traced run: a fresh fixture, the same phase
  // with spans; its epoch sequence must match the untraced one.
  f.reset();
  Tracer tracer;
  const std::unique_ptr<Fixture> g = build_fixture();
  const double traced_solo_ns = solo_lookup_ns(*g->service, queries, result);
  const std::uint64_t traced_first = g->service->snapshot().version;
  const std::int64_t traced_start = tracer.now_ns();
  const Phase traced = run_phase(*g, queries, &tracer);
  const double traced_wall =
      static_cast<double>(tracer.now_ns() - traced_start) * 1e-9;
  check_phase(traced, traced_first, result);
  result.check(traced.digest.value() == phases[0].digest.value(),
               "traced serve epoch digest equals the untraced digest");
  result.digest = traced.digest.hex();

  const std::map<std::string, double> self = tracer.self_seconds();
  // Two threads ran for the traced wall: the writer's refresh, feed and
  // ingest spans and the reader's lookup batches should cover both, apart
  // from the reader's last partial batch, thread start-up and the glue
  // between a cycle's calls (client.cycle self time, left out).
  const double covered = self_with_prefix(self, "service.") +
                         self_with_prefix(self, "client.feed");
  const double coverage = covered / (2.0 * traced_wall);
  result.check(coverage >= 0.9 && coverage <= 1.0001,
               "traced spans cover 2 x the traced wall time (coverage " +
                   std::to_string(coverage) + ")");

  const double cycles = static_cast<double>(kMeasuredCycles);
  const auto delta = [&](auto field) {
    return static_cast<double>(traced.after.*field - traced.before.*field);
  };
  using S = v6::service::ServiceStats;
  result.set("simnet.build_s", g->simnet_build_s, "s");
  result.set("service.ingest_s", self_with_prefix(self, "service.ingest"),
             "s");
  result.set("service.full_rebuilds_per_cycle",
             delta(&S::full_rebuilds) / cycles, "count");
  result.set("service.incremental_updates_per_cycle",
             delta(&S::incremental_updates) / cycles, "count");
  result.set("service.probes_per_cycle", delta(&S::probes) / cycles, "count");
  result.set("service.discovered_per_probe",
             delta(&S::discovered) / delta(&S::probes), "ratio");
  result.set("service.lookup_ns.solo", traced_solo_ns, "ns");
  result.set("service.lookup_ns.refresh",
             traced.reader_wall * 1e9 / static_cast<double>(traced.lookups),
             "ns");
  std::vector<double> sizes;
  for (const Cycle& c : traced.cycles) {
    sizes.push_back(static_cast<double>(c.size));
  }
  result.set("service.hitlist_size", median(sizes), "count");
  result.set("trace.overhead_ratio",
             traced.writer_wall / phases[0].writer_wall, "ratio");
  result.set("trace.coverage", coverage, "ratio");
  if (!options.trace_out.empty() &&
      !tracer.write_jsonl(options.trace_out, "serve", options.seed)) {
    result.check(false, "writing spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
