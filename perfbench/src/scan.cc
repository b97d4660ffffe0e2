// Workload `scan`: the streaming scan engine over a procedural universe.
//
// Inputs from the seed: the target list, drawn from a fixed procedural
// universe (UniverseConfig::procedural at the default 2,500 ASes, ~2.9M
// hosts): a seeded 15/16 of the host addresses, one perturbed near-certain
// miss per ~6 of those, and a 3% tail of duplicates of earlier targets.
// The unique count (~3.1M) sizes the engine's dedup table (192 MiB) past
// the last-level cache of the reference host; the record states both.
//
// One round scans each of the 4 probe types once with shards = 1 (the
// fused single-thread loop) and once sharded with shards = nproc - 2, so
// producer, probers and receiver together use nproc threads. Rounds
// repeat until --seconds have passed. Layers: probe, simnet, runtime; the
// TGA layer is bypassed.
//
// op_geomean_s is the geometric mean over the 8 (probe type, shard mode)
// cells of each cell's median scan time, and rate_per_s the geometric
// mean of the two modes' unique-probe rates, so a change to either the
// fused loop or the sharded engine alone moves both.
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "probe/stream_scanner.h"
#include "simnet/universe.h"
#include "simnet/universe_builder.h"
#include "simnet/universe_config.h"
#include "trace.h"

namespace perfbench {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

constexpr int kSetupRepeats = 9;
/// One host in this many is left out of the target list.
constexpr std::uint64_t kPickOutOf = 16;
/// One perturbed miss per this many hosts.
constexpr std::uint64_t kMissEvery = 6;
/// Duplicates appended, as a share of the unique targets (percent).
constexpr std::uint64_t kDuplicatePercent = 3;
/// Bytes per slot of the engine's flat dedup table (net/addr_index.h:
/// 16-byte key, 4-byte value, flag, padding) and its load limit.
constexpr std::uint64_t kDedupSlotBytes = 24;
constexpr std::uint64_t kDedupMaxLoadPercent = 70;

struct Fixture {
  v6::simnet::Universe universe;
  std::vector<Ipv6Addr> targets;
  /// targets[0, unique) are pairwise distinct; the rest repeat them.
  std::size_t unique = 0;
};

v6::simnet::UniverseConfig universe_config() {
  v6::simnet::UniverseConfig config;
  config.procedural = true;
  return config;
}

Fixture build_fixture(std::uint64_t seed) {
  Fixture f{v6::simnet::UniverseBuilder::build(universe_config()), {}, 0};

  const std::uint64_t pick_key = derive_seed(seed, 0x41C4);
  const std::uint64_t miss_key = derive_seed(seed, 0x4155);
  f.universe.for_each_host([&](const v6::simnet::HostRecord& host) {
    const std::uint64_t h =
        v6::net::splitmix64(host.addr.hi()) ^ host.addr.lo();
    if (v6::net::splitmix64(pick_key ^ h) % kPickOutOf == 0) return;
    f.targets.push_back(host.addr);
    if (v6::net::splitmix64(miss_key ^ h) % kMissEvery == 0) {
      // Flip high interface-identifier bits: overwhelmingly a timeout.
      f.targets.emplace_back(host.addr.hi(),
                             host.addr.lo() ^ 0xDEAD'BEEF'0000'0000ULL);
    }
  });
  f.unique = f.targets.size();
  const std::uint64_t dup_key = derive_seed(seed, 0xD0B1);
  const std::size_t duplicates = f.unique * kDuplicatePercent / 100;
  for (std::size_t i = 0; i < duplicates; ++i) {
    f.targets.push_back(
        f.targets[v6::net::splitmix64(dup_key + i) % f.unique]);
  }
  return f;
}

bool stats_equal(const v6::probe::ScanStats& a, const v6::probe::ScanStats& b) {
  return a.targets == b.targets && a.deduped == b.deduped &&
         a.blocked == b.blocked && a.probed == b.probed &&
         a.packets == b.packets && a.hits == b.hits && a.rsts == b.rsts &&
         a.unreachables == b.unreachables && a.timeouts == b.timeouts &&
         a.virtual_seconds == b.virtual_seconds &&
         a.retransmissions == b.retransmissions && a.backoffs == b.backoffs &&
         a.backoff_seconds == b.backoff_seconds;
}

std::uint64_t dedup_table_bytes(std::size_t targets) {
  std::uint64_t cap = 16;
  while (cap * kDedupMaxLoadPercent < targets * 100) cap <<= 1;
  return cap * kDedupSlotBytes;
}

/// One scan call with its wall time and outputs.
struct Pass {
  ProbeType type{};
  unsigned shards = 1;
  double wall = 0.0;
  v6::probe::ScanResult result;
  std::uint64_t invalid = 0;
  double queue_blocked_s = 0.0;
};

/// Sum of the sharded engine's queue blocked-time gauges, in seconds.
double queue_blocked_seconds(const v6::obs::Telemetry& telemetry) {
  const v6::obs::Report report = telemetry.registry().snapshot();
  double nanos = 0.0;
  for (const auto& [name, value] : report.gauges) {
    if (name.rfind("stream.queue.", 0) == 0 &&
        (name.find(".blocked_push_nanos.wall") != std::string::npos ||
         name.find(".blocked_pop_nanos.wall") != std::string::npos)) {
      nanos += static_cast<double>(value);
    }
  }
  return nanos * 1e-9;
}

/// One scan_hits() call. `with_telemetry` attaches an obs::Telemetry so
/// the engine publishes its queue gauges; only the traced run's separate
/// gauge passes set it, so the measured and traced rounds scan the same
/// bare engine.
Pass scan_once(const Fixture& f, ProbeType type, unsigned shards,
               std::uint64_t scan_seed, Tracer* tracer, std::uint64_t run,
               bool with_telemetry = false) {
  Pass pass;
  pass.type = type;
  pass.shards = shards;
  std::optional<v6::obs::Telemetry> telemetry;
  if (with_telemetry) telemetry.emplace();
  v6::probe::ScanOptions scan_options =
      v6::probe::ScanOptions{}.with_seed(scan_seed).with_max_pps(1e6);
  scan_options.telemetry = telemetry ? &*telemetry : nullptr;
  v6::probe::StreamScanner scanner(
      f.universe, nullptr,
      v6::probe::StreamScanOptions{}
          .with_shards(shards)
          .with_batch(1024)
          .with_scan(scan_options));
  {
    const Scope span(tracer,
                     shards == 1 ? "probe.scan.shards1" : "probe.scan.sharded",
                     -1, run);
    const auto start = Clock::now();
    pass.result = scanner.scan_hits(f.targets, type);
    pass.wall = seconds_since(start);
  }
  pass.invalid = scanner.invalid_replies();
  if (telemetry) {
    scanner.flush_telemetry();
    pass.queue_blocked_s = queue_blocked_seconds(*telemetry);
  }
  return pass;
}

void digest_pass(Digest& d, const Pass& p) {
  const v6::probe::ScanStats& s = p.result.stats;
  for (const std::uint64_t v :
       {s.targets, s.deduped, s.blocked, s.probed, s.packets, s.hits, s.rsts,
        s.unreachables, s.timeouts, s.retransmissions, s.backoffs}) {
    d.add(v);
  }
  d.add_double(s.virtual_seconds);
  d.add_double(s.backoff_seconds);
  d.add(p.result.hits.size());
  for (const Ipv6Addr& a : p.result.hits) {
    d.add(a.hi());
    d.add(a.lo());
  }
}

struct Round {
  std::vector<Pass> passes;
  double wall = 0.0;
};

/// One round: every probe type at shards = 1, then (host permitting)
/// sharded, with the shard-count bit-identity checked per type.
Round run_round(const Fixture& f, std::uint64_t scan_seed, unsigned sharded,
                Tracer* tracer, std::uint64_t& run_id, Result& result) {
  Round round;
  const auto start = Clock::now();
  for (const ProbeType type : v6::net::kAllProbeTypes) {
    round.passes.push_back(scan_once(f, type, 1, scan_seed, tracer, run_id++));
  }
  if (sharded >= 2) {
    for (const ProbeType type : v6::net::kAllProbeTypes) {
      round.passes.push_back(
          scan_once(f, type, sharded, scan_seed, tracer, run_id++));
    }
  }
  round.wall = seconds_since(start);

  for (std::size_t i = 0; i < round.passes.size(); ++i) {
    const Pass& p = round.passes[i];
    const v6::probe::ScanStats& s = p.result.stats;
    const std::string label = std::string(v6::net::to_string(p.type)) +
                              " shards=" + std::to_string(p.shards);
    bool ok = p.invalid == 0 && s.targets == f.targets.size() &&
              s.probed == f.unique && s.blocked == 0 &&
              s.deduped == f.targets.size() - f.unique &&
              s.hits == p.result.hits.size() && s.hits <= s.probed &&
              s.packets >= s.probed;
    if (i >= v6::net::kAllProbeTypes.size()) {
      const Pass& one = round.passes[i - v6::net::kAllProbeTypes.size()];
      ok = ok && one.result.hits == p.result.hits &&
           stats_equal(one.result.stats, s);
    }
    result.check(ok, "scan " + label +
                         ": counts, zero invalid replies, and (sharded) "
                         "bit-identity with shards=1");
  }
  return round;
}

/// Wall time and unique probed targets per shard mode, summed.
struct Totals {
  double wall_1 = 0.0, wall_n = 0.0;
  std::uint64_t probed_1 = 0, probed_n = 0;
};

Totals totals_of(const std::vector<Round>& rounds) {
  Totals t;
  for (const Round& r : rounds) {
    for (const Pass& p : r.passes) {
      if (p.shards == 1) {
        t.wall_1 += p.wall;
        t.probed_1 += p.result.stats.probed;
      } else {
        t.wall_n += p.wall;
        t.probed_n += p.result.stats.probed;
      }
    }
  }
  return t;
}

}  // namespace

Result run_scan(const Options& options) {
  Result result;
  const unsigned nproc = host_nproc();
  const unsigned sharded = nproc >= 2 ? nproc - 2 : 0;
  const bool run_sharded = sharded >= 2;
  if (!run_sharded) {
    result.skipped.push_back(
        "scan sharded pass: needs nproc >= 4 (producer + >= 2 probers + "
        "receiver), host has nproc=" + std::to_string(nproc));
  }
  const unsigned threads = run_sharded ? sharded + 2 : 1;
  result.facts["nproc"] = std::to_string(nproc);
  result.facts["shards"] =
      "1" + (run_sharded ? "," + std::to_string(sharded) : std::string());
  result.facts["jobs"] = "1";
  result.facts["load_threads"] = std::to_string(threads);
  result.check(threads <= nproc, "load-generator threads <= nproc");

  // ---- Setup: universe + target list, several times; keep the last.
  std::vector<double> setup_samples;
  std::optional<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    const auto start = Clock::now();
    fixture.emplace(build_fixture(options.seed));
    setup_samples.push_back(seconds_since(start));
  }
  const Fixture& f = *fixture;
  const std::uint64_t scan_seed = derive_seed(options.seed, 0x5EED);
  const std::uint64_t table = dedup_table_bytes(f.targets.size());
  result.facts["targets"] = std::to_string(f.targets.size());
  result.facts["unique_targets"] = std::to_string(f.unique);
  result.facts["dedup_table_mib"] = std::to_string(table >> 20);
  result.facts["llc_mib"] = std::to_string(llc_bytes() >> 20);
  result.facts["hosts"] = std::to_string(f.universe.host_count());

  // ---- Measured rounds (untraced). Rounds must repeat exactly; the
  // digest covers the first. Only round 0 keeps its hit lists (the
  // traced run compares against them), so peak RSS does not grow with
  // the number of rounds.
  std::uint64_t run_id = 0;
  std::vector<Round> rounds;
  Digest first;
  const auto measure_start = Clock::now();
  do {
    rounds.push_back(run_round(f, scan_seed, run_sharded ? sharded : 0,
                               nullptr, run_id, result));
    Digest d;
    for (const Pass& p : rounds.back().passes) digest_pass(d, p);
    if (rounds.size() == 1) {
      first = d;
      continue;
    }
    result.check(d.value() == first.value(),
                 "scan round " + std::to_string(rounds.size() - 1) +
                     " repeats round 0");
    for (Pass& p : rounds.back().passes) p.result.hits = {};
  } while (!options.trace && seconds_since(measure_start) < options.seconds);
  result.digest = first.hex();

  const Totals t = totals_of(rounds);
  std::vector<double> round_walls;
  // cell_walls[i]: the walls of pass i (one probe type, one shard mode)
  // over the rounds.
  std::vector<std::vector<double>> cell_walls(rounds[0].passes.size());
  for (const Round& r : rounds) {
    round_walls.push_back(r.wall);
    for (std::size_t i = 0; i < r.passes.size(); ++i) {
      cell_walls[i].push_back(r.passes[i].wall);
    }
  }
  std::vector<double> cell_medians;
  for (const auto& walls : cell_walls) cell_medians.push_back(median(walls));
  const double probes_per_s = static_cast<double>(t.probed_1) / t.wall_1;
  const double probes_per_s_sharded =
      run_sharded ? static_cast<double>(t.probed_n) / t.wall_n : 0.0;

  // Figures under the workload's own names, in every record.
  result.note("probes_per_s", probes_per_s, "probes/s");
  if (run_sharded) {
    result.note("probes_per_s_sharded", probes_per_s_sharded, "probes/s");
  }
  const v6::probe::ScanStats& s0 = rounds[0].passes[0].result.stats;
  result.note("scan.targets_per_pass", static_cast<double>(s0.targets),
              "count");
  result.note("scan.deduped_per_pass", static_cast<double>(s0.deduped),
              "count");
  result.note("scan.probed_per_pass", static_cast<double>(s0.probed), "count");
  result.note("rounds", static_cast<double>(rounds.size()), "count");
  result.note("scan_s", median(round_walls), "s");

  if (!options.trace) {
    result.set("setup_s", median(setup_samples), "s");
    result.set("peak_rss_mib", peak_rss_mib(), "MiB");
    result.set("op_geomean_s", geomean(cell_medians), "s");
    result.set("rate_per_s",
               run_sharded ? geomean({probes_per_s, probes_per_s_sharded})
                           : probes_per_s,
               "1/s");
    return result;
  }

  // ---- Traced run: the universe build alone, the same round again with
  // spans, a direct Universe::probe loop over the unique targets for the
  // simnet share of the scan time, and (outside the timed window) the
  // sharded passes once more with a Telemetry for the queue gauges.
  double build_s = 0.0;
  {
    const auto start = Clock::now();
    const v6::simnet::Universe universe =
        v6::simnet::UniverseBuilder::build(universe_config());
    build_s = seconds_since(start);
  }
  Tracer tracer;
  const auto traced_start = tracer.now_ns();
  std::vector<Round> traced;
  traced.push_back(run_round(f, scan_seed, run_sharded ? sharded : 0, &tracer,
                             run_id, result));
  const double traced_round_s =
      static_cast<double>(tracer.now_ns() - traced_start) * 1e-9;
  Digest traced_digest;
  for (const Pass& p : traced[0].passes) digest_pass(traced_digest, p);
  result.check(traced_digest.value() == first.value(),
               "traced scan outcome digest equals the untraced digest");
  result.digest = traced_digest.hex();

  std::uint64_t probes_direct = 0;
  std::uint64_t positive = 0;
  const std::int64_t probe_start = tracer.now_ns();
  for (const ProbeType type : v6::net::kAllProbeTypes) {
    const Scope span(&tracer, "simnet.probe", -1, run_id++);
    v6::net::SplitMixRng rng(scan_seed);
    for (std::size_t i = 0; i < f.unique; ++i) {
      const v6::net::ProbeReply reply =
          f.universe.probe(f.targets[i], type, rng);
      positive += v6::net::is_hit(type, reply) ? 1 : 0;
    }
    probes_direct += f.unique;
  }
  const double probe_ns =
      static_cast<double>(tracer.now_ns() - probe_start) /
      static_cast<double>(probes_direct);
  result.check(positive > 0, "direct universe probes found responsive hosts");

  const Totals tt = totals_of(traced);
  const std::map<std::string, double> self = tracer.self_seconds();
  const double traced_wall =
      static_cast<double>(tracer.now_ns() - traced_start) * 1e-9;

  // Queue blocked time needs a Telemetry on the engine, which adds the
  // cost of publishing its gauges; it is read from separate sharded
  // passes outside the traced round, so that cost stays out of
  // trace.overhead_ratio. Their outputs must match the bare passes.
  double blocked_s = 0.0;
  if (run_sharded) {
    const std::size_t types = v6::net::kAllProbeTypes.size();
    for (std::size_t i = 0; i < types; ++i) {
      const Pass p = scan_once(f, v6::net::kAllProbeTypes[i], sharded,
                               scan_seed, nullptr, run_id++,
                               /*with_telemetry=*/true);
      const Pass& bare = rounds[0].passes[types + i];
      result.check(p.invalid == 0 && p.result.hits == bare.result.hits &&
                       stats_equal(p.result.stats, bare.result.stats),
                   "telemetry-attached sharded scan equals the bare scan");
      blocked_s += p.queue_blocked_s;
    }
  }
  // Coverage: the scan and simnet spans are the only work on the one
  // measuring thread; whatever they leave uncovered is benchmark glue.
  const double coverage =
      (self_with_prefix(self, "probe.") + self_with_prefix(self, "simnet.")) /
      traced_wall;
  result.check(coverage >= 0.9 && coverage <= 1.0001,
               "traced spans cover the traced wall time (coverage " +
                   std::to_string(coverage) + ")");

  std::uint64_t targets = 0, deduped = 0, probed = 0, packets = 0,
                retrans = 0, hits = 0;
  for (const Pass& p : traced[0].passes) {
    if (p.shards != 1) continue;
    const v6::probe::ScanStats& s = p.result.stats;
    targets += s.targets;
    deduped += s.deduped;
    probed += s.probed;
    packets += s.packets;
    retrans += s.retransmissions;
    hits += s.hits;
  }
  result.set("simnet.build_s", build_s, "s");
  result.set("simnet.probe_ns", probe_ns, "ns");
  result.set("probe.scan_s.shards1", tt.wall_1, "s");
  result.set("probe.engine_ns_per_probe",
             (tt.wall_1 * 1e9 - static_cast<double>(packets) * probe_ns) /
                 static_cast<double>(probed),
             "ns");
  result.set("probe.targets", static_cast<double>(targets), "count");
  result.set("probe.deduped", static_cast<double>(deduped), "count");
  result.set("probe.probed", static_cast<double>(probed), "count");
  result.set("probe.packets", static_cast<double>(packets), "count");
  result.set("probe.retransmissions", static_cast<double>(retrans), "count");
  result.set("probe.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(probed), "ratio");
  if (run_sharded) {
    result.set("probe.scan_s.sharded", tt.wall_n, "s");
    result.set("probe.shard_speedup", tt.wall_1 / tt.wall_n, "ratio");
    result.set("runtime.queue.blocked_s", blocked_s, "s");
  }
  result.set("trace.overhead_ratio", traced_round_s / rounds[0].wall,
             "ratio");
  result.set("trace.coverage", coverage, "ratio");
  if (!options.trace_out.empty() &&
      !tracer.write_jsonl(options.trace_out, "scan", options.seed)) {
    result.check(false, "writing spans to " + options.trace_out);
  }
  return result;
}

}  // namespace perfbench
