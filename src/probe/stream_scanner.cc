#include "probe/stream_scanner.h"

#include <chrono>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/contracts.h"
#include "check/validate.h"
#include "net/rng.h"
#include "obs/watchdog.h"
#include "probe/instrumented_transport.h"
#include "probe/probe_auth.h"
#include "probe/shard_walk.h"
#include "probe/stateless_transport.h"
#include "runtime/worker_group.h"

namespace v6::probe {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

namespace {

/// All streaming wait accounting is integer nanoseconds: uint64 sums are
/// order-free, so folding per-shard tallies gives the same totals for
/// every shard count (double sums would not).
std::uint64_t to_nanos(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// What a prober keeps per probed target, packed into one word: the
/// stateless MAC the merge validates in the high 56 bits and the final
/// reply in the low byte. The target itself is implied by the record's
/// slot in its shard's walk, so no address or position is stored.
class ReplyRecord {
 public:
  static constexpr std::uint64_t kReplyMask = 0xFF;

  ReplyRecord(std::uint64_t token, ProbeReply reply)
      : word_((token & ~kReplyMask) | static_cast<std::uint64_t>(reply)) {}

  /// Whether the record answers a probe whose full token is `token`.
  bool authenticates(std::uint64_t token) const {
    return (word_ & ~kReplyMask) == (token & ~kReplyMask);
  }
  ProbeReply reply() const {
    return static_cast<ProbeReply>(word_ & kReplyMask);
  }

 private:
  std::uint64_t word_;
};
static_assert(sizeof(ReplyRecord) == 8);

/// One shard's walk over the survivors' cycle, run two items ahead of
/// the caller: while the current target is being probed, the next
/// target's address and the survivor slot after it are already being
/// fetched. Both lookups are random accesses into arrays that outgrow
/// the caches at millions of targets, and without the lookahead each
/// probe would wait on them in turn.
class SurvivorWalk {
 public:
  SurvivorWalk(const ShardPlan& plan, unsigned shard, unsigned num_shards,
               const std::vector<std::uint32_t>& survivors,
               std::span<const Ipv6Addr> targets)
      : walk_(plan, shard, num_shards),
        survivors_(survivors.data()),
        targets_(targets.data()) {
    have_later_ = walk_.next(&later_);
    shift();
  }

  /// The next survivor's address and cycle position; false when the
  /// shard's slice is exhausted.
  bool next(const Ipv6Addr** addr, std::uint64_t* pos) {
    if (!have_next_) return false;
    *addr = targets_ + next_target_;
    *pos = next_pos_;
    shift();
    return true;
  }

 private:
  void shift() {
    have_next_ = have_later_;
    if (have_next_) {
      next_target_ = survivors_[later_.index];
      next_pos_ = later_.pos;
      __builtin_prefetch(targets_ + next_target_);
    }
    have_later_ = have_next_ && walk_.next(&later_);
    if (have_later_) __builtin_prefetch(survivors_ + later_.index);
  }

  ShardWalk walk_;
  const std::uint32_t* survivors_;
  const Ipv6Addr* targets_;
  ShardItem later_;
  std::size_t next_target_ = 0;
  std::uint64_t next_pos_ = 0;
  bool have_next_ = false;
  bool have_later_ = false;
};

/// Fills `survivors` with the index of each address's first occurrence
/// in `targets`, in target order. The set behind it is sized once at
/// <= 70% load and freed on return, before any prober starts. A slot
/// holds a target index and 32 bits of the address hash instead of the
/// address (8 bytes, a third of an AddrIndexMap slot); a target is read
/// back only when those bits match.
void collect_survivors(std::span<const Ipv6Addr> targets,
                       std::vector<std::uint32_t>& survivors) {
  struct Slot {
    std::uint32_t index_plus_one = 0;  // 0: empty
    std::uint32_t tag = 0;
  };
  std::size_t capacity = 16;
  while (capacity * 70 < targets.size() * 100) capacity <<= 1;
  std::vector<Slot> slots(capacity);
  const std::size_t mask = capacity - 1;
  survivors.clear();
  survivors.reserve(targets.size());
  for (std::uint32_t i = 0; i < targets.size(); ++i) {
    const std::uint64_t hash = v6::net::Ipv6AddrHash{}(targets[i]);
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      if (slots[s].index_plus_one == 0) {
        slots[s] = {i + 1, tag};
        survivors.push_back(i);
        break;
      }
      if (slots[s].tag == tag &&
          targets[slots[s].index_plus_one - 1] == targets[i]) {
        break;  // a duplicate
      }
    }
  }
}

}  // namespace

/// One shard's private world: transport chain, retry and adaptive
/// state, and plain-integer tallies. Pacing is analytic (the
/// virtual_seconds fold in scan()), so a lane keeps no clock. A Lane is
/// touched by exactly one prober thread during a scan and by the caller
/// thread outside it; nothing here is shared.
struct StreamScanner::Lane {
  Lane(const v6::simnet::Universe& universe,
       const StreamScanOptions& options, unsigned shard)
      : wire(universe, options.scan.seed) {
    ProbeTransport* top = &wire;
    if (options.decorate) {
      decorated = options.decorate(wire, shard);
      if (decorated != nullptr) top = decorated.get();
    }
    v6::obs::Telemetry* const telemetry = options.scan.telemetry;
    if (telemetry != nullptr) {
      counting.emplace(*top, telemetry->registry());
      top = &*counting;
    }
    transport = top;
    if (options.scan.max_retries > 0) {
      retry_tallies.assign(static_cast<std::size_t>(options.scan.max_retries),
                           0);
    }
  }

  StatelessSimTransport wire;
  std::unique_ptr<ProbeTransport> decorated;
  std::optional<CountingTransport> counting;
  ProbeTransport* transport = nullptr;
  /// `scanner.retry.<k>` tallies; summed across lanes in shard order at
  /// flush_telemetry (atomics would serialize the probers for nothing).
  std::vector<std::uint64_t> retry_tallies;
  /// Adaptive-backoff streaks, per lane: the back-pressure control loop
  /// reacts to the shard's own probe sequence (docs/SCANNER.md caveat).
  std::unordered_map<Ipv6Addr, int, v6::net::Ipv6AddrHash> timeout_streaks;

  // Per-scan tallies, reset by scan() before the workers start.
  std::uint64_t blocked = 0;
  std::uint64_t probed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t backoff_nanos = 0;
  std::uint64_t wait_nanos = 0;
  std::uint64_t packets_before = 0;
};

void StreamScanOptions::validate() const {
  const v6::check::Validator v("StreamScanOptions");
  v.positive(shards, "shards");
  v.positive(batch, "batch");
  v.non_negative(scan.max_retries, "scan.max_retries");
  v.positive(scan.max_pps, "scan.max_pps");
  v.non_negative(scan.probe_timeout_s, "scan.probe_timeout_s");
  v.non_negative(scan.retry_backoff_s, "scan.retry_backoff_s");
  v.unit_interval(scan.retry_jitter, "scan.retry_jitter");
  v.non_negative(scan.adaptive_threshold, "scan.adaptive_threshold");
  v.non_negative(scan.adaptive_backoff_s, "scan.adaptive_backoff_s");
  v.require(scan.adaptive_prefix_len > 0 && scan.adaptive_prefix_len <= 128,
            "scan.adaptive_prefix_len", "must be in [1, 128]");
}

StreamScanner::StreamScanner(const v6::simnet::Universe& universe,
                             const Blocklist* blocklist,
                             StreamScanOptions options)
    : universe_(&universe),
      blocklist_(blocklist),
      options_(std::move(options)) {
  options_.validate();
  jitter_base_ = v6::net::derive_seed(options_.scan.seed, /*tag=*/0xBACC0F);
  lanes_.reserve(options_.shards);
  for (unsigned s = 0; s < options_.shards; ++s) {
    lanes_.push_back(std::make_unique<Lane>(*universe_, options_, s));
  }
  v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
  if (telemetry != nullptr && options_.scan.max_retries > 0) {
    v6::obs::Registry& registry = telemetry->registry();
    retry_counters_.reserve(
        static_cast<std::size_t>(options_.scan.max_retries));
    for (int k = 1; k <= options_.scan.max_retries; ++k) {
      retry_counters_.push_back(
          &registry.counter("scanner.retry." + std::to_string(k)));
    }
  }
}

StreamScanner::~StreamScanner() { flush_telemetry(); }

void StreamScanner::flush_telemetry() {
  v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
  if (telemetry == nullptr) return;
  // Shard order, so repeated runs publish identically; the per-lane
  // tallies are zeroed by the flush, which makes this idempotent.
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->counting.has_value()) lane->counting->flush();
  }
  for (std::size_t k = 0; k < retry_counters_.size(); ++k) {
    std::uint64_t total = 0;
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      total += lane->retry_tallies[k];
      lane->retry_tallies[k] = 0;
    }
    if (total != 0) retry_counters_[k]->add(total);
  }
}

std::uint64_t StreamScanner::packets_sent() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    total += lane->transport->packets_sent();
  }
  return total;
}

void StreamScanner::lane_wait(Lane& lane, double seconds) {
  // Virtual, never wall time: the transport chain's clocks (fault
  // buckets) move forward; tools/lint forbids real sleeps in retry
  // paths.
  lane.transport->advance(seconds);
}

ProbeReply StreamScanner::lane_probe(Lane& lane, const Ipv6Addr& addr,
                                     ProbeType type) const {
  ProbeReply reply = ProbeReply::kTimeout;
  for (int attempt = 0; attempt <= options_.scan.max_retries; ++attempt) {
    if (attempt > 0) {
      if (!lane.retry_tallies.empty()) {
        ++lane.retry_tallies[static_cast<std::size_t>(attempt - 1)];
      }
      ++lane.retransmissions;
      if (options_.scan.retry_backoff_s > 0.0) {
        const int exponent = attempt - 1 < 62 ? attempt - 1 : 62;
        double backoff = options_.scan.retry_backoff_s *
                         static_cast<double>(1ULL << exponent);
        if (options_.scan.retry_jitter > 0.0) {
          // Stateless jitter: a fresh engine per (addr, attempt), so the
          // draw is identical no matter which shard retries the address.
          v6::net::SplitMixRng jitter_rng(
              stateless_key(jitter_base_, addr,
                            static_cast<std::uint64_t>(attempt)));
          backoff *= 1.0 + options_.scan.retry_jitter *
                               (2.0 * v6::net::uniform01(jitter_rng) - 1.0);
        }
        lane_wait(lane, backoff);
        ++lane.backoffs;
        const std::uint64_t nanos = to_nanos(backoff);
        lane.backoff_nanos += nanos;
        lane.wait_nanos += nanos;
      }
    }
    reply = lane.transport->send(addr, type);
    if (reply != ProbeReply::kTimeout) break;
    if (options_.scan.probe_timeout_s > 0.0) {
      lane_wait(lane, options_.scan.probe_timeout_s);
      lane.wait_nanos += to_nanos(options_.scan.probe_timeout_s);
    }
  }
  return reply;
}

void StreamScanner::note_reply(Lane& lane, const Ipv6Addr& addr,
                               ProbeReply reply) const {
  if (options_.scan.adaptive_threshold <= 0) return;
  int& streak =
      lane.timeout_streaks[addr.masked(options_.scan.adaptive_prefix_len)];
  if (reply != ProbeReply::kTimeout) {
    streak = 0;
    return;
  }
  if (++streak >= options_.scan.adaptive_threshold) {
    lane_wait(lane, options_.scan.adaptive_backoff_s);
    ++lane.backoffs;
    const std::uint64_t nanos = to_nanos(options_.scan.adaptive_backoff_s);
    lane.backoff_nanos += nanos;
    lane.wait_nanos += nanos;
    streak = 0;
  }
}

ScanStats StreamScanner::scan(std::span<const Ipv6Addr> targets,
                              ProbeType type, const ReplyCallback& on_reply) {
  v6::obs::Span span(options_.scan.telemetry, "scanner.scan");
  ScanStats stats;
  stats.targets = targets.size();
  // Wall-side observability: loop heartbeats for the watchdog and the
  // scan's wall duration, exempt from the shard/jobs determinism
  // contract (docs/OBSERVABILITY.md).
  v6::obs::StallWatchdog* const watchdog = options_.watchdog;
  const auto wall_start = std::chrono::steady_clock::now();

  // Dedup on the caller thread: one flat-table pass keeps the index of
  // each address's first occurrence, in target order. The walks permute
  // only these survivors, so a duplicate costs no walk step (4 bytes per
  // survivor; no copy of the addresses themselves is built).
  V6_REQUIRE_MSG(targets.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "target list too long for 32-bit survivor indices");
  collect_survivors(targets, survivors_);
  const std::uint64_t unique_count = survivors_.size();
  stats.deduped = targets.size() - unique_count;

  const unsigned num_shards = shards();
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    lane->wire.reset();
    lane->blocked = 0;
    lane->probed = 0;
    lane->retransmissions = 0;
    lane->backoffs = 0;
    lane->backoff_nanos = 0;
    lane->wait_nanos = 0;
    lane->packets_before = lane->transport->packets_sent();
  }

  // The permutation plan over the survivors is a pure function of
  // (unique count, seed), shared by all walks; built once on the caller
  // thread.
  const ShardPlan plan(unique_count, options_.scan.seed);

  // Classification fold: the only step that touches ScanStats and the
  // caller's callback. Runs on the caller thread in canonical
  // (cycle-position) order in both execution modes.
  auto classify = [&](const Ipv6Addr& addr, ProbeReply reply) {
    switch (reply) {
      case ProbeReply::kTimeout:
        ++stats.timeouts;
        break;
      case ProbeReply::kRst:
        ++stats.rsts;
        break;
      case ProbeReply::kDestUnreachable:
        ++stats.unreachables;
        break;
      default:
        if (v6::net::is_hit(type, reply)) ++stats.hits;
        break;
    }
    if (on_reply) on_reply(addr, reply);
  };

  // The loop body both modes share: walk shard `shard` of the cycle,
  // skip blocklisted targets, probe the rest on the shard's lane and
  // hand each final reply to `on_reply`. Touches only that lane's
  // state, so any one thread may run it per lane.
  auto run_lane = [&](unsigned shard, v6::obs::Heartbeat* heartbeat,
                      auto&& on_lane_reply) {
    Lane& lane = *lanes_[shard];
    v6::obs::ArmedHeartbeat stage(heartbeat);
    SurvivorWalk walk(plan, shard, num_shards, survivors_, targets);
    const Ipv6Addr* next = nullptr;
    std::uint64_t pos = 0;
    std::size_t until_beat = options_.batch;
    while (walk.next(&next, &pos)) {
      const Ipv6Addr& addr = *next;
      if (blocklist_ != nullptr && blocklist_->blocked(addr)) {
        ++lane.blocked;
        continue;
      }
      const ProbeReply reply = lane_probe(lane, addr, type);
      note_reply(lane, addr, reply);
      ++lane.probed;
      on_lane_reply(addr, reply);
      if (--until_beat == 0) {
        stage.beat();
        until_beat = options_.batch;
      }
    }
  };
  v6::obs::Heartbeat* const scan_hb =
      watchdog != nullptr ? &watchdog->stage("stream.scan") : nullptr;

  if (num_shards == 1) {
    // One shard walks in canonical order already: classify in place.
    // The sharded merge must stay bit-identical to this loop
    // (stream_scanner_test compares the two).
    run_lane(0, scan_hb, classify);
  } else {
    // S independent probers, one per shard, each appending to its own
    // record vector; nothing is shared between them but read-only scan
    // inputs.
    const std::uint64_t auth_key = probe_auth_key(options_.scan.seed);
    std::vector<std::vector<ReplyRecord>> records(num_shards);
    {
      v6::runtime::WorkerGroup workers;
      // join() can only rethrow one exception; route the rest through
      // the telemetry sink (scanner.suppressed_errors counter + one
      // kMessage each) instead of losing them silently.
      if (v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
          telemetry != nullptr) {
        workers.on_suppressed(
            [telemetry](std::size_t worker, const std::exception_ptr& error) {
              telemetry->registry().counter("scanner.suppressed_errors").inc();
              v6::obs::Event event;
              event.kind = v6::obs::Event::Kind::kMessage;
              event.path = "scanner.suppressed_error";
              event.value = worker;
              try {
                std::rethrow_exception(error);
              } catch (const std::exception& e) {
                event.detail = e.what();
              } catch (...) {
                event.detail = "non-std exception";
              }
              telemetry->emit(event);
            });
      }
      // About unique/S records each; the slack covers a shard's random
      // surplus, which would otherwise regrow (and briefly double) its
      // vector at the scan's peak.
      const std::size_t per_shard =
          unique_count / num_shards + unique_count / (64 * num_shards) + 256;
      for (unsigned s = 0; s < num_shards; ++s) {
        v6::obs::Heartbeat* const prober_hb =
            watchdog != nullptr
                ? &watchdog->stage("stream.prober." + std::to_string(s))
                : nullptr;
        workers.spawn([&, s, prober_hb] {
          std::vector<ReplyRecord>& out = records[s];
          out.reserve(per_shard);
          run_lane(s, prober_hb, [&](const Ipv6Addr& addr, ProbeReply reply) {
            out.emplace_back(probe_token_keyed(addr, auth_key), reply);
          });
        });
      }
      workers.join();  // rethrows the first prober failure
    }

    // Ordered merge: replay the 1-shard walk with the same filters.
    // Shard k owns cycle positions p ≡ k (mod S) and recorded them in
    // ascending p, so the next record of shard p % S answers position p.
    // The MAC check ties each record back to the address it was meant
    // for before it is classified.
    v6::obs::ArmedHeartbeat stage(scan_hb);
    std::vector<std::size_t> next(num_shards, 0);
    SurvivorWalk walk(plan, 0, 1, survivors_, targets);
    const Ipv6Addr* next_addr = nullptr;
    std::uint64_t pos = 0;
    std::size_t until_beat = options_.batch;
    while (walk.next(&next_addr, &pos)) {
      const Ipv6Addr& addr = *next_addr;
      if (blocklist_ != nullptr && blocklist_->blocked(addr)) continue;
      const std::size_t shard = static_cast<std::size_t>(pos % num_shards);
      V6_INVARIANT_MSG(next[shard] < records[shard].size(),
                       "merge ran past a shard's records");
      const ReplyRecord& record = records[shard][next[shard]++];
      if (!record.authenticates(probe_token_keyed(addr, auth_key))) {
        ++invalid_replies_;
        continue;
      }
      classify(addr, record.reply());
      if (--until_beat == 0) {
        stage.beat();
        until_beat = options_.batch;
      }
    }
  }

  // Fold lane tallies in shard order (integer sums, order-free anyway).
  std::uint64_t wait_nanos = 0;
  std::uint64_t backoff_nanos = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    stats.blocked += lane->blocked;
    stats.probed += lane->probed;
    stats.retransmissions += lane->retransmissions;
    stats.backoffs += lane->backoffs;
    stats.packets += lane->transport->packets_sent() - lane->packets_before;
    wait_nanos += lane->wait_nanos;
    backoff_nanos += lane->backoff_nanos;
  }
  stats.backoff_seconds = static_cast<double>(backoff_nanos) * 1e-9;
  // Analytic wire-time model: emission time at the aggregate rate plus
  // the explicit waits (docs/SCANNER.md).
  const double pps = options_.scan.max_pps > 0 ? options_.scan.max_pps : 1.0;
  stats.virtual_seconds = static_cast<double>(stats.packets) / pps +
                          static_cast<double>(wait_nanos) * 1e-9;
  total_virtual_seconds_ += stats.virtual_seconds;

  V6_ENSURE_MSG(stats.probed + stats.blocked == unique_count,
                "every unique target must be probed or blocked");
  V6_ENSURE_MSG(stats.deduped + unique_count == stats.targets,
                "dedup accounting must cover the target list");

  v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
  if (telemetry != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    registry.counter("scanner.targets").add(stats.targets);
    registry.counter("scanner.deduped").add(stats.deduped);
    registry.counter("scanner.blocked").add(stats.blocked);
    registry.counter("scanner.probed").add(stats.probed);
    registry.counter("scanner.packets").add(stats.packets);
    registry.counter("scanner.hits").add(stats.hits);
    registry.counter("scanner.timeouts").add(stats.timeouts);
    if (stats.retransmissions != 0) {
      registry.counter("scanner.retransmissions").add(stats.retransmissions);
    }
    if (stats.backoffs != 0) {
      registry.counter("scanner.backoffs").add(stats.backoffs);
    }
    registry.histogram("scanner.batch.targets")
        .record(static_cast<double>(stats.targets));
    registry.histogram("scanner.batch.virtual_seconds")
        .record(stats.virtual_seconds);
    // The scan's wall duration (docs/OBSERVABILITY.md "Live
    // introspection"): scheduling-dependent, hence the `.wall` suffix —
    // the equivalence suites exempt such names from the shard/jobs
    // bit-identity checks.
    registry.gauge("stream.scan.wall_nanos.wall")
        .set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - wall_start)
                 .count());
  }
  return stats;
}

ScanResult StreamScanner::scan_hits(std::span<const Ipv6Addr> targets,
                                    ProbeType type) {
  ScanResult result;
  // Room for every target to hit, so the list never regrows: a regrow
  // copies it and briefly holds both copies, which at millions of hits
  // is the scan's memory peak.
  result.hits.reserve(targets.size());
  result.stats =
      scan(targets, type, [&](const Ipv6Addr& addr, ProbeReply reply) {
        if (v6::net::is_hit(type, reply)) result.hits.push_back(addr);
      });
  return result;
}

}  // namespace v6::probe
