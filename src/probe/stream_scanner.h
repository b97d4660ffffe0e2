// The scan engine (docs/SCANNER.md): dedup, blocklist, pseudo-random
// probe order, retries, stateless reply validation and classification.
// It plays the role of Scanv6 in the paper (§4.2), the one list-driven
// scanner that the TGA pipeline, the seed activity scan, the combined
// campaign and the hitlist service all share.
//
// StreamScanner dedups the target list into the indices of its first
// occurrences ("survivors") and walks a seeded full-cycle permutation of
// them (shard_walk.h), split across S shards in the manner of ZMap's send
// threads: one prober per shard appends a {MAC, reply} record per target
// to a private vector, and after they join the calling thread replays
// the walk, validates each record's MAC (probe_auth.h) and classifies.
// With shards == 1 (the default) the one loop classifies in place, with
// no threads and no records; the sharded merge must stay bit-identical
// to it.
//
// Determinism contract (tests/probe/stream_scanner_test.cc): with faults
// and adaptive backoff off, hits, classifications, packets and every
// ScanStats counter are bit-identical across shard counts, and reply
// callbacks fire in canonical cycle-position order (== the 1-shard probe
// order). docs/SCANNER.md gives the reasons and the caveats: the
// analytic virtual_seconds, per-shard adaptive waits, and fault
// decorators that are per-shard-deterministic but not shard-invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "probe/blocklist.h"
#include "probe/transport.h"
#include "simnet/universe.h"

namespace v6::obs {
class StallWatchdog;
}  // namespace v6::obs

namespace v6::probe {

/// Scan configuration. Defaults story: a default-constructed ScanOptions
/// is the paper's regular scan — 1 retry, 10K pps, seed 0,
/// uninstrumented. Targets are always probed in a seeded pseudo-random
/// order (paper Appendix A). Override with designated initializers or
/// the fluent `with_*` chain:
///
///   StreamScanOptions{}.with_scan(ScanOptions{}.with_seed(7).with_retries(3))
struct ScanOptions {
  /// Extra transmissions after a timeout (paper uses 3 packet retries for
  /// dealiasing probes; regular scan probes use 1 retry).
  int max_retries = 1;
  /// Sustained packet rate across all shards; drives the analytic
  /// virtual clock only (packets / max_pps).
  double max_pps = 10000.0;
  /// Master seed of a scan: drives the permutation walk (probe order),
  /// the stateless per-(addr, attempt) reply engines, probe validation
  /// tokens and backoff jitter.
  std::uint64_t seed = 0;
  /// Optional instrumentation context (borrowed). When set, the scanner
  /// opens a `scanner.scan` span per scan() call and keeps
  /// `scanner.*` counters, including a per-retry histogram
  /// (`scanner.retry.<k>`). Never alters scan results.
  v6::obs::Telemetry* telemetry = nullptr;

  // --- Robust-scanner path (docs/ROBUSTNESS.md). All defaults are off:
  // a default-constructed ScanOptions takes no extra waits and draws no
  // jitter.

  /// Virtual seconds charged per unanswered probe — the wait before the
  /// scanner declares a timeout. 0 keeps the instant-timeout model.
  /// Waits count toward virtual_seconds and advance the lane's
  /// transport chain (ProbeTransport::advance), so fault-plane token
  /// buckets refill while the scanner waits.
  double probe_timeout_s = 0.0;
  /// Base wait before the k-th retransmission: 2^(k-1) * retry_backoff_s
  /// (exponential backoff). 0 retransmits immediately.
  double retry_backoff_s = 0.0;
  /// Fractional jitter on each backoff wait, drawn from a stateless
  /// engine keyed by (seed, addr, attempt): the wait is scaled by a
  /// uniform factor in [1-jitter, 1+jitter]. Deterministic per seed and
  /// identical whichever shard retries the address; 0 draws nothing.
  double retry_jitter = 0.0;
  /// Consecutive final timeouts inside one /adaptive_prefix_len bucket
  /// that trip an adaptive cool-down (rate-limit back-pressure signal).
  /// 0 disables adaptive backoff.
  int adaptive_threshold = 0;
  /// Cool-down wait in virtual seconds when the threshold trips.
  double adaptive_backoff_s = 0.0;
  /// Prefix length grouping targets for the adaptive timeout streak.
  int adaptive_prefix_len = 48;

  ScanOptions& with_retries(int v) { max_retries = v; return *this; }
  ScanOptions& with_max_pps(double v) { max_pps = v; return *this; }
  ScanOptions& with_seed(std::uint64_t v) { seed = v; return *this; }
  ScanOptions& with_telemetry(v6::obs::Telemetry* t) { telemetry = t; return *this; }
  ScanOptions& with_probe_timeout(double seconds) { probe_timeout_s = seconds; return *this; }
  ScanOptions& with_retry_backoff(double base_s, double jitter = 0.0) {
    retry_backoff_s = base_s;
    retry_jitter = jitter;
    return *this;
  }
  ScanOptions& with_adaptive_backoff(int threshold, double wait_s,
                                     int prefix_len = 48) {
    adaptive_threshold = threshold;
    adaptive_backoff_s = wait_s;
    adaptive_prefix_len = prefix_len;
    return *this;
  }
};

struct ScanStats {
  std::uint64_t targets = 0;       // addresses submitted
  std::uint64_t deduped = 0;       // duplicates removed
  std::uint64_t blocked = 0;       // skipped by blocklist
  std::uint64_t probed = 0;        // unique addresses actually probed
  std::uint64_t packets = 0;       // packets emitted (incl. retries)
  std::uint64_t hits = 0;          // positive replies
  std::uint64_t rsts = 0;          // TCP RSTs (not hits)
  std::uint64_t unreachables = 0;  // ICMP errors (not hits)
  std::uint64_t timeouts = 0;
  double virtual_seconds = 0.0;    // packets / max_pps plus all waits
  // Robust-scanner path accounting (all zero when the path is off):
  std::uint64_t retransmissions = 0;  // retry packets actually sent
  std::uint64_t backoffs = 0;         // backoff waits taken (retry + adaptive)
  double backoff_seconds = 0.0;       // virtual time spent in those waits
};

/// What a hit-collecting scan returns: the positive responders plus the
/// full statistics of the pass that found them.
struct ScanResult {
  std::vector<v6::net::Ipv6Addr> hits;
  ScanStats stats;
};

/// Streaming-engine configuration wrapping the shared ScanOptions knobs.
struct StreamScanOptions {
  /// Decorates a shard's wire transport (e.g. wraps it in a fault
  /// injector). Called once per shard at construction; the returned
  /// transport owns nothing but may borrow `inner`. Lets callers layer
  /// src/fault into the chain without this library depending on it.
  using Decorator = std::function<std::unique_ptr<ProbeTransport>(
      ProbeTransport& inner, unsigned shard)>;

  /// Shard (= prober worker) count. Each shard covers a disjoint slice
  /// of the permutation cycle.
  unsigned shards = 1;
  /// Probes (or merged records) per heartbeat beat in each scan loop.
  std::size_t batch = 256;
  /// The shared scan knobs (retries, pacing, seed, telemetry, robust
  /// path). `seed` drives the permutation walk, the stateless reply
  /// engines, probe validation, and backoff jitter.
  ScanOptions scan;
  Decorator decorate;
  /// Optional liveness plane (borrowed; may be null): each scan loop
  /// registers a heartbeat — `stream.prober.<s>` per sharded prober and
  /// `stream.scan` for the calling thread's loop (the fused single-shard
  /// loop, or the merge after the probers join) — armed while that loop
  /// runs and beaten once per `batch`. Purely wall-side observation — a
  /// watchdog never changes what the scan computes
  /// (docs/OBSERVABILITY.md "Live introspection").
  v6::obs::StallWatchdog* watchdog = nullptr;

  StreamScanOptions& with_shards(unsigned v) { shards = v; return *this; }
  StreamScanOptions& with_batch(std::size_t v) { batch = v; return *this; }
  StreamScanOptions& with_scan(ScanOptions v) { scan = v; return *this; }
  StreamScanOptions& with_decorator(Decorator v) {
    decorate = std::move(v);
    return *this;
  }
  StreamScanOptions& with_watchdog(v6::obs::StallWatchdog* v) {
    watchdog = v;
    return *this;
  }

  /// Bounds-checks the streaming knobs and the wrapped ScanOptions
  /// through the shared check/validate.h path; throws check::ConfigError
  /// with a uniform "StreamScanOptions.<field>: <constraint>" message.
  /// The StreamScanner constructor calls this, so a bad config fails the
  /// same way whether it reaches the engine directly or via
  /// PipelineConfig.
  void validate() const;
};

/// Probes a target list once per unique address and classifies replies.
/// Owns its transport chain (one per shard, built over `universe`)
/// because stateless per-probe replies are what make sharding sound — a
/// caller-supplied sequential transport could not be split. Callers
/// layer their own transports (fault injection, tracing, scripted
/// replies in tests) in through StreamScanOptions::decorate.
class StreamScanner {
 public:
  /// `blocklist` may be null. `universe` and `options.scan.telemetry`
  /// are borrowed and must outlive the scanner.
  StreamScanner(const v6::simnet::Universe& universe,
                const Blocklist* blocklist, StreamScanOptions options);
  ~StreamScanner();

  StreamScanner(const StreamScanner&) = delete;
  StreamScanner& operator=(const StreamScanner&) = delete;

  using ReplyCallback =
      std::function<void(const v6::net::Ipv6Addr&, v6::net::ProbeReply)>;

  /// Scans `targets` on `type` across the shards. `on_reply` fires
  /// once per probed address with its final classified reply (after
  /// retries), in canonical cycle-position order, after all probers
  /// have joined. Pass an empty callback to collect statistics only.
  ScanStats scan(std::span<const v6::net::Ipv6Addr> targets,
                 v6::net::ProbeType type, const ReplyCallback& on_reply);

  /// Collects the addresses that replied positively ("hits" per the
  /// paper's rules: echo reply / SYN-ACK / UDP reply only) plus the
  /// pass's statistics.
  ScanResult scan_hits(std::span<const v6::net::Ipv6Addr> targets,
                       v6::net::ProbeType type);

  /// Cumulative analytic virtual wire time across all scans.
  double virtual_seconds() const { return total_virtual_seconds_; }

  /// Cumulative packets emitted across all shards.
  std::uint64_t packets_sent() const;

  /// Replies whose stateless validation token failed (always 0 against
  /// the simulated universe; the counter exists because the merge
  /// refuses to classify unauthenticated replies by construction).
  std::uint64_t invalid_replies() const { return invalid_replies_; }

  unsigned shards() const { return static_cast<unsigned>(lanes_.size()); }

  /// Folds per-shard telemetry (transport.* registries, scanner.retry.*
  /// tallies) into the attached Telemetry in shard order. Idempotent per
  /// accumulation; called automatically on destruction.
  void flush_telemetry();

 private:
  struct Lane;

  /// Prober-thread helpers (each touches only its own lane's state).
  static void lane_wait(Lane& lane, double seconds);
  v6::net::ProbeReply lane_probe(Lane& lane, const v6::net::Ipv6Addr& addr,
                                 v6::net::ProbeType type) const;
  void note_reply(Lane& lane, const v6::net::Ipv6Addr& addr,
                  v6::net::ProbeReply reply) const;

  const v6::simnet::Universe* universe_;
  const Blocklist* blocklist_;
  StreamScanOptions options_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Target indices of the first occurrence of each address, in target
  /// order: the index space the permutation walk runs over.
  std::vector<std::uint32_t> survivors_;
  /// Stateless backoff-jitter key, mixed per (addr, attempt) so shards
  /// agree.
  std::uint64_t jitter_base_ = 0;
  /// `scanner.retry.<k>` counters (addresses that needed a k-th
  /// retransmission), resolved eagerly so instrumented reports carry the
  /// full counter set.
  std::vector<v6::obs::Counter*> retry_counters_;
  double total_virtual_seconds_ = 0.0;
  std::uint64_t invalid_replies_ = 0;
};

}  // namespace v6::probe
