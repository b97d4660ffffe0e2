#include "experiment/pipeline.h"

#include <memory>
#include <optional>
#include <vector>

#include "check/contracts.h"
#include "check/validate.h"
#include "dealias/dealiaser.h"
#include "dealias/online_dealiaser.h"
#include "fault/faulty_transport.h"
#include "net/rng.h"
#include "probe/instrumented_transport.h"
#include "probe/stateless_transport.h"
#include "probe/stream_scanner.h"
#include "probe/transport.h"

namespace v6::experiment {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

namespace {

/// The decorations a pipeline puts on a wire: the fault injector when a
/// plan is attached, under the per-packet tracer for --trace runs. One
/// instance wraps the online dealiaser's wire and, when active(), one
/// more wraps each scan lane's. A pure forwarder when neither is on.
class ChainDecorations final : public v6::probe::ProbeTransport {
 public:
  ChainDecorations(v6::probe::ProbeTransport& wire,
                   const PipelineConfig& config, std::uint64_t fault_seed) {
    v6::probe::ProbeTransport* top = &wire;
    if (config.faults != nullptr) {
      // Wrapped even when the plan is disabled: a disabled
      // FaultyTransport is a pure pass-through, and keeping it in the
      // chain is exactly what the fault suite's no-decorator
      // equivalence test exercises.
      faulty.emplace(*top, *config.faults, fault_seed);
      top = &*faulty;
    }
    if (config.trace_probes && config.telemetry != nullptr &&
        config.telemetry->tracing()) {
      tracing.emplace(*top, *config.telemetry);
      top = &*tracing;
    }
    top_ = top;
  }

  bool active() const { return faulty.has_value() || tracing.has_value(); }

  ProbeReply send(const Ipv6Addr& addr, ProbeType type) override {
    return top_->send(addr, type);
  }
  std::uint64_t packets_sent() const override { return top_->packets_sent(); }
  void advance(double seconds) override { top_->advance(seconds); }
  std::uint64_t last_wire_nanos() const override {
    return top_->last_wire_nanos();
  }

  std::optional<v6::fault::FaultyTransport> faulty;
  std::optional<v6::probe::TracingTransport> tracing;

 private:
  v6::probe::ProbeTransport* top_ = nullptr;
};

}  // namespace

void PipelineConfig::validate() const {
  const v6::check::Validator v("PipelineConfig");
  v.positive(budget, "budget");
  v.positive(batch_size, "batch_size");
  v.non_negative(scan_retries, "scan_retries");
  v.positive(max_pps, "max_pps");
  v.non_negative(probe_timeout_s, "probe_timeout_s");
  v.non_negative(retry_backoff_s, "retry_backoff_s");
  v.unit_interval(retry_jitter, "retry_jitter");
  v.non_negative(adaptive_threshold, "adaptive_threshold");
  v.non_negative(adaptive_backoff_s, "adaptive_backoff_s");
  v.positive(shards, "shards");
  v.require(faults == nullptr || faults->valid(), "faults",
            "fault plan failed validation");
}

v6::metrics::ScanOutcome run_tga(const v6::simnet::Universe& universe,
                                 v6::tga::TargetGenerator& generator,
                                 std::span<const Ipv6Addr> seeds,
                                 const v6::dealias::AliasList& offline_aliases,
                                 const PipelineConfig& config) {
  config.validate();
  v6::metrics::ScanOutcome outcome;
  v6::obs::Telemetry* const telemetry = config.telemetry;
  v6::obs::Span run_span(telemetry, "pipeline.run");

  // The scan engine owns one stateless wire per shard; the online
  // dealiaser probes through a chain of its own over the same stateless
  // wire model, seeded apart: a dealias probe is a later packet than
  // the scan probe to the same address and must not replay its coin (a
  // shared seed correlates the two draws in rate-limited regions). Both
  // chains carry the same decorations — the fault plane (per-shard
  // injectors, seeded apart) and, for --trace runs, the per-packet
  // tracer — and both are counted per probe type when telemetry is
  // attached (the scanner adds its own counting layer). The
  // observability decorators are pass-throughs, so every reply is
  // identical whichever decorations are active.
  v6::probe::StatelessSimTransport dealias_wire(
      universe, v6::net::derive_seed(config.seed, /*tag=*/0xDEA1));
  ChainDecorations dealias_decorations(dealias_wire, config, config.seed);
  v6::probe::ProbeTransport* transport = &dealias_decorations;
  std::optional<v6::probe::CountingTransport> counting;
  if (telemetry != nullptr) {
    counting.emplace(*transport, telemetry->registry());
    transport = &*counting;
    v6::obs::Registry& registry = telemetry->registry();
    registry.gauge("pipeline.budget").set(
        static_cast<std::int64_t>(config.budget));
    registry.gauge("pipeline.batch_size").set(
        static_cast<std::int64_t>(config.batch_size));
    registry.gauge("pipeline.shards").set(config.shards);
  }

  v6::probe::StreamScanOptions stream_options;
  stream_options.shards = static_cast<unsigned>(config.shards);
  stream_options.scan = v6::probe::ScanOptions{
      .max_retries = config.scan_retries,
      .max_pps = config.max_pps,
      .seed = config.seed,
      .telemetry = telemetry,
      .probe_timeout_s = config.probe_timeout_s,
      .retry_backoff_s = config.retry_backoff_s,
      .retry_jitter = config.retry_jitter,
      .adaptive_threshold = config.adaptive_threshold,
      .adaptive_backoff_s = config.adaptive_backoff_s};
  std::vector<const ChainDecorations*> lane_decorations;
  if (dealias_decorations.active()) {
    // Invoked only inside the StreamScanner constructor below, so the
    // by-reference captures cannot dangle. src/probe cannot depend on
    // src/fault, so the pipeline supplies the wrapping.
    stream_options.decorate =
        [&config, &lane_decorations](v6::probe::ProbeTransport& inner,
                                     unsigned shard)
        -> std::unique_ptr<v6::probe::ProbeTransport> {
      auto lane = std::make_unique<ChainDecorations>(
          inner, config,
          v6::net::derive_seed(config.seed, /*tag=*/0x5A00 + shard));
      lane_decorations.push_back(lane.get());
      return lane;
    };
  }
  v6::probe::StreamScanner scanner(universe, config.blocklist,
                                   std::move(stream_options));
  v6::dealias::OnlineDealiaser online(*transport, config.seed);
  v6::dealias::Dealiaser dealiaser(v6::dealias::DealiasMode::kJoint,
                                   &offline_aliases, &online);

  {
    v6::obs::Span span(telemetry, "pipeline.prepare");
    generator.prepare(seeds, config.seed);
  }
  generator.attach_online_dealiaser(&online, config.type);

  std::vector<Ipv6Addr> actives;
  while (outcome.generated < config.budget) {
    if (telemetry != nullptr) {
      telemetry->registry().counter("pipeline.batches").inc();
    }
    const std::uint64_t want =
        std::min(config.batch_size, config.budget - outcome.generated);
    std::vector<Ipv6Addr> batch;
    {
      v6::obs::Span span(telemetry, "pipeline.generate",
                         v6::obs::Span::WithHistogram{});
      batch = generator.next_batch(static_cast<std::size_t>(want));
    }
    if (batch.empty()) break;  // generator model exhausted
    outcome.generated += batch.size();
    outcome.unique_generated += batch.size();  // generators never repeat

    actives.clear();
    {
      v6::obs::Span span(telemetry, "pipeline.scan",
                         v6::obs::Span::WithHistogram{});
      const auto on_reply = [&](const Ipv6Addr& addr, ProbeReply reply) {
        const bool active = v6::net::is_hit(config.type, reply);
        generator.observe(addr, active);
        if (active) actives.push_back(addr);
      };
      // The scanner delivers final classified replies in canonical
      // cycle-position order on this thread (after the shards join, when
      // sharded), so generator feedback stays reproducible.
      scanner.scan(batch, config.type, on_reply);
    }
    outcome.responsive += actives.size();

    // Output dealiasing (paper §4.2: applied to all active addresses)
    // and AS12322 filtering (ICMP only, §4.1).
    {
      v6::obs::Span span(telemetry, "pipeline.dealias",
                         v6::obs::Span::WithHistogram{});
      for (const Ipv6Addr& addr : actives) {
        if (dealiaser.is_aliased(addr, config.type)) {
          ++outcome.aliases;
          continue;
        }
        if (config.filter_dense && config.type == ProbeType::kIcmp &&
            universe.in_dense_region(addr)) {
          ++outcome.dense_filtered;
          continue;
        }
        outcome.hit_set.insert(addr);
        if (const auto asn = universe.asn_of(addr)) {
          outcome.as_set.insert(*asn);
        }
      }
    }

    // Deterministic time-series sampler: one point per batch boundary on
    // the virtual-time axis (ev:"sample"). Cumulative values and the
    // virtual timestamp are all derived from deterministic state, so the
    // sample stream is jobs-invariant; gated on tracing() because samples
    // only exist as trace events.
    if (telemetry != nullptr && telemetry->tracing()) {
      const double virtual_now = scanner.virtual_seconds();
      auto sample = [&](const char* name, std::uint64_t value) {
        v6::obs::Event event;
        event.kind = v6::obs::Event::Kind::kSample;
        event.path = name;
        event.at = virtual_now;
        event.value = value;
        telemetry->emit(event);
      };
      sample("sample.generated", outcome.generated);
      sample("sample.responsive", outcome.responsive);
      sample("sample.hits", outcome.hit_set.size());
      // Scan packets flow through the scanner's lanes, dealias probes
      // through the dealiaser's chain: count both.
      sample("sample.packets",
             transport->packets_sent() + scanner.packets_sent());
    }
  }

  outcome.packets = transport->packets_sent() + scanner.packets_sent();
  outcome.virtual_seconds = scanner.virtual_seconds();
  // Fault-plane drop/injection tallies, published once per run (summed
  // across the dealiaser chain's injector and the per-shard lane
  // injectors, in shard order). Only present when a plan is attached, so
  // fault-free reports are unchanged.
  if (telemetry != nullptr && config.faults != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    std::uint64_t drop_loss = 0;
    std::uint64_t drop_outage = 0;
    std::uint64_t drop_rate_limit = 0;
    std::uint64_t injected = 0;
    const auto add = [&](const v6::fault::FaultyTransport& faulty) {
      drop_loss += faulty.dropped_loss();
      drop_outage += faulty.dropped_outage();
      drop_rate_limit += faulty.dropped_rate_limit();
      injected += faulty.injected_errors();
    };
    add(*dealias_decorations.faulty);
    for (const ChainDecorations* lane : lane_decorations) add(*lane->faulty);
    registry.counter("fault.drop.loss").add(drop_loss);
    registry.counter("fault.drop.outage").add(drop_outage);
    registry.counter("fault.drop.rate_limit").add(drop_rate_limit);
    registry.counter("fault.injected.errors").add(injected);
  }
  V6_ENSURE(outcome.generated <= config.budget);
  V6_ENSURE(outcome.responsive <= outcome.generated);
  V6_ENSURE_MSG(outcome.aliases + outcome.dense_filtered <= outcome.responsive,
                "dealias/filter stages saw more addresses than responded");
  return outcome;
}

}  // namespace v6::experiment
