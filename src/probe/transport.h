// Probe transport abstraction.
//
// The scanner, the online dealiaser, and every online TGA emit probes
// through a ProbeTransport. The shipped StatelessSimTransport
// (stateless_transport.h) targets the simulated Internet; a raw-socket
// transport would slot in identically for live scanning.
#pragma once

#include <cstdint>

#include "net/ipv6.h"
#include "net/service.h"

namespace v6::probe {

/// Sends one probe packet and reports the wire-level reply.
class ProbeTransport {
 public:
  virtual ~ProbeTransport() = default;

  /// Emits a single probe of `type` to `addr` and returns the reply
  /// (kTimeout if none arrived).
  virtual v6::net::ProbeReply send(const v6::net::Ipv6Addr& addr,
                                   v6::net::ProbeType type) = 0;

  /// Total packets emitted through this transport.
  virtual std::uint64_t packets_sent() const = 0;

  /// Informs the transport that `seconds` of virtual wire time passed
  /// without traffic (scanner timeout/backoff waits). Time-aware layers
  /// — the fault plane's token buckets and outage windows — move their
  /// clocks forward; the default is a no-op, and decorators forward it
  /// down the chain.
  virtual void advance(double seconds) { (void)seconds; }

  /// Virtual wire nanoseconds consumed by the most recent send(): the
  /// modeled round-trip time of its reply. A timed-out probe consumed no
  /// wire time — implementations MUST return 0 after a timeout (the
  /// scanner's wait is charged separately via advance()), and callers on
  /// hot paths rely on that to skip the query entirely. Deterministic —
  /// derived from the simulated wire clock, never a real one. Default 0
  /// for transports without a latency model.
  virtual std::uint64_t last_wire_nanos() const { return 0; }
};

}  // namespace v6::probe
