// Stateless probe validation (docs/SCANNER.md): the prober embeds a
// splitmix64 MAC over (addr, seed) in every probe it emits, and the
// receive side recomputes it from the reply's address alone — no shared
// pending-map, no per-probe state on the receive path. A reply whose
// token fails validation is counted and dropped instead of classified
// (the live-scanning analogue: a spoofed or stale packet that does not
// echo our validation bytes).
//
// This is an integrity check against confusion, not a cryptographic MAC:
// splitmix64 is invertible to anyone who knows the construction. The
// paper's Scanv6 role needs replies attributable to probes; it does not
// need to survive an adversary forging them.
#pragma once

#include <cstdint>

#include "net/ipv6.h"
#include "net/rng.h"

namespace v6::probe {

/// The per-scan MAC key, derived once per scan from the master seed.
inline std::uint64_t probe_auth_key(std::uint64_t seed) {
  return v6::net::derive_seed(seed, /*tag=*/0x5EA1ED);
}

/// The validation token carried in a probe to `addr` under `key`. A pure
/// function of its arguments: any party holding the scan seed can
/// recompute it from a reply's source address.
inline std::uint64_t probe_token_keyed(const v6::net::Ipv6Addr& addr,
                                       std::uint64_t key) {
  return v6::net::splitmix64(v6::net::splitmix64(addr.hi() ^ key) ^
                             addr.lo());
}

}  // namespace v6::probe
