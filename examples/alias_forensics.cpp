// Alias forensics: reconstruct the paper's EIP/Amazon anomaly (§6.1) end
// to end. A rate-limited aliased prefix drops most probes, slips past
// online dealiasing, and masquerades as a spectacular pocket of "hits".
// This example finds such regions in the simulated Internet, shows how
// they defeat the standard dealiaser, and how the adaptive SPRT variant
// does better.
#include <iostream>

#include "dealias/online_dealiaser.h"
#include "dealias/sprt_dealiaser.h"
#include "example_env.h"
#include "experiment/workbench.h"
#include "metrics/reporter.h"
#include "probe/stateless_transport.h"
#include "probe/stream_scanner.h"

int main() {
  using v6::metrics::fmt_count;
  using v6::metrics::fmt_percent;
  using v6::net::Ipv6Addr;
  using v6::net::ProbeType;

  v6::experiment::Workbench bench(sos_example::workbench_config());
  const auto& universe = bench.universe();

  // 1. Locate a rate-limited aliased region (ground truth — the thing a
  //    real measurement study only discovers after the fact).
  const v6::simnet::AliasRegion* suspect = nullptr;
  for (const auto& region : universe.alias_regions()) {
    if (region.rate_limited &&
        v6::net::has_service(region.services, ProbeType::kIcmp)) {
      suspect = &region;
      break;
    }
  }
  if (suspect == nullptr) {
    std::cout << "universe contains no rate-limited aliases; re-seed\n";
    return 0;
  }
  std::cout << "suspect region: " << suspect->prefix.to_string() << " (AS"
            << suspect->asn << ", answers "
            << fmt_percent(suspect->response_prob)
            << " of probes)\n\n";

  // 2. Scan 2,000 addresses inside it: the hitrate looks like a gold
  //    mine, not like an alias.
  v6::probe::StreamScanner scanner(
      universe, nullptr, v6::probe::StreamScanOptions{}.with_scan({.seed = 99}));
  std::vector<Ipv6Addr> targets;
  v6::net::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    targets.push_back(v6::net::random_in_prefix(rng, suspect->prefix));
  }
  const v6::probe::ScanStats stats =
      scanner.scan_hits(targets, ProbeType::kIcmp).stats;
  std::cout << "scan of " << fmt_count(stats.probed)
            << " random addresses inside it: " << fmt_count(stats.hits)
            << " 'hits' ("
            << fmt_percent(static_cast<double>(stats.hits) /
                           static_cast<double>(stats.probed))
            << " hitrate) — every one the same device\n\n";

  // 3. The standard online dealiaser vs the SPRT variant, 40 trials each.
  int fixed_caught = 0;
  int sprt_caught = 0;
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Ipv6Addr probe_addr =
        v6::net::random_in_prefix(rng, suspect->prefix);
    {
      v6::probe::StatelessSimTransport t(universe, 1000 + trial);
      v6::dealias::OnlineDealiaser d(t, 1000 + trial);
      fixed_caught += d.is_aliased(probe_addr, ProbeType::kIcmp);
    }
    {
      v6::probe::StatelessSimTransport t(universe, 1000 + trial);
      v6::dealias::SprtDealiaser d(t, 1000 + trial);
      sprt_caught += d.is_aliased(probe_addr, ProbeType::kIcmp);
    }
  }
  std::cout << "6Gen-style dealiaser (3 probes, >=2): caught "
            << fixed_caught << "/" << kTrials << " trials\n";
  std::cout << "SPRT adaptive dealiaser:              caught "
            << sprt_caught << "/" << kTrials << " trials\n\n";
  std::cout << "This is the paper's Amazon-prefix anomaly in miniature: "
               "rate limiting turns an alias into phantom hits. Sequential "
               "testing closes part of the gap; the paper is right that "
               "optimal dealiasing remains open.\n";
  return 0;
}
