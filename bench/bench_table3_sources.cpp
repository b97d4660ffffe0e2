// Regenerates paper Table 3 (full summary of seed data sources: unique
// population, ASes, dealiased size, per-port responsiveness) plus the
// Appendix C volume breakdown (Table 8 analogue).
#include <array>
#include <iostream>
#include <unordered_set>

#include "bench_common.h"
#include "dealias/online_dealiaser.h"
#include "probe/stateless_transport.h"
#include "dns/domain_lists.h"
#include "dns/resolver.h"
#include "seeds/collector.h"
#include "seeds/preprocess.h"

using v6::metrics::fmt_count;
using v6::net::Ipv6Addr;
using v6::net::ProbeType;

int main(int argc, char** argv) {
  const v6::bench::BenchArgs args = v6::bench::parse_args(argc, argv);
  v6::bench::BenchTimer timer("table3_sources", args);

  v6::experiment::Workbench bench;
  const auto& universe = bench.universe();
  const auto& dataset = bench.seeds();
  const auto& activity = bench.activity();

  // One shared joint dealiaser so /96 verdicts are probed once.
  v6::probe::StatelessSimTransport transport(universe, bench.seed() + 7);
  v6::dealias::OnlineDealiaser online(transport, bench.seed() + 7);
  v6::dealias::Dealiaser joint(v6::dealias::DealiasMode::kJoint,
                               &bench.alias_list(), &online);

  v6::metrics::TextTable table({"Source", "Pop.", "Unique", "ASes",
                                "Dealiased", "ICMP", "TCP80", "TCP443",
                                "UDP53", "Active", "Active ASes"});

  struct Totals {
    std::unordered_set<Ipv6Addr> unique;
    std::unordered_set<std::uint32_t> ases;
    std::uint64_t dealiased = 0;
    std::array<std::uint64_t, 4> per_port{};
    std::uint64_t active = 0;
    std::unordered_set<std::uint32_t> active_ases;
  };

  auto row_for = [&](const std::string& label, const std::string& pop,
                     const std::vector<Ipv6Addr>& addrs, Totals* fold) {
    std::unordered_set<std::uint32_t> ases;
    std::unordered_set<std::uint32_t> active_ases;
    std::uint64_t dealiased = 0;
    std::array<std::uint64_t, 4> per_port{};
    std::uint64_t active = 0;
    for (const Ipv6Addr& addr : addrs) {
      const auto asn = universe.asn_of(addr);
      if (asn) ases.insert(*asn);
      const bool aliased = joint.is_aliased(addr, ProbeType::kIcmp);
      if (!aliased) ++dealiased;
      const v6::net::ServiceMask m = activity.of(addr);
      if (aliased || m == 0) continue;
      ++active;
      if (asn) active_ases.insert(*asn);
      for (const ProbeType t : v6::net::kAllProbeTypes) {
        if (v6::net::has_service(m, t)) {
          ++per_port[static_cast<std::size_t>(t)];
        }
      }
    }
    if (fold != nullptr) {
      fold->unique.insert(addrs.begin(), addrs.end());
      fold->ases.insert(ases.begin(), ases.end());
      fold->active_ases.insert(active_ases.begin(), active_ases.end());
    }
    table.add_row({label, pop, fmt_count(addrs.size()),
                   fmt_count(ases.size()), fmt_count(dealiased),
                   fmt_count(per_port[0]), fmt_count(per_port[1]),
                   fmt_count(per_port[2]), fmt_count(per_port[3]),
                   fmt_count(active), fmt_count(active_ases.size())});
  };

  {
    const auto section = timer.section("source_summary");
    for (const v6::seeds::SeedSource source : v6::seeds::kAllSeedSources) {
      const auto addrs = dataset.from_source(source);
      row_for(std::string(v6::seeds::to_string(source)),
              std::string(v6::seeds::to_string(v6::seeds::category(source))),
              addrs, nullptr);
    }
    table.add_rule();
    row_for("All Sources", "Both", bench.full(), nullptr);
  }

  std::cout << "=== Table 3: seed data source summary ===\n";
  table.print(std::cout);

  std::cout << "\n=== Appendix C analogue (Table 8): domain feeds "
               "resolution funnel ===\n";
  {
    const auto section = timer.section("dns_funnel");
    v6::seeds::SeedCollector collector(universe, bench.seed());
    v6::metrics::TextTable volume(
        {"Source", "Domains", "AAAAs", "NXDOMAIN", "Unique IPv6 IPs"});
    const std::vector<std::pair<v6::seeds::SeedSource,
                                v6::dns::DomainListKind>> domain_feeds = {
        {v6::seeds::SeedSource::kCensys, v6::dns::DomainListKind::kCensysCt},
        {v6::seeds::SeedSource::kRapid7, v6::dns::DomainListKind::kRapid7Fdns},
        {v6::seeds::SeedSource::kUmbrella, v6::dns::DomainListKind::kUmbrella},
        {v6::seeds::SeedSource::kMajestic, v6::dns::DomainListKind::kMajestic},
        {v6::seeds::SeedSource::kTranco, v6::dns::DomainListKind::kTranco},
        {v6::seeds::SeedSource::kSecrank, v6::dns::DomainListKind::kSecrank},
        {v6::seeds::SeedSource::kRadar, v6::dns::DomainListKind::kRadar},
        {v6::seeds::SeedSource::kCaidaDns, v6::dns::DomainListKind::kCaidaDns},
    };
    for (const auto& [source, kind] : domain_feeds) {
      const auto names = v6::dns::make_domain_list(collector.zone(), universe,
                                                   kind, bench.seed());
      v6::dns::Resolver resolver(
          collector.zone(),
          {.seed = v6::net::derive_seed(bench.seed(),
                                        static_cast<std::uint64_t>(source))});
      const auto addrs = resolver.resolve_all(names);
      const std::unordered_set<Ipv6Addr> unique(addrs.begin(), addrs.end());
      volume.add_row({std::string(v6::seeds::to_string(source)),
                      fmt_count(names.size()),
                      fmt_count(resolver.stats().addresses),
                      fmt_count(resolver.stats().nxdomain),
                      fmt_count(unique.size())});
    }
    volume.print(std::cout);
  }
  return 0;
}
