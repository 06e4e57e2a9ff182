// Tests for the DNS substrate: zone store, resolver latency/caching, and the
// SCION TXT-record discovery convention.
#include <gtest/gtest.h>

#include <memory>

#include "dns/dns.hpp"

namespace pan::dns {
namespace {

TEST(ZoneTest, LookupAndRemove) {
  Zone zone;
  zone.add_a("example.org", net::IpAddr{1});
  zone.add_txt("example.org", "v=spf1");
  const RecordSet* records = zone.lookup("example.org");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->a.size(), 1u);
  EXPECT_EQ(records->txt.size(), 1u);
  EXPECT_EQ(zone.lookup("missing.org"), nullptr);
  zone.remove("example.org");
  EXPECT_EQ(zone.lookup("example.org"), nullptr);
}

TEST(ZoneTest, ScionTxtConvention) {
  Zone zone;
  const scion::ScionAddr addr{scion::IsdAsn{1, 0xff00'0000'0110ULL}, net::IpAddr{0x0a000001}};
  zone.add_scion_txt("pan.example", addr);
  const RecordSet* records = zone.lookup("pan.example");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->txt.front(), "scion=1-ff00:0:110,10.0.0.1");
  const auto parsed = scion_addr_from_txt(*records);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, addr);
}

TEST(ScionTxtTest, IgnoresUnrelatedAndMalformed) {
  RecordSet records;
  records.txt = {"v=spf1 -all", "scion=notanaddress", "other=1"};
  EXPECT_FALSE(scion_addr_from_txt(records).has_value());
  records.txt.push_back("scion=2-64512,10.0.0.9");
  const auto parsed = scion_addr_from_txt(records);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ia.isd(), 2);
}

struct ResolverFixture {
  sim::Simulator sim;
  Zone zone;
  ResolverConfig config{.lookup_latency = milliseconds(5),
                        .cache_ttl = seconds(60),
                        .negative_ttl = seconds(10)};
  Resolver resolver{sim, zone, config};

  ResolverFixture() { zone.add_a("example.org", net::IpAddr{42}); }
};

TEST(ResolverTest, LookupCostsLatency) {
  ResolverFixture fx;
  bool done = false;
  fx.resolver.resolve("example.org", [&](Result<RecordSet> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().a.front().value(), 42u);
    EXPECT_EQ(fx.sim.now().nanos(), milliseconds(5).nanos());
    done = true;
  });
  fx.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fx.resolver.cache_misses(), 1u);
}

TEST(ResolverTest, CacheHitIsImmediate) {
  ResolverFixture fx;
  fx.resolver.resolve("example.org", [](Result<RecordSet>) {});
  fx.sim.run();
  const TimePoint before = fx.sim.now();
  bool done = false;
  fx.resolver.resolve("example.org", [&](Result<RecordSet> r) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(fx.sim.now(), before);
    done = true;
  });
  EXPECT_TRUE(done);
  EXPECT_EQ(fx.resolver.cache_hits(), 1u);
}

TEST(ResolverTest, NxdomainIsErrorAndNegativelyCached) {
  ResolverFixture fx;
  bool done = false;
  fx.resolver.resolve("missing.org", [&](Result<RecordSet> r) {
    EXPECT_FALSE(r.ok());
    done = true;
  });
  fx.sim.run();
  EXPECT_TRUE(done);
  // Second query hits the negative cache (no extra miss).
  bool done2 = false;
  fx.resolver.resolve("missing.org", [&](Result<RecordSet> r) {
    EXPECT_FALSE(r.ok());
    done2 = true;
  });
  EXPECT_TRUE(done2);
  EXPECT_EQ(fx.resolver.cache_misses(), 1u);
  EXPECT_EQ(fx.resolver.cache_hits(), 1u);
}

TEST(ResolverTest, CacheExpires) {
  ResolverFixture fx;
  fx.resolver.resolve("example.org", [](Result<RecordSet>) {});
  fx.sim.run();
  fx.sim.run_until(fx.sim.now() + seconds(120));  // past the 60s TTL
  fx.resolver.resolve("example.org", [](Result<RecordSet>) {});
  fx.sim.run();
  EXPECT_EQ(fx.resolver.cache_misses(), 2u);
}

TEST(ResolverTest, FlushCacheForcesRefetch) {
  ResolverFixture fx;
  fx.resolver.resolve("example.org", [](Result<RecordSet>) {});
  fx.sim.run();
  fx.resolver.flush_cache();
  fx.resolver.resolve("example.org", [](Result<RecordSet>) {});
  fx.sim.run();
  EXPECT_EQ(fx.resolver.cache_misses(), 2u);
}

TEST(ResolverTest, ResolveNowBypassesLatency) {
  ResolverFixture fx;
  const auto r = fx.resolver.resolve_now("example.org");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().a.front().value(), 42u);
  EXPECT_FALSE(fx.resolver.resolve_now("missing.org").ok());
  EXPECT_EQ(fx.sim.now().nanos(), 0);
}

TEST(ResolverTest, RecordsAddedAfterNegativeCacheAppearAfterTtl) {
  ResolverFixture fx;
  fx.resolver.resolve("new.org", [](Result<RecordSet>) {});
  fx.sim.run();
  fx.zone.add_a("new.org", net::IpAddr{7});
  // Still negative within negative_ttl.
  bool stale_checked = false;
  fx.resolver.resolve("new.org", [&](Result<RecordSet> r) {
    EXPECT_FALSE(r.ok());
    stale_checked = true;
  });
  EXPECT_TRUE(stale_checked);
  fx.sim.run_until(fx.sim.now() + seconds(11));
  bool fresh = false;
  fx.resolver.resolve("new.org", [&](Result<RecordSet> r) {
    EXPECT_TRUE(r.ok());
    fresh = true;
  });
  fx.sim.run();
  EXPECT_TRUE(fresh);
}

TEST(ResolverTest, TeardownCancelsPendingLookups) {
  sim::Simulator sim;
  Zone zone;
  zone.add_a("example.org", net::IpAddr{42});
  auto resolver = std::make_unique<Resolver>(sim, zone);
  // One lookup on the normal path, one swallowed by a brownout (timeout).
  resolver->set_fault_hook([](const std::string& domain) -> std::optional<ResolverFault> {
    if (domain == "browned.org") return ResolverFault{};
    return std::nullopt;
  });
  int answered = 0;
  resolver->resolve("example.org", [&](Result<RecordSet>) { ++answered; });
  resolver->resolve("browned.org", [&](Result<RecordSet>) { ++answered; });
  EXPECT_EQ(sim.pending_events(), 2u);
  resolver.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_for(seconds(10));
  EXPECT_EQ(answered, 0);
}

}  // namespace
}  // namespace pan::dns
