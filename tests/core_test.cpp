// Tests for the browser-integration core: page model, extension semantics
// (strict pins, indicator), browser loads in both modes, and the Table 1
// layer model.
#include <gtest/gtest.h>

#include "core/layer_model.hpp"
#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "support/segment_oracle.hpp"

namespace pan::browser {
namespace {

// ----------------------------------------------------------------- setup --

TEST(RemoteWorldSetupTest, Sha256BlockCountAtSeed1) {
  // A deterministic work count for world construction: key generation,
  // certificates and beacon signing and verification are almost all of it.
  // Rebuilding every earlier entry per signing input cost 22,226 blocks.
  WorldConfig config;
  config.seed = 1;
  const std::uint64_t before = crypto::sha256_blocks();
  const std::unique_ptr<World> world = make_remote_world(config);
  EXPECT_EQ(crypto::sha256_blocks() - before, 17'752u);
}

TEST(RemoteWorldSetupTest, SegmentDigestsMatchOracle) {
  WorldConfig config;
  config.seed = 1;
  const std::unique_ptr<World> world = make_remote_world(config);
  const auto segments = testsupport::all_segments(world->topology());
  ASSERT_FALSE(segments.empty());
  for (const scion::PathSegment* seg : segments) {
    EXPECT_EQ(testsupport::oracle_mismatch(*seg), "");
  }
}

// ------------------------------------------------------------------ page --

TEST(PageTest, RenderParseRoundTrip) {
  const std::vector<std::string> resources{"http://a.example/x", "/local.css"};
  const std::string body = render_document(resources);
  EXPECT_TRUE(is_page_document(body));
  EXPECT_EQ(parse_document(body), resources);
}

TEST(PageTest, NonDocumentHasNoResources) {
  EXPECT_FALSE(is_page_document("<html>hello</html>"));
  EXPECT_TRUE(parse_document("random bytes").empty());
  EXPECT_TRUE(parse_document("").empty());
}

TEST(PageTest, IgnoresMalformedLines) {
  const std::string body = std::string(kPageDoctype) + "\nres /a\ngarbage\nres \n";
  EXPECT_EQ(parse_document(body), std::vector<std::string>{"/a"});
}

TEST(PageTest, ResolveResourceUrls) {
  const http::Url base = http::parse_url("http://www.example.org/index").value();
  const auto absolute = resolve_resource_url(base, "http://cdn.example.org/x.png");
  ASSERT_TRUE(absolute.ok());
  EXPECT_EQ(absolute.value().host, "cdn.example.org");
  const auto relative = resolve_resource_url(base, "/style.css");
  ASSERT_TRUE(relative.ok());
  EXPECT_EQ(relative.value().host, "www.example.org");
  EXPECT_EQ(relative.value().path, "/style.css");
  EXPECT_FALSE(resolve_resource_url(base, "style.css").ok());
}

// ------------------------------------------------------------- extension --

struct ExtensionFixture {
  std::unique_ptr<World> world = make_local_world();
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<proxy::SkipProxy> proxy;
  std::unique_ptr<BrowserExtension> ext;

  ExtensionFixture() {
    auto& topo = world->topology();
    resolver = std::make_unique<dns::Resolver>(world->sim(), world->zone(), dns::ResolverConfig{});
    proxy = std::make_unique<proxy::SkipProxy>(world->sim(), topo.host(world->client),
                                               topo.scion_stack(world->client),
                                               topo.daemon_for(world->client), *resolver);
    ext = std::make_unique<BrowserExtension>(world->sim(), *proxy);
  }
};

TEST(ExtensionTest, GlobalStrictMode) {
  ExtensionFixture fx;
  EXPECT_FALSE(fx.ext->strict_for("any.example"));
  fx.ext->set_mode(OperationMode::kStrict);
  EXPECT_TRUE(fx.ext->strict_for("any.example"));
}

TEST(ExtensionTest, PerSiteStrictOverride) {
  ExtensionFixture fx;
  fx.ext->set_site_strict("bank.example", true);
  EXPECT_TRUE(fx.ext->strict_for("bank.example"));
  EXPECT_FALSE(fx.ext->strict_for("other.example"));
}

TEST(ExtensionTest, LearnsAndExpiresStrictScionPins) {
  ExtensionFixture fx;
  http::HttpResponse response = http::make_response(200);
  http::set_strict_scion(response, http::StrictScionDirective{seconds(60)});
  fx.ext->observe_response("pinned.example", response);
  EXPECT_TRUE(fx.ext->has_pin("pinned.example"));
  EXPECT_TRUE(fx.ext->strict_for("pinned.example"));
  fx.world->sim().run_until(fx.world->sim().now() + seconds(61));
  EXPECT_FALSE(fx.ext->has_pin("pinned.example"));
  EXPECT_FALSE(fx.ext->strict_for("pinned.example"));
}

TEST(ExtensionTest, MaxAgeZeroClearsPin) {
  ExtensionFixture fx;
  http::HttpResponse pin = http::make_response(200);
  http::set_strict_scion(pin, http::StrictScionDirective{seconds(60)});
  fx.ext->observe_response("site.example", pin);
  EXPECT_TRUE(fx.ext->has_pin("site.example"));
  http::HttpResponse clear = http::make_response(200);
  http::set_strict_scion(clear, http::StrictScionDirective{seconds(0)});
  fx.ext->observe_response("site.example", clear);
  EXPECT_FALSE(fx.ext->has_pin("site.example"));
}

TEST(ExtensionTest, ResponsesWithoutHeaderDoNothing) {
  ExtensionFixture fx;
  fx.ext->observe_response("site.example", http::make_response(200));
  EXPECT_EQ(fx.ext->pin_count(), 0u);
}

TEST(ExtensionTest, IndicatorStates) {
  EXPECT_EQ(BrowserExtension::indicator(0, 0), IndicatorState::kNoScion);
  EXPECT_EQ(BrowserExtension::indicator(0, 5), IndicatorState::kNoScion);
  EXPECT_EQ(BrowserExtension::indicator(3, 5), IndicatorState::kSomeScion);
  EXPECT_EQ(BrowserExtension::indicator(5, 5), IndicatorState::kAllScion);
}

// --------------------------------------------------------------- browser --

TEST(BrowserTest, LoadsScionOnlyPage) {
  auto world = make_local_world();
  auto& fs = *world->site("scion-fs.local");
  fs.add_blob("/img.png", 5'000);
  fs.add_text("/", render_document({"/img.png"}));
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://scion-fs.local/");
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.resources.size(), 2u);
  EXPECT_EQ(result.over_scion, 2u);
  EXPECT_EQ(result.indicator, IndicatorState::kAllScion);
  EXPECT_TRUE(result.fully_policy_compliant);
  EXPECT_GT(result.plt.nanos(), 0);
}

TEST(BrowserTest, MixedPageShowsSomeScion) {
  auto world = make_local_world();
  world->site("scion-fs.local")
      ->add_text("/", render_document({"http://tcpip-fs.local/style.css"}));
  world->site("tcpip-fs.local")->add_blob("/style.css", 2'000);
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://scion-fs.local/");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.over_scion, 1u);
  EXPECT_EQ(result.over_ip, 1u);
  EXPECT_EQ(result.indicator, IndicatorState::kSomeScion);
  EXPECT_FALSE(result.fully_policy_compliant);
}

TEST(BrowserTest, StrictModeBlocksThirdPartyLegacyResources) {
  auto world = make_local_world();
  world->site("scion-fs.local")
      ->add_text("/", render_document({"http://tcpip-fs.local/style.css", "/ok.png"}));
  world->site("scion-fs.local")->add_blob("/ok.png", 1'000);
  world->site("tcpip-fs.local")->add_blob("/style.css", 2'000);
  ClientSession session(*world);
  session.extension().set_mode(OperationMode::kStrict);
  const PageLoadResult result = session.load("http://scion-fs.local/");
  EXPECT_TRUE(result.ok);          // nothing failed...
  EXPECT_FALSE(result.complete);   // ...but something was blocked
  EXPECT_EQ(result.blocked, 1u);
  EXPECT_EQ(result.over_scion, 2u);
}

TEST(BrowserTest, StrictModeFailsClosedForLegacyMainDocument) {
  auto world = make_local_world();
  world->site("tcpip-fs.local")->add_text("/", "legacy page");
  ClientSession session(*world);
  session.extension().set_mode(OperationMode::kStrict);
  const PageLoadResult result = session.load("http://tcpip-fs.local/");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.blocked, 1u);
}

TEST(BrowserTest, DirectModeBypassesProxyEntirely) {
  auto world = make_local_world();
  auto& fs = *world->site("tcpip-fs.local");
  fs.add_blob("/img.png", 5'000);
  fs.add_text("/", render_document({"/img.png"}));
  DirectSession session(*world);
  const PageLoadResult result = session.load("http://tcpip-fs.local/");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.over_ip, 2u);
  EXPECT_EQ(result.indicator, IndicatorState::kNoScion);
}

TEST(BrowserTest, DirectModeCannotReachScionOnlySite) {
  auto world = make_local_world();
  world->site("scion-fs.local")->add_text("/", "x");
  DirectSession session(*world);
  const PageLoadResult result = session.load("http://scion-fs.local/");
  EXPECT_FALSE(result.ok);  // no A record, no SCION stack without extension
}

TEST(BrowserTest, MissingResourceCountsAsFailed) {
  auto world = make_local_world();
  world->site("scion-fs.local")->add_text("/", render_document({"/ghost.png"}));
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://scion-fs.local/");
  EXPECT_FALSE(result.ok);  // 404 resource
  EXPECT_EQ(result.failed, 1u);
}

TEST(BrowserTest, StrictScionPinUpgradesSubsequentLoads) {
  auto world = make_local_world();
  auto& fs = *world->site("scion-fs.local");
  fs.enable_strict_scion(seconds(600));
  fs.add_text("/", render_document({"http://tcpip-fs.local/style.css"}));
  world->site("tcpip-fs.local")->add_blob("/style.css", 100);
  ClientSession session(*world);
  // First load: opportunistic, legacy resource loads over IP.
  const PageLoadResult first = session.load("http://scion-fs.local/");
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.over_ip, 1u);
  EXPECT_TRUE(session.extension().has_pin("scion-fs.local"));
  // Second load: the pin forces strict mode for this site -> block.
  const PageLoadResult second = session.load("http://scion-fs.local/");
  EXPECT_EQ(second.blocked, 1u);
  EXPECT_EQ(second.over_ip, 0u);
}

TEST(BrowserTest, ConcurrencyLimitRespected) {
  auto world = make_local_world();
  auto& fs = *world->site("scion-fs.local");
  std::vector<std::string> resources;
  for (int i = 0; i < 12; ++i) {
    const std::string path = "/r" + std::to_string(i);
    fs.add_blob(path, 100);
    resources.push_back(path);
  }
  fs.add_text("/", render_document(resources));
  BrowserConfig config;
  config.max_concurrent_fetches = 2;
  ClientSession session(*world, {}, config);
  const PageLoadResult result = session.load("http://scion-fs.local/");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.resources.size(), 13u);
}

// --------------------------------------------------------------- redirects --

TEST(RedirectTest, FollowsSameOriginRedirect) {
  auto world = make_local_world();
  auto& fs = *world->site("scion-fs.local");
  fs.add_redirect("/old", "/new", 301);
  fs.add_text("/new", "fresh content");
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://scion-fs.local/old");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.resources[0].status, 200);
  EXPECT_EQ(result.resources[0].redirects, 1);
  EXPECT_EQ(result.resources[0].url, "http://scion-fs.local/new");
}

TEST(RedirectTest, CrossOriginMainDocumentRebasesRelativeResources) {
  auto world = make_local_world();
  // Legacy host redirects to the SCION host; the page there references a
  // relative resource that must resolve against the *new* origin.
  world->site("tcpip-fs.local")->add_redirect("/", "http://scion-fs.local/landing");
  auto& scion_fs = *world->site("scion-fs.local");
  scion_fs.add_text("/landing", render_document({"/style.css"}));
  scion_fs.add_blob("/style.css", 500);
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://tcpip-fs.local/");
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.resources.size(), 2u);
  // Both the landed document and its relative resource came over SCION.
  EXPECT_EQ(result.over_scion, 2u);
  EXPECT_EQ(result.indicator, IndicatorState::kAllScion);
}

TEST(RedirectTest, RedirectLoopIsCapped) {
  auto world = make_local_world();
  auto& fs = *world->site("tcpip-fs.local");
  fs.add_redirect("/a", "/b");
  fs.add_redirect("/b", "/a");
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://tcpip-fs.local/a");
  EXPECT_FALSE(result.ok);  // ends on a 3xx after the cap
  EXPECT_EQ(result.resources[0].redirects, kMaxRedirects);
  EXPECT_GE(result.resources[0].status, 300);
  EXPECT_LT(result.resources[0].status, 400);
}

TEST(RedirectTest, DirectModeFollowsRedirectsToo) {
  auto world = make_local_world();
  auto& fs = *world->site("tcpip-fs.local");
  fs.add_redirect("/old", "/new", 308);
  fs.add_text("/new", "x");
  DirectSession session(*world);
  const PageLoadResult result = session.load("http://tcpip-fs.local/old");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.resources[0].redirects, 1);
}

TEST(BrowserTest, PageTimeoutSettlesWithFailure) {
  auto world = make_local_world();
  auto& topo = world->topology();
  // A server that accepts requests but never answers.
  http::LegacyHttpServer black_hole(topo.host(topo.host_by_name("tcpip-fs")), 8080,
                                    [](const http::HttpRequest&, http::HttpServer::Respond) {
                                    });
  world->zone().add_a("hole.local", topo.ip(topo.host_by_name("tcpip-fs")));
  BrowserConfig config;
  config.page_timeout = seconds(2);
  ClientSession session(*world, {}, config);
  const PageLoadResult result = session.load("http://hole.local:8080/");
  EXPECT_FALSE(result.ok);
  // Settled by the page timeout, not the (longer) proxy timeout.
  EXPECT_GE(result.plt.nanos(), seconds(2).nanos());
  EXPECT_LT(result.plt.nanos(), seconds(3).nanos());
}

// ------------------------------------------------------------------ cache --

TEST(CacheTest, RevalidationServes304FromCache) {
  auto world = make_local_world();
  auto& fs = *world->site("scion-fs.local");
  fs.add_blob("/app.js", 40'000);
  fs.add_text("/", render_document({"/app.js"}));
  BrowserConfig config;
  config.enable_cache = true;
  ClientSession session(*world, {}, config);

  const PageLoadResult cold = session.load("http://scion-fs.local/");
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.resources[1].from_cache);
  EXPECT_EQ(cold.resources[1].bytes, 40'000u);

  const PageLoadResult warm = session.load("http://scion-fs.local/");
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.resources[0].from_cache);
  EXPECT_TRUE(warm.resources[1].from_cache);
  EXPECT_EQ(warm.resources[1].status, 304);
  EXPECT_EQ(warm.resources[1].bytes, 40'000u);  // cached body
  EXPECT_EQ(fs.revalidations(), 2u);
  // Revalidating transfers only headers: the warm load is faster.
  EXPECT_LT(warm.plt.nanos(), cold.plt.nanos());
}

TEST(CacheTest, ChangedContentRefetches) {
  auto world = make_local_world();
  auto& fs = *world->site("tcpip-fs.local");
  fs.add_text("/data", "version-1");
  BrowserConfig config;
  config.enable_cache = true;
  ClientSession session(*world, {}, config);
  const PageLoadResult first = session.load("http://tcpip-fs.local/data");
  ASSERT_TRUE(first.ok);
  fs.add_text("/data", "version-2!");  // content (and ETag) changes
  const PageLoadResult second = session.load("http://tcpip-fs.local/data");
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(second.resources[0].from_cache);
  EXPECT_EQ(second.resources[0].status, 200);
  EXPECT_EQ(second.resources[0].bytes, 10u);
  EXPECT_EQ(fs.revalidations(), 0u);

  // Same length, different bytes: the server's memoized ETag must not
  // survive the replacement, so revalidating with the old one gets a 200.
  const std::string old_etag = "\"" + http::etag_of(from_string("version-2!")) + "\"";
  fs.add_text("/data", "version-3!");
  const PageLoadResult third = session.load("http://tcpip-fs.local/data");
  ASSERT_TRUE(third.ok);
  EXPECT_FALSE(third.resources[0].from_cache);
  EXPECT_EQ(third.resources[0].status, 200);
  EXPECT_EQ(third.resources[0].bytes, 10u);
  EXPECT_EQ(fs.revalidations(), 0u);

  http::HttpRequest revalidate;
  revalidate.target = "/data";
  revalidate.headers.set("If-None-Match", old_etag);
  http::HttpResponse got;
  fs.handler()(revalidate, [&](http::HttpResponse r) { got = std::move(r); });
  world->sim().run_until(world->sim().now() + seconds(1));
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(to_string_view_copy(got.body), "version-3!");
  EXPECT_EQ(fs.revalidations(), 0u);
}

TEST(CacheTest, DisabledByDefault) {
  auto world = make_local_world();
  auto& fs = *world->site("tcpip-fs.local");
  fs.add_text("/data", "payload");
  ClientSession session(*world);
  session.load("http://tcpip-fs.local/data");
  const PageLoadResult second = session.load("http://tcpip-fs.local/data");
  EXPECT_FALSE(second.resources[0].from_cache);
  EXPECT_EQ(fs.revalidations(), 0u);
}

// ------------------------------------------------------------ layer model --

TEST(LayerModelTest, SampledPathsAreWellFormed) {
  Rng rng(1);
  const auto paths = sample_candidate_paths(rng, 10);
  ASSERT_EQ(paths.size(), 10u);
  for (const auto& p : paths) {
    EXPECT_GE(p.hops().size(), 2u);
    EXPECT_GT(p.meta().latency.nanos(), 0);
    EXPECT_GT(p.meta().bandwidth_bps, 0);
  }
}

TEST(LayerModelTest, OsAchievesTransportMetrics) {
  Rng rng(2);
  double sum = 0;
  for (int t = 0; t < 50; ++t) {
    const auto paths = sample_candidate_paths(rng, 12);
    const TaskContext ctx = sample_context(PanProperty::kLowLatency, rng);
    sum += select_and_score(Layer::kOs, PanProperty::kLowLatency, paths, ctx, rng).achievement;
  }
  EXPECT_GT(sum / 50, 0.95);
}

TEST(LayerModelTest, OsFailsGeofencing) {
  Rng rng(3);
  double os_sum = 0;
  double user_sum = 0;
  for (int t = 0; t < 100; ++t) {
    const auto paths = sample_candidate_paths(rng, 12);
    const TaskContext ctx = sample_context(PanProperty::kGeofencing, rng);
    os_sum += select_and_score(Layer::kOs, PanProperty::kGeofencing, paths, ctx, rng).achievement;
    user_sum +=
        select_and_score(Layer::kUser, PanProperty::kGeofencing, paths, ctx, rng).achievement;
  }
  EXPECT_GT(user_sum / 100, 0.99);  // user always achieves the fence
  EXPECT_LT(os_sum / 100, user_sum / 100 - 0.1);
}

TEST(LayerModelTest, OnionDecisionNeedsContext) {
  Rng rng(4);
  const auto paths = sample_candidate_paths(rng, 5);
  TaskContext ctx;
  ctx.privacy_sensitive = true;
  ctx.app_knows_privacy = true;
  EXPECT_EQ(select_and_score(Layer::kOs, PanProperty::kOnionRouting, paths, ctx, rng).achievement,
            0.0);
  EXPECT_EQ(
      select_and_score(Layer::kApp, PanProperty::kOnionRouting, paths, ctx, rng).achievement,
      1.0);
  EXPECT_EQ(
      select_and_score(Layer::kUser, PanProperty::kOnionRouting, paths, ctx, rng).achievement,
      1.0);
  ctx.app_knows_privacy = false;
  EXPECT_EQ(
      select_and_score(Layer::kApp, PanProperty::kOnionRouting, paths, ctx, rng).achievement,
      0.0);
}

TEST(LayerModelTest, UserCannotSeeAbstractedMetrics) {
  Rng rng(5);
  double user_sum = 0;
  double os_sum = 0;
  for (int t = 0; t < 100; ++t) {
    const auto paths = sample_candidate_paths(rng, 15);
    const TaskContext ctx = sample_context(PanProperty::kLossRate, rng);
    user_sum +=
        select_and_score(Layer::kUser, PanProperty::kLossRate, paths, ctx, rng).achievement;
    os_sum += select_and_score(Layer::kOs, PanProperty::kLossRate, paths, ctx, rng).achievement;
  }
  EXPECT_GT(os_sum / 100, 0.95);
  EXPECT_LT(user_sum / 100, os_sum / 100 - 0.1);
}

TEST(LayerModelTest, FullTableMatchesPaperNarrative) {
  const auto table = compute_table1(150, 42);
  ASSERT_EQ(table.size(), all_properties().size());
  const auto row = [&](PanProperty p) -> const Table1Row& {
    for (const auto& r : table) {
      if (r.property == p) return r;
    }
    ADD_FAILURE() << "missing row";
    return table.front();
  };
  // Performance/quality: OS and App strong.
  EXPECT_EQ(row(PanProperty::kLowLatency).os.glyph(), '@');
  EXPECT_EQ(row(PanProperty::kLowLatency).app.glyph(), '@');
  EXPECT_EQ(row(PanProperty::kLossRate).user.glyph() == '@', false);
  EXPECT_EQ(row(PanProperty::kPathMtu).os.glyph(), '@');
  // Privacy / ESG: user decisive.
  EXPECT_EQ(row(PanProperty::kGeofencing).user.glyph(), '@');
  EXPECT_NE(row(PanProperty::kGeofencing).os.glyph(), '@');
  EXPECT_EQ(row(PanProperty::kCarbonFootprint).user.glyph(), '@');
  EXPECT_EQ(row(PanProperty::kOnionRouting).os.glyph(), '.');
  EXPECT_EQ(row(PanProperty::kOnionRouting).user.glyph(), '@');
}

}  // namespace
}  // namespace pan::browser
