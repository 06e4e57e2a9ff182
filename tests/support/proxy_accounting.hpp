// The SKIP proxy's accounting identity, shared by the suites that drive a
// proxy to quiescence.
//
// SkipProxy::finish() is the only completion path and bumps exactly one of
// the five transport counters, so once no request is in flight every
// request is counted exactly once:
//
//   requests == over_scion + over_ip + blocked + errors + internal
#pragma once

#include <gtest/gtest.h>

#include "proxy/skip_proxy.hpp"

namespace pan::testsupport {

inline ::testing::AssertionResult accounting_balances(const proxy::ProxyStats& stats) {
  const std::uint64_t finished = stats.over_scion.value() + stats.over_ip.value() +
                                 stats.blocked.value() + stats.errors.value() +
                                 stats.internal.value();
  if (stats.requests.value() == finished) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "requests=" << stats.requests.value() << " but finished=" << finished
         << " (scion " << stats.over_scion.value() << ", ip " << stats.over_ip.value()
         << ", blocked " << stats.blocked.value() << ", errors " << stats.errors.value()
         << ", internal " << stats.internal.value() << ")";
}

}  // namespace pan::testsupport
