// Smoothed round-trip estimator (RFC 6298 §2, RFC 9002 §5.3).
//
// One srtt/rttvar pair in integral nanoseconds. The transport times ACKed
// packets with it (its PTO); the proxy fleet times replica answers with it
// (its hedge delay). The arithmetic is integer and fixed: both users must
// see bit-identical estimates for the same samples.
#pragma once

#include <algorithm>

#include "util/types.hpp"

namespace pan {

class RttEstimator {
 public:
  /// RFC 9002's kGranularity: the timer floor for the variance term, so a
  /// run of identical samples (rttvar -> 0) never yields a timeout equal to
  /// srtt itself, which the next ordinary answer would already miss.
  static constexpr Duration kGranularity = milliseconds(1);

  /// Starts at `initial_rtt` (rttvar = initial_rtt / 2) with no sample.
  explicit RttEstimator(Duration initial_rtt = Duration::zero()) { reset(initial_rtt); }

  /// Forgets every sample (e.g. on a path change).
  void reset(Duration initial_rtt) {
    srtt_ = initial_rtt;
    rttvar_ = initial_rtt / 2;
    has_sample_ = false;
  }

  /// Folds one measured round trip in: the first sample seeds srtt and
  /// rttvar = sample / 2; later ones use the 1/8 and 1/4 gains.
  void on_sample(Duration sample) {
    if (!has_sample_) {
      srtt_ = sample;
      rttvar_ = sample / 2;
      has_sample_ = true;
      return;
    }
    const Duration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = Duration{(3 * rttvar_.nanos() + err.nanos()) / 4};
    srtt_ = Duration{(7 * srtt_.nanos() + sample.nanos()) / 8};
  }

  [[nodiscard]] Duration srtt() const { return srtt_; }
  [[nodiscard]] Duration rttvar() const { return rttvar_; }
  [[nodiscard]] bool has_sample() const { return has_sample_; }

  /// srtt + max(4 * rttvar, kGranularity), capped at `cap`; `cap` itself
  /// until the first sample (nothing measured, nothing to undercut it with).
  [[nodiscard]] Duration timeout(Duration cap) const {
    if (!has_sample_) return cap;
    return std::min(cap, srtt_ + std::max(Duration{4 * rttvar_.nanos()}, kGranularity));
  }

 private:
  Duration srtt_;
  Duration rttvar_;
  bool has_sample_ = false;
};

}  // namespace pan
