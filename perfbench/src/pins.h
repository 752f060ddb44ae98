// Correctness pins: what each workload's outputs must be, independent of the
// host, the thread count and the benchmark seed. Regenerate with
// `perfbench --print-pins` only when an estimate is meant to change.
#pragma once

#include <array>
#include <string>

namespace perfbench {

/// Digest (canonical_report) of a scenario's suite-pass report.
std::string scenario_pin(const std::string& scenario_id);

/// The honest-GMW estimate of a target: every run ends in the same event,
/// so the estimate is the same for every seed and path.
struct GmwPin {
  double utility = -1.0;
  std::array<double, 4> event_freq{};
};
GmwPin gmw_pin(const std::string& target);

/// Digest of a fixed-seed request class's report.
std::string class_pin(const std::string& class_name);

}  // namespace perfbench
