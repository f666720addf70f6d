// The two runs of one workload: untraced end to end, and traced layer by
// layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;          ///< false on any mismatch, exception or budget breach
  std::uint64_t attempted = 0;  ///< steps attempted
  std::uint64_t failed = 0;     ///< steps that threw or whose checked output differed
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable context printed before the result
};

struct RunConfig {
  double seconds = 10.0;
  int cpus = 1;                 ///< thread budget: cpus runnable + the waiting main thread
  std::string trace_out;        ///< span file of the traced run ("" = none)
  double start_rss_mib = 0.0;   ///< resident set before the inputs were made
};

RunResult run_end_to_end(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg);
RunResult run_layers(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg);

}  // namespace perfbench
