// perfbench_bin --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Steady-state collective benchmark (see perfbench/README.md). Prints
// context lines, a metric table, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}; exits nonzero when any
// checked output differs from core::reference_outputs, a collective throws,
// or the thread budget is exceeded.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.hpp"
#include "run.hpp"
#include "workload.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_bin: %s\nusage: perfbench_bin --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:",
               why);
  for (const auto& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_num(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  double seed = -1;
  double seconds = -1;
  double trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--seed") {
      if (!parse_num(v, seed) || seed < 0 || seed != std::floor(seed)) return usage("bad --seed");
    } else if (a == "--seconds") {
      if (!parse_num(v, seconds) || seconds <= 0 || seconds > 600) return usage("bad --seconds");
    } else if (a == "--trace") {
      if (!parse_num(v, trace) || (trace != 0 && trace != 1)) return usage("bad --trace");
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0 || trace < 0) return usage("--seed, --seconds and --trace are required");

  perfbench::RunConfig cfg;
  cfg.seconds = seconds;
  cfg.cpus = perfbench::available_cpus();
  cfg.trace_out = trace_out;
  // Pin what runs: the event engine gets one worker per usable CPU, and the
  // environment knobs that would reroute a workload's collectives are cleared.
  setenv("GENCOLL_EVENT_WORKERS", std::to_string(cfg.cpus).c_str(), 1);
  for (const char* knob : {"GENCOLL_EXECUTOR", "GENCOLL_GROUP_SIZE", "GENCOLL_HIER_LEVELS"}) {
    unsetenv(knob);
  }

  perfbench::RunResult res;
  try {
    if (w->p > cfg.cpus && !w->event) {
      res.correct = false;
      res.notes.push_back("p=" + std::to_string(w->p) + " rank threads exceed the " +
                          std::to_string(cfg.cpus) + " usable CPUs");
    } else {
      cfg.start_rss_mib = perfbench::reset_peak_rss_mib();
      const auto data = perfbench::make_data(*w, static_cast<std::uint64_t>(seed));
      res = trace != 0 ? perfbench::run_layers(*w, data, cfg)
                       : perfbench::run_end_to_end(*w, data, cfg);
    }
  } catch (const std::exception& e) {
    res.correct = false;
    res.notes.push_back(std::string("error: ") + e.what());
  }
  if (res.attempted == 0) res.attempted = 1;

  std::printf("# workload %s seed %.0f seconds %g trace %d cpus %d\n", w->name.c_str(), seed,
              seconds, static_cast<int>(trace), cfg.cpus);
  for (const auto& n : res.notes) std::printf("# %s\n", n.c_str());
  for (auto& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("# %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      res.correct = false;
    }
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %16.6f %s\n", "failed_frac",
              static_cast<double>(res.failed) / static_cast<double>(res.attempted), "ratio");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return res.correct && res.failed == 0 ? 0 : 1;
}
