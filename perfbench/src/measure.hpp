// Timing, process and closed-loop helpers shared by the untraced and the
// traced run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock microseconds on the executor's own time base
/// (obs::wallclock_us), so benchmark spans and executor spans line up.
double now_us();

double median(std::vector<double> v);
double pctl(std::vector<double> v, double q);

/// Median per-call time (us) of `fn`: batches of calls are repeated until
/// `budget_s` is spent (at least `min_reps` batches).
double time_median_us(const std::function<void()>& fn, double budget_s, int min_reps = 3,
                      int max_reps = 200);

/// Resets this process's peak resident-set mark to its current resident set
/// (`5` to /proc/self/clear_refs; left alone where that is not permitted)
/// and returns the current resident set, MiB.
double reset_peak_rss_mib();
/// Peak resident set of this process since the last reset, MiB.
double peak_rss_mib();
/// Threads of this process right now (/proc/self/task entries).
int thread_count();
/// Host steal time so far: the steal column of /proc/stat's aggregate cpu
/// line, in clock ticks (0 where it is not reported). Time the hypervisor
/// gave this machine's virtual CPUs to other guests.
long steal_ticks();
/// Processors this process may run on.
int available_cpus();

/// Closed-loop phase shared by the p rank threads of one World: every rank
/// runs steps back to back until rank 0 has seen `seconds` elapse (or
/// `max_steps` steps). Rank 0 publishes the stop index two steps ahead;
/// every step contains an allreduce, so no rank can complete step i+1
/// before rank 0 has entered it, and all ranks stop at the same index.
class Phase {
 public:
  Phase(int ranks, double seconds, std::size_t max_steps, std::size_t expect_steps);

  /// Runs `step(i)` for i = 0.. until the shared stop index; records each
  /// step's begin/end on this rank. Returns the number of steps run.
  std::size_t run(int rank, const std::function<void(std::size_t)>& step);

  /// Per-step latency: last rank's end minus first rank's begin.
  [[nodiscard]] std::vector<double> step_us() const;
  /// First begin to last end over all ranks, seconds.
  [[nodiscard]] double window_s() const;
  [[nodiscard]] std::size_t steps() const;

 private:
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  double seconds_;
  std::size_t max_steps_;
  std::atomic<std::size_t> stop_at_{kNever};
  std::vector<std::vector<double>> begin_;
  std::vector<std::vector<double>> end_;
};

}  // namespace perfbench
