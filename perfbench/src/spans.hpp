// The benchmark's own span log for the traced run: one span per call the
// benchmark makes into a layer (name, lane, step id, parent, begin, end),
// kept in memory and written out when the run ends. The executor's step
// spans, read through obs::TraceSink, are folded in as children of the api
// call that issued them, so every layer's self time (its span time minus the
// time its child spans cover) comes out of one tree.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace perfbench {

struct BenchSpan {
  std::string name;
  int lane = 0;             ///< 0 = main thread, 1 + r = rank r
  std::int64_t step = -1;   ///< spans of one step share this id
  int parent = -1;          ///< index of the parent span in the same lane
  double begin_us = 0.0;
  double end_us = 0.0;
};

struct SelfTime {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(int lanes);

  /// Opens a span on `lane`, child of the lane's innermost open span, and
  /// closes it on destruction. One thread per lane.
  class Scope {
   public:
    Scope(SpanLog& log, int lane, std::string name, std::int64_t step);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int lane_;
    std::size_t index_;
  };

  /// Appends the executor spans of `rec` (rank r -> lane 1 + r) as children
  /// of the innermost logged span on that lane that contains them. Spans
  /// outside every logged span are dropped.
  void import_executor_spans(const gencoll::obs::TraceRecorder& rec);

  /// Appends an already-timed span as a child of the latest span on `lane`
  /// that contains [begin_us, end_us].
  void add_child(int lane, std::string name, std::int64_t step, double begin_us, double end_us);

  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// Writes {"spans": [...], "self_time": {...}} (at most `max_spans` spans).
  bool write_json(const std::string& path, const std::string& workload,
                  std::size_t max_spans) const;

 private:
  struct alignas(64) Lane {
    std::vector<BenchSpan> spans;
    std::vector<std::size_t> open;
  };
  std::vector<Lane> lanes_;
};

}  // namespace perfbench
