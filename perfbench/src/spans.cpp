#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(int lanes) : lanes_(static_cast<std::size_t>(lanes)) {}

SpanLog::Scope::Scope(SpanLog& log, int lane, std::string name, std::int64_t step)
    : log_(log), lane_(lane) {
  Lane& l = log_.lanes_[static_cast<std::size_t>(lane)];
  BenchSpan s;
  s.name = std::move(name);
  s.lane = lane;
  s.step = step;
  s.parent = l.open.empty() ? -1 : static_cast<int>(l.open.back());
  index_ = l.spans.size();
  l.spans.push_back(std::move(s));
  l.open.push_back(index_);
  l.spans.back().begin_us = gencoll::obs::wallclock_us();
}

SpanLog::Scope::~Scope() {
  Lane& l = log_.lanes_[static_cast<std::size_t>(lane_)];
  l.spans[index_].end_us = gencoll::obs::wallclock_us();
  l.open.pop_back();
}

void SpanLog::import_executor_spans(const gencoll::obs::TraceRecorder& rec) {
  for (int r = 0; r < rec.ranks(); ++r) {
    const int lane_id = 1 + r;
    if (lane_id >= static_cast<int>(lanes_.size())) continue;
    Lane& l = lanes_[static_cast<std::size_t>(lane_id)];
    const std::size_t own = l.spans.size();
    for (const gencoll::obs::SpanEvent& ev : rec.spans(r)) {
      // Benchmark spans are stored in begin order: walk back from the last
      // one that began before the event to the first that contains it.
      const auto it = std::upper_bound(
          l.spans.begin(), l.spans.begin() + static_cast<std::ptrdiff_t>(own), ev.begin_us,
          [](double t, const BenchSpan& c) { return t < c.begin_us; });
      int parent = -1;
      for (auto i = static_cast<std::size_t>(it - l.spans.begin()); i-- > 0;) {
        if (l.spans[i].end_us >= ev.end_us) {
          parent = static_cast<int>(i);
          break;
        }
      }
      if (parent < 0) continue;
      BenchSpan s;
      s.name = std::string("exec.") + gencoll::obs::span_kind_name(ev.kind);
      s.lane = lane_id;
      s.step = l.spans[static_cast<std::size_t>(parent)].step;
      s.parent = parent;
      s.begin_us = ev.begin_us;
      s.end_us = ev.end_us;
      l.spans.push_back(std::move(s));
    }
  }
}

void SpanLog::add_child(int lane, std::string name, std::int64_t step, double begin_us,
                        double end_us) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  BenchSpan s;
  s.name = std::move(name);
  s.lane = lane;
  s.step = step;
  for (std::size_t i = l.spans.size(); i-- > 0;) {
    if (l.spans[i].begin_us <= begin_us && l.spans[i].end_us >= end_us) {
      s.parent = static_cast<int>(i);
      break;
    }
  }
  s.begin_us = begin_us;
  s.end_us = end_us;
  l.spans.push_back(std::move(s));
}

std::map<std::string, SelfTime> SpanLog::self_times() const {
  std::map<std::string, SelfTime> out;
  for (const Lane& l : lanes_) {
    std::vector<std::vector<std::pair<double, double>>> kids(l.spans.size());
    for (const BenchSpan& s : l.spans) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_us, s.end_us);
    }
    for (std::size_t i = 0; i < l.spans.size(); ++i) {
      const BenchSpan& s = l.spans[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      // Union of the children's intervals, clipped to the span: concurrent
      // children (event-engine ranks) are not counted twice.
      double covered = 0.0;
      double cur_b = 0.0;
      double cur_e = -1.0;
      for (auto [b, e] : iv) {
        b = std::max(b, s.begin_us);
        e = std::min(e, s.end_us);
        if (e <= b) continue;
        if (b > cur_e) {
          if (cur_e > cur_b) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_b) covered += cur_e - cur_b;
      SelfTime& t = out[s.name];
      const double dur = std::max(0.0, s.end_us - s.begin_us);
      ++t.count;
      t.total_us += dur;
      t.self_us += std::max(0.0, dur - covered);
    }
  }
  return out;
}

bool SpanLog::write_json(const std::string& path, const std::string& workload,
                         std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = 0.0;
  bool have_t0 = false;
  for (const Lane& l : lanes_) {
    for (const BenchSpan& s : l.spans) {
      if (!have_t0 || s.begin_us < t0) t0 = s.begin_us;
      have_t0 = true;
    }
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"time_unit\": \"us\", \"spans\": [", workload.c_str());
  std::size_t written = 0;
  std::size_t total = 0;
  for (const Lane& l : lanes_) {
    for (std::size_t i = 0; i < l.spans.size(); ++i, ++total) {
      if (written == max_spans) continue;
      const BenchSpan& s = l.spans[i];
      std::fprintf(f,
                   "%s\n{\"id\": %zu, \"name\": \"%s\", \"lane\": %d, \"step\": %lld, "
                   "\"parent\": %d, \"begin\": %.3f, \"end\": %.3f}",
                   written == 0 ? "" : ",", i, s.name.c_str(), s.lane,
                   static_cast<long long>(s.step), s.parent, s.begin_us - t0, s.end_us - t0);
      ++written;
    }
  }
  std::fprintf(f, "\n], \"spans_total\": %zu, \"spans_written\": %zu, \"self_time\": {", total,
               written);
  bool first = true;
  for (const auto& [name, t] : self_times()) {
    std::fprintf(f, "%s\n\"%s\": {\"count\": %zu, \"total_us\": %.3f, \"self_us\": %.3f}",
                 first ? "" : ",", name.c_str(), t.count, t.total_us, t.self_us);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
