#include "measure.hpp"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace perfbench {

double now_us() { return gencoll::obs::wallclock_us(); }

double pctl(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return pctl(std::move(v), 0.5); }

double time_median_us(const std::function<void()>& fn, double budget_s, int min_reps,
                      int max_reps) {
  // Size a batch so it takes ~1/20 of the budget; cheap calls need many.
  const double target_us = budget_s * 1e6 / 20.0;
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_us();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_us() - t0 >= target_us || batch >= (std::size_t{1} << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  const double start = now_us();
  while (static_cast<int>(per_call.size()) < min_reps ||
         (static_cast<int>(per_call.size()) < max_reps &&
          now_us() - start < budget_s * 1e6)) {
    const double t0 = now_us();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back((now_us() - t0) / static_cast<double>(batch));
  }
  return median(per_call);
}

namespace {

/// A "Vm...:  N kB" line of /proc/self/status, MiB (0 when absent).
double status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  for (std::string line; std::getline(f, line);) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double reset_peak_rss_mib() {
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mib("VmRSS");
}

double peak_rss_mib() { return status_mib("VmHWM"); }

int thread_count() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

long steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  long v[8] = {};
  f >> cpu;
  for (long& x : v) f >> x;
  return f && cpu == "cpu" ? v[7] : 0;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

Phase::Phase(int ranks, double seconds, std::size_t max_steps, std::size_t expect_steps)
    : seconds_(seconds),
      max_steps_(std::max<std::size_t>(max_steps, 1)),
      begin_(static_cast<std::size_t>(ranks)),
      end_(static_cast<std::size_t>(ranks)) {
  const std::size_t cap = std::min(max_steps_, expect_steps) + 8;
  for (auto& v : begin_) v.reserve(cap);
  for (auto& v : end_) v.reserve(cap);
}

std::size_t Phase::run(int rank, const std::function<void(std::size_t)>& step) {
  auto& begins = begin_[static_cast<std::size_t>(rank)];
  auto& ends = end_[static_cast<std::size_t>(rank)];
  double start = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double t0 = now_us();
    if (rank == 0) {
      if (i == 0) start = t0;
      if (stop_at_.load() == kNever &&
          (i + 2 >= max_steps_ || t0 - start >= seconds_ * 1e6)) {
        stop_at_.store(i + 2);
      }
    }
    if (i >= stop_at_.load()) return i;
    begins.push_back(t0);
    step(i);
    ends.push_back(now_us());
  }
}

std::size_t Phase::steps() const {
  // Equal on every rank unless a rank threw mid-phase.
  std::size_t n = end_.empty() ? 0 : end_[0].size();
  for (const auto& e : end_) n = std::min(n, e.size());
  return n;
}

std::vector<double> Phase::step_us() const {
  const std::size_t n = steps();
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    double b = begin_[0][i];
    double e = end_[0][i];
    for (std::size_t r = 1; r < begin_.size(); ++r) {
      b = std::min(b, begin_[r][i]);
      e = std::max(e, end_[r][i]);
    }
    out[i] = e - b;
  }
  return out;
}

double Phase::window_s() const {
  const std::size_t n = steps();
  if (n == 0) return 0.0;
  double b = begin_[0][0];
  double e = end_[0][n - 1];
  for (std::size_t r = 1; r < begin_.size(); ++r) {
    b = std::min(b, begin_[r][0]);
    e = std::max(e, end_[r][n - 1]);
  }
  return (e - b) / 1e6;
}

}  // namespace perfbench
