// Untraced end-to-end run: closed loop through the public API on a
// long-lived world, one value per end-to-end metric.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "api/gencoll.hpp"
#include "measure.hpp"
#include "run.hpp"
#include "step.hpp"

namespace perfbench {

namespace {

constexpr int kCheckSteps = 4;       ///< checked steps after the timed window
constexpr int kWorlds = 4;          ///< long-lived worlds sharing the timed window
constexpr double kSetupBudgetS = 2.0;  ///< set-up is timed this long in a run
constexpr double kWarmBlockS = 0.1;
constexpr int kMaxWarmBlocks = 10;
constexpr double kMinBlockS = 0.1;  ///< timed blocks last at least this long
constexpr double kBlockSteps = 20;  ///< ... and hold about this many steps

/// Step statistics of one timed block.
struct Block {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double steps_per_s = 0.0;
};

Block block_of(const std::vector<double>& step_us, double window_s) {
  return {pctl(step_us, 0.5), pctl(step_us, 0.9),
          window_s > 0 ? static_cast<double>(step_us.size()) / window_s : 0.0};
}

/// The least disturbed entries of `v`: the kLeastStolen during which the
/// host stole (`steal[i]`, ticks) the least CPU time, and every other entry
/// that saw no more steal than they did. On a shared virtual machine, steal
/// (at times a fifth of the CPU time for minutes) hits whole stretches of a
/// run and moved step times several-fold, while the stretches without it
/// agree. The choice reads only the host's steal counter, never the times,
/// and keeps every entry without steal, so all of them on a quiet host.
constexpr std::size_t kLeastStolen = 8;
template <class T>
std::vector<T> least_stolen(const std::vector<T>& v, const std::vector<long>& steal) {
  std::vector<long> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const long cut = sorted.empty() ? 0 : sorted[std::min(sorted.size(), kLeastStolen) - 1];
  std::vector<T> kept;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (steal[i] <= cut) kept.push_back(v[i]);
  }
  return kept;
}

/// Each timing metric is the median of its per-block values over `blocks`,
/// the least-stolen of `all_blocks` timed blocks. Memory is the peak
/// resident set `peak_mib` less `data_mib`, what the benchmark's own inputs,
/// references and caller buffers made resident.
void add_end_to_end(RunResult& res, const std::vector<Block>& blocks, std::size_t all_blocks,
                    std::size_t steps, double window_s, const std::vector<double>& setup_us,
                    double data_mib, double peak_mib) {
  const auto over_blocks = [&](double Block::*field) {
    std::vector<double> v;
    v.reserve(blocks.size());
    for (const Block& b : blocks) v.push_back(b.*field);
    return median(v);
  };
  res.metrics.push_back({"step_p50_us", over_blocks(&Block::p50_us), "us"});
  res.metrics.push_back({"step_p90_us", over_blocks(&Block::p90_us), "us"});
  res.metrics.push_back({"steps_per_s", over_blocks(&Block::steps_per_s), "1/s"});
  res.metrics.push_back({"setup_s", median(setup_us) / 1e6, "s"});
  res.metrics.push_back({"peak_rss_mib", peak_mib - data_mib, "MiB"});
  res.notes.push_back("timed steps " + std::to_string(steps) + " over " +
                      std::to_string(window_s) + " s in " + std::to_string(all_blocks) +
                      " blocks, " + std::to_string(blocks.size()) + " least stolen kept; " +
                      "setup reps kept " +
                      std::to_string(setup_us.size()) + "; benchmark data resident " +
                      std::to_string(data_mib) + " MiB");
}

RunResult threaded(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg) {
  RunResult res;
  const int p = w.p;
  std::vector<std::vector<double>> setups;  // batches of set-up reps
  std::vector<long> setup_steal;
  std::vector<Block> blocks;
  std::vector<long> block_steal;
  std::size_t timed_total = 0;
  double window_s = 0.0;
  int threads_seen = 0;

  // The ranks' buffers are the caller's: they exist before the set-up clock
  // starts and are reused by every world. Allocated per world, their page
  // faults flipped with the allocator's state between two modes ~2x apart
  // and swamped the library's own set-up.
  std::vector<std::unique_ptr<RankBufs>> bufs;
  for (int r = 0; r < p; ++r) bufs.push_back(std::make_unique<RankBufs>(w, data, r));
  const double base_mib = reset_peak_rss_mib();
  double peak_mib = base_mib;
  const double data_mib = base_mib - cfg.start_rss_mib;
  int worlds_run = 0;

  // One world: construction + first (checked) step, whose time it returns;
  // with measure_s > 0 also a warm-up, a timed window of measure_s in blocks
  // and a checked tail on the same world. The first step alternates variants
  // between worlds, so a world whose first step did nothing fails its check.
  const auto world = [&](double measure_s) {
    const int first = worlds_run++ % kVariants;
    std::vector<double> first_end(static_cast<std::size_t>(p), 0.0);
    std::vector<std::atomic<int>> bad(2 + kCheckSteps);
    // Written by rank 0 between barriers, read by every rank after them.
    std::unique_ptr<Phase> block;
    long steal0 = 0;
    std::size_t warm_steps = 0;
    std::size_t timed_steps = 0;
    int timed_blocks = 0;  // 0 while warming up
    bool done = false;
    const double t0 = now_us();
    gencoll::run_ranks(p, [&](gencoll::Collectives& c) {
      const int r = c.rank();
      RankBufs& b = *bufs[static_cast<std::size_t>(r)];
      issue_api_step(c, w, data, b, first);
      first_end[static_cast<std::size_t>(r)] = now_us();
      if (count_mismatches(w, data, b, r, first, false) != 0) bad[0] = 1;
      if (measure_s <= 0) return;
      if (r == 0) threads_seen = std::max(threads_seen, thread_count());
      const auto api_step = [&](std::size_t i) {
        issue_api_step(c, w, data, b, static_cast<int>(i % kVariants));
      };
      // Warm up until quiescent: blocks of kWarmBlockS until a block's median
      // step time is within 10% of the previous block's (the first long world
      // of a process can run several times slower for its first second).
      // Then time measure_s in blocks of kBlockSteps steps, at least
      // kMinBlockS each.
      double prev = 0.0;
      int warm_blocks = 0;
      int blocks_left = 0;
      std::size_t n = 0;
      if (r == 0) block = std::make_unique<Phase>(p, kWarmBlockS, ~std::size_t{0}, 1 << 12);
      while (!done) {
        if (r == 0) steal0 = steal_ticks();
        c.barrier();
        n = block->run(r, api_step);
        c.barrier();  // every rank's samples are written before rank 0 reads them
        if (r == 0) {
          const std::vector<double> us = block->step_us();
          if (timed_blocks == 0) {
            const double m = median(us);
            warm_steps += us.size();
            ++warm_blocks;
            if (warm_blocks >= kMaxWarmBlocks ||
                (warm_blocks > 1 && std::abs(m - prev) <= 0.1 * prev)) {
              const double rate = static_cast<double>(us.size()) / block->window_s();
              blocks_left = std::max(
                  1, static_cast<int>(measure_s / std::max(kMinBlockS, kBlockSteps / rate)));
              timed_blocks = blocks_left;
            }
            prev = m;
          } else {
            blocks.push_back(block_of(us, block->window_s()));
            block_steal.push_back(steal_ticks() - steal0);
            timed_steps += us.size();
            window_s += block->window_s();
            done = --blocks_left == 0;
          }
          if (!done) {
            // A block runs two steps past its deadline (the stop index is
            // published two steps ahead); timed blocks leave room for them.
            const double rate = static_cast<double>(us.size()) / block->window_s();
            const double len = timed_blocks == 0
                                   ? kWarmBlockS
                                   : std::max(0.0, measure_s / timed_blocks - 2.0 / rate);
            block = std::make_unique<Phase>(p, len, ~std::size_t{0},
                                            static_cast<std::size_t>(rate * len * 1.5) + 64);
          }
        }
        c.barrier();
      }
      if (n > 0 && count_mismatches(w, data, b, r, static_cast<int>((n - 1) % kVariants),
                                    false) != 0) {
        bad[1] = 1;
      }
      for (int k = 0; k < kCheckSteps; ++k) {
        issue_api_step(c, w, data, b, k % kVariants);
        if (count_mismatches(w, data, b, r, k % kVariants, false) != 0) {
          bad[2 + static_cast<std::size_t>(k)] = 1;
        }
      }
    });
    double end = 0.0;
    for (double e : first_end) end = std::max(end, e);
    res.attempted += 1;
    res.failed += static_cast<std::uint64_t>(bad[0].load());
    if (measure_s > 0) {
      res.attempted += warm_steps + timed_steps + kCheckSteps;
      timed_total += timed_steps;
      for (std::size_t k = 1; k < bad.size(); ++k) {
        res.failed += static_cast<std::uint64_t>(bad[k].load());
      }
    }
    return end - t0;
  };

  // The timed window is split over kWorlds long-lived worlds, and set-up is
  // timed in short worlds after each: a transient disturbance then moves
  // only a share of the samples behind each median. Set-up reps run in
  // batches of at least kMinBlockS, and batches are chosen as blocks are.
  // Memory is the peak of the first long world, the first world of the
  // process: the C library keeps what later worlds free, and the resident
  // set drifted from world to world with its fragmentation.
  try {
    for (int k = 0; k < kWorlds; ++k) {
      world(cfg.seconds / kWorlds);
      if (k == 0) peak_mib = peak_rss_mib();
      const double start = now_us();
      while (now_us() - start < kSetupBudgetS * 1e6 / kWorlds) {
        const long steal0 = steal_ticks();
        const double batch_start = now_us();
        setups.emplace_back();
        do {
          setups.back().push_back(world(0.0));
        } while (now_us() - batch_start < kMinBlockS * 1e6);
        setup_steal.push_back(steal_ticks() - steal0);
      }
    }
  } catch (const std::exception& e) {
    res.correct = false;
    res.attempted += 1;
    res.failed += 1;
    res.notes.push_back(std::string("exception: ") + e.what());
  }
  std::vector<double> setup_us;
  for (const auto& batch : least_stolen(setups, setup_steal)) {
    setup_us.insert(setup_us.end(), batch.begin(), batch.end());
  }
  add_end_to_end(res, least_stolen(blocks, block_steal), blocks.size(), timed_total,
                 window_s, setup_us, data_mib, peak_mib);
  res.notes.push_back("threads in the world: " + std::to_string(threads_seen) + " (budget " +
                      std::to_string(cfg.cpus + 1) + ")");
  if (threads_seen > cfg.cpus + 1) {
    res.correct = false;
    res.notes.push_back("thread budget exceeded");
  }
  return res;
}

RunResult event(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg) {
  RunResult res;
  // The first steps of the process are its set-up; every later step also
  // constructs a World and builds its schedules, but with a warm allocator.
  // The window opens once the step time has settled past the allocator
  // regime shift described in README.md: at least kMinWarmSteps warm-up
  // steps, then until the median of the last kWarmBlock steps is within 10%
  // of the block before (at most kMaxWarmSteps).
  constexpr std::size_t kSetupSteps = 3;
  constexpr std::size_t kMinWarmSteps = 40;
  constexpr std::size_t kWarmBlock = 5;
  constexpr std::size_t kMaxWarmSteps = 100;
  gencoll::runtime::WorldOptions opts;
  opts.executor = gencoll::runtime::ExecutorKind::kEvent;
  std::vector<double> setups;
  std::vector<double> warm_us;
  std::vector<double> step_us;
  double window_s = 0.0;
  const double data_mib = reset_peak_rss_mib() - cfg.start_rss_mib;
  try {
    double window_start = -1.0;
    for (std::size_t i = 0;; ++i) {
      const int v = static_cast<int>(i % kVariants);
      std::vector<std::vector<std::vector<std::byte>>> outs(w.ops.size());
      const double t0 = now_us();
      if (window_start < 0 && warm_us.size() >= kMinWarmSteps &&
          warm_us.size() % kWarmBlock == 0) {
        const auto block_median = [&](std::size_t back) {
          const auto last = warm_us.end() - static_cast<std::ptrdiff_t>(back * kWarmBlock);
          return median({last - static_cast<std::ptrdiff_t>(kWarmBlock), last});
        };
        const double m = block_median(0);
        const double prev = block_median(1);
        if (std::abs(m - prev) <= 0.1 * prev || warm_us.size() >= kMaxWarmSteps) {
          window_start = t0;
          res.notes.push_back("window opened at step " + std::to_string(i) + " after " +
                              std::to_string(warm_us.size()) + " warm-up steps (last block " +
                              "median " + std::to_string(m / 1e3) + " ms)");
        }
      }
      if (window_start >= 0 && !step_us.empty() && t0 - window_start >= cfg.seconds * 1e6) {
        window_s = (t0 - window_start) / 1e6;
        break;
      }
      for (std::size_t j = 0; j < w.ops.size(); ++j) {
        const auto& inputs = data[j].inputs[static_cast<std::size_t>(v)];
        outs[j] = gencoll::run_collective(
            collective_spec(w.ops[j], w.p),
            [&inputs](int r, std::size_t) { return inputs[static_cast<std::size_t>(r)]; },
            opts);
      }
      const double dt = now_us() - t0;
      if (i < kSetupSteps) {
        setups.push_back(dt);
      } else if (window_start >= 0) {
        step_us.push_back(dt);
      } else {
        warm_us.push_back(dt);
      }
      ++res.attempted;
      bool bad = false;
      for (std::size_t j = 0; j < w.ops.size(); ++j) {
        for (int r = 0; r < w.p; ++r) {
          if (!output_ok(data[j], w.ops[j], v, r, outs[j][static_cast<std::size_t>(r)])) bad = true;
        }
      }
      if (bad) ++res.failed;
    }
  } catch (const std::exception& e) {
    res.correct = false;
    res.attempted += 1;
    res.failed += 1;
    res.notes.push_back(std::string("exception: ") + e.what());
  }
  // ~100 steps are too few for blocks, and a tail percentile needs them all:
  // the window is one block, taken whole. Every call builds a fresh World,
  // so the whole run's peak is one world's.
  add_end_to_end(res, {block_of(step_us, window_s)}, 1, step_us.size(), window_s, setups,
                 data_mib, peak_rss_mib());
  return res;
}

}  // namespace

RunResult run_end_to_end(const Workload& w, const std::vector<OpData>& data,
                         const RunConfig& cfg) {
  RunResult res = w.event ? event(w, data, cfg) : threaded(w, data, cfg);
  if (res.failed != 0) res.correct = false;
  return res;
}

}  // namespace perfbench
