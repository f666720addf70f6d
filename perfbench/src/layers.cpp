// Traced run: times each layer from outside, by wrapping the calls the
// benchmark makes into that layer's public functions, and reads the
// executor's own step spans through obs::TraceSink. No tracing is added
// inside the program.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/gencoll.hpp"
#include "core/event_exec.hpp"
#include "core/executor.hpp"
#include "core/reference.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "refs.hpp"
#include "run.hpp"
#include "runtime/buffer_pool.hpp"
#include "spans.hpp"
#include "step.hpp"
#include "tuning/selector.hpp"

namespace perfbench {

namespace {

namespace core = gencoll::core;
namespace obs = gencoll::obs;
namespace rt = gencoll::runtime;

/// Caps the executor spans one traced phase may keep in memory.
constexpr double kMaxTracedSpans = 200000.0;

/// Keeps the optimizer from discarding a timed call's result.
std::atomic<long> g_sink{0};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Everything computed before any world runs: resolved choices, the
/// schedules Collectives would build, and their counts.
struct Plan {
  std::vector<gencoll::tuning::AlgorithmChoice> choices;
  std::vector<BuiltOp> built;
  ScheduleCounts counts;  ///< summed over the step's ops
  std::size_t discrete_bytes = 0;
  std::size_t spans_per_step = 0;  ///< executor spans one step emits (estimate)
};

Plan plan_step(const Workload& w, SpanLog& log, RunResult& res, double budget_s) {
  Plan plan;
  rt::World meta_world(w.p);
  rt::Communicator meta_comm(&meta_world, 0);
  gencoll::Collectives meta(meta_comm);
  for (const OpSpec& o : w.ops) plan.choices.push_back(meta.resolve(o.op, o.bytes, o.spec));

  double resolve_us = 0.0;
  {
    SpanLog::Scope s(log, 0, "api.resolve", -1);
    resolve_us = time_median_us(
        [&] {
          for (const OpSpec& o : w.ops) g_sink += meta.resolve(o.op, o.bytes, o.spec).k;
        },
        budget_s);
  }
  double choose_us = 0.0;
  {
    const gencoll::tuning::SelectionConfig config;
    SpanLog::Scope s(log, 0, "tuning.choose", -1);
    choose_us = time_median_us(
        [&] {
          for (const OpSpec& o : w.ops) g_sink += config.choose(o.op, w.p, o.bytes).k;
        },
        budget_s);
  }
  const auto n_ops = static_cast<double>(w.ops.size());
  res.metrics.push_back({"api.resolve_ns", resolve_us * 1e3 / n_ops, "ns"});
  res.metrics.push_back({"tuning.choose_ns", choose_us * 1e3 / n_ops, "ns"});

  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    plan.built.push_back(build_schedule_for(w.ops[j], w.p, plan.choices[j]));
  }
  const double build_us = time_median_us(
      [&] {
        for (std::size_t j = 0; j < w.ops.size(); ++j) {
          SpanLog::Scope s(log, 0, "core.build", -1);
          g_sink += static_cast<long>(
              build_schedule_for(w.ops[j], w.p, plan.choices[j]).sched.ranks.size());
        }
      },
      budget_s, 3, 50);
  res.metrics.push_back({"core.build_us", build_us, "us"});

  const core::ExecTuning tuning;
  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    const BuiltOp& b = plan.built[j];
    const ScheduleCounts c = count_schedule(b.sched);
    plan.counts.steps_max += c.steps_max;
    plan.counts.messages += c.messages;
    plan.counts.bytes += c.bytes;
    plan.counts.reduce_bytes += c.reduce_bytes;
    plan.discrete_bytes += discrete_cost_of(b).total_send_bytes;
    for (const auto& rp : b.sched.ranks) {
      for (const auto& st : rp.steps) {
        plan.spans_per_step += st.bytes >= tuning.pipeline_threshold
                                   ? (st.bytes + tuning.pipeline_segment - 1) /
                                         tuning.pipeline_segment
                                   : 1;
      }
    }
    res.notes.push_back("op " + w.ops[j].label() + " -> " + b.sched.name +
                        (b.sched.hier ? " (hierarchical)" : ""));
  }
  res.metrics.push_back({"core.steps_max", static_cast<double>(plan.counts.steps_max), "count"});
  res.metrics.push_back(
      {"core.messages_per_step", static_cast<double>(plan.counts.messages), "count"});
  res.metrics.push_back({"core.bytes_per_step", static_cast<double>(plan.counts.bytes), "B"});
  if (plan.discrete_bytes != plan.counts.bytes) {
    res.correct = false;
    res.notes.push_back("schedule bytes " + std::to_string(plan.counts.bytes) +
                        " != closed-form bytes " + std::to_string(plan.discrete_bytes));
  }
  return plan;
}

/// Executor counts of one traced stretch, at schedule granularity: a send
/// step pipelined into segments emits one span per segment, all carrying the
/// step's index, peer and tag, and counts as one message here.
struct ObsCounts {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t segments = 0;  ///< extra spans of pipelined steps
};

ObsCounts obs_counts(const obs::TraceRecorder& rec) {
  ObsCounts c;
  for (int r = 0; r < rec.ranks(); ++r) {
    const obs::SpanEvent* prev = nullptr;
    for (const obs::SpanEvent& ev : rec.spans(r)) {
      const bool segment = prev != nullptr && prev->kind == ev.kind && prev->step == ev.step &&
                           prev->peer == ev.peer && prev->tag == ev.tag;
      if (segment) ++c.segments;
      if (obs::is_send(ev.kind)) {
        c.bytes += ev.bytes;
        if (!segment) ++c.messages;
      }
      prev = &ev;
    }
  }
  return c;
}

/// Per-step executor breakdown of one traced stretch, on the rank whose
/// steps took longest (the critical path of a closed loop).
struct Breakdown {
  obs::RankBreakdown rank;
  double intra_us = 0.0;
  double inter_us = 0.0;
  std::size_t bytes_intra = 0;
  std::size_t bytes_inter = 0;
  ObsCounts counts;
};

void accumulate(Breakdown& acc, const obs::TraceRecorder& rec) {
  const obs::CollectiveMetrics m = obs::collect_metrics(rec);
  std::size_t crit = 0;
  double crit_total = -1.0;
  for (std::size_t r = 0; r < m.per_rank.size(); ++r) {
    const auto& b = m.per_rank[r];
    const double total = b.send_us + b.recv_us + b.reduce_us + b.wait_us + b.copy_us;
    if (total > crit_total) {
      crit_total = total;
      crit = r;
    }
  }
  if (m.per_rank.empty()) return;
  const auto& b = m.per_rank[crit];
  acc.rank.send_us += b.send_us;
  acc.rank.recv_us += b.recv_us;
  acc.rank.reduce_us += b.reduce_us;
  acc.rank.wait_us += b.wait_us;
  acc.rank.copy_us += b.copy_us;
  for (const obs::SpanEvent& ev : rec.spans(static_cast<int>(crit))) {
    const double d = ev.end_us - ev.begin_us;
    if (ev.link == obs::LinkClass::kIntra) acc.intra_us += d;
    if (ev.link == obs::LinkClass::kInter) acc.inter_us += d;
  }
  acc.bytes_intra += m.bytes_intra;
  acc.bytes_inter += m.bytes_inter;
  const ObsCounts c = obs_counts(rec);
  acc.counts.messages += c.messages;
  acc.counts.bytes += c.bytes;
  acc.counts.segments += c.segments;
}

void add_breakdown(RunResult& res, const Breakdown& b, const Plan& plan, std::size_t steps) {
  const double n = static_cast<double>(std::max<std::size_t>(steps, 1));
  res.metrics.push_back({"core.send_us", b.rank.send_us / n, "us"});
  res.metrics.push_back({"core.recv_us", b.rank.recv_us / n, "us"});
  res.metrics.push_back({"core.reduce_us", b.rank.reduce_us / n, "us"});
  res.metrics.push_back({"core.wait_us", b.rank.wait_us / n, "us"});
  res.metrics.push_back({"core.copy_us", b.rank.copy_us / n, "us"});
  res.metrics.push_back(
      {"core.pipelined_segments", static_cast<double>(b.counts.segments) / n, "count"});
  res.metrics.push_back({"shm.intra_us", b.intra_us / n, "us"});
  res.metrics.push_back({"shm.inter_us", b.inter_us / n, "us"});
  res.metrics.push_back({"shm.bytes_intra", static_cast<double>(b.bytes_intra) / n, "B"});
  res.metrics.push_back({"shm.bytes_inter", static_cast<double>(b.bytes_inter) / n, "B"});
  const std::size_t want_msgs = plan.counts.messages * steps;
  const std::size_t want_bytes = plan.counts.bytes * steps;
  res.notes.push_back("traced steps " + std::to_string(steps) + ": obs messages " +
                      std::to_string(b.counts.messages) + " (schedule " +
                      std::to_string(want_msgs) + "), obs bytes " +
                      std::to_string(b.counts.bytes) + " (schedule " +
                      std::to_string(want_bytes) + ")");
  if (steps == 0 || b.counts.messages != want_msgs || b.counts.bytes != want_bytes) {
    res.correct = false;
    res.notes.push_back("obs message/byte counts differ from the schedule's");
  }
}

/// Transport, copy and reduce references plus the alpha-beta-gamma fit.
struct Refs {
  double pingpong_us = 0.0;
  double stream_gbps = 0.0;     ///< at the workload's stream size
  double stream16_gbps = 0.0;   ///< 16 MiB messages (beta fit)
  double memcpy_gbps = 0.0;
  double reduce_gbps = 0.0;
};

Refs measure_refs(const Workload& w, SpanLog& log, RunResult& res, double budget_s) {
  constexpr std::size_t MiB = std::size_t{1} << 20;
  std::size_t n_max = 0;
  for (const OpSpec& o : w.ops) n_max = std::max(n_max, o.bytes);
  const core::ExecTuning tuning;
  const std::size_t segment = n_max >= tuning.pipeline_threshold ? tuning.pipeline_segment : n_max;
  const std::size_t stream_bytes = n_max > MiB ? 16 * MiB : MiB;
  Refs r;
  {
    SpanLog::Scope s(log, 0, "runtime.pingpong", -1);
    r.pingpong_us = pingpong_half_rtt_us(budget_s);
  }
  {
    SpanLog::Scope s(log, 0, "runtime.stream", -1);
    r.stream16_gbps = stream_gbps(16 * MiB, budget_s);
    r.stream_gbps = stream_bytes == 16 * MiB ? r.stream16_gbps : stream_gbps(stream_bytes, budget_s);
  }
  {
    SpanLog::Scope s(log, 0, "runtime.memcpy", -1);
    r.memcpy_gbps = memcpy_gbps(n_max, segment, budget_s);
  }
  {
    SpanLog::Scope s(log, 0, "runtime.apply_reduce", -1);
    r.reduce_gbps = reduce_gbps(n_max, segment, budget_s);
  }
  const CacheSizes cs = cache_sizes();
  res.notes.push_back("references: memcpy/apply_reduce over a " + std::to_string(n_max) +
                      " B buffer in " + std::to_string(segment) + " B calls; stream of " +
                      std::to_string(stream_bytes) + " B messages; caches L1d " +
                      std::to_string(cs.l1d) + " B, L2 " + std::to_string(cs.l2) + " B, L3 " +
                      std::to_string(cs.l3) + " B");
  res.metrics.push_back({"runtime.pingpong_us", r.pingpong_us, "us"});
  res.metrics.push_back({"runtime.stream_gbps", r.stream_gbps, "GB/s"});
  res.metrics.push_back({"runtime.memcpy_gbps", r.memcpy_gbps, "GB/s"});
  res.metrics.push_back({"runtime.reduce_gbps", r.reduce_gbps, "GB/s"});
  return r;
}

/// model.*: alpha from the ping-pong, beta from the 16 MiB stream, gamma
/// from apply_reduce; intra-node shm terms use the same alpha and the
/// memcpy rate. `exec_us` is the executor's step time on prebuilt
/// schedules, `step_us` the untraced step time through the API.
void add_model(RunResult& res, const Workload& w, const Plan& plan, const Refs& r,
               double exec_us, double step_us) {
  const double beta_ns = 1.0 / r.stream16_gbps;
  const double gamma_ns = 1.0 / r.reduce_gbps;
  const double copy_ns = 1.0 / r.memcpy_gbps;
  gencoll::model::ModelParams m;
  m.alpha_us = r.pingpong_us;
  m.beta_us_per_byte = beta_ns / 1e3;
  m.gamma_us_per_byte = gamma_ns / 1e3;
  m.alpha_shm_us = r.pingpong_us;
  m.beta_shm_us_per_byte = copy_ns / 1e3;
  double predicted = 0.0;
  for (const BuiltOp& b : plan.built) predicted += predicted_us(b, m);
  // Roofline: every sent byte copied once and every received-reduced byte
  // reduced once, spread evenly over the p ranks.
  const double p = static_cast<double>(w.p);
  const double roof_us = (static_cast<double>(plan.discrete_bytes) / p * copy_ns +
                          static_cast<double>(plan.counts.reduce_bytes) / p * gamma_ns) /
                         1e3;
  res.metrics.push_back({"model.alpha_us", m.alpha_us, "us"});
  res.metrics.push_back({"model.beta_ns_per_byte", beta_ns, "ns/B"});
  res.metrics.push_back({"model.gamma_ns_per_byte", gamma_ns, "ns/B"});
  res.metrics.push_back({"model.residual_frac", (exec_us - predicted) / exec_us, "ratio"});
  res.metrics.push_back({"model.roofline_frac", roof_us / step_us, "ratio"});
  res.notes.push_back("model: predicted " + fmt(predicted) + " us vs executor " + fmt(exec_us) +
                      " us; roofline " + fmt(roof_us) + " us vs step " + fmt(step_us) + " us");
}

double reference_us(const Workload& w, const std::vector<OpData>& data, SpanLog& log,
                    double budget_s) {
  return time_median_us(
      [&] {
        for (std::size_t j = 0; j < w.ops.size(); ++j) {
          if (w.ops[j].op == CollOp::kBarrier) continue;
          SpanLog::Scope s(log, 0, "core.reference", -1);
          g_sink += static_cast<long>(core::reference_outputs(data[j].params, data[j].inputs[0],
                                                              w.ops[j].type, w.ops[j].reduce)
                                          .size());
        }
      },
      budget_s, 3, 50);
}

std::vector<std::vector<std::byte>> inputs_of(const Workload& w, const OpData& d,
                                              const OpSpec& o) {
  if (o.op == CollOp::kBarrier) return std::vector<std::vector<std::byte>>(static_cast<std::size_t>(w.p));
  return d.inputs[0];
}

bool all_ok(const Workload& w, const OpData& d, const OpSpec& o,
            const std::vector<std::vector<std::byte>>& outs) {
  for (int r = 0; r < w.p; ++r) {
    if (!output_ok(d, o, 0, r, outs[static_cast<std::size_t>(r)])) return false;
  }
  return true;
}

void add_budget(RunResult& res, const std::string& what, int threads, const RunConfig& cfg) {
  res.notes.push_back(what + ": peak threads " + std::to_string(threads) + " (budget " +
                      std::to_string(cfg.cpus + 1) + ")");
  if (threads > cfg.cpus + 1) {
    res.correct = false;
    res.notes.push_back("thread budget exceeded");
  }
}

void add_self_times(RunResult& res, const SpanLog& log) {
  for (const auto& [name, t] : log.self_times()) {
    res.notes.push_back("span " + name + ": count " + std::to_string(t.count) + ", total " +
                        fmt(t.total_us) + " us, self " + fmt(t.self_us) + " us");
  }
}

RunResult threaded(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg) {
  RunResult res;
  const int p = w.p;
  const double S = cfg.seconds;
  SpanLog log(1 + p);
  const Plan plan = plan_step(w, log, res, 0.02 * S);

  res.metrics.push_back({"core.reference_us", reference_us(w, data, log, 0.03 * S), "us"});
  double world_us = 0.0;
  {
    SpanLog::Scope s(log, 0, "runtime.world_setup", -1);
    world_us = world_setup_us(p, true, 0.02 * S);
  }
  res.metrics.push_back({"runtime.world_setup_us", world_us, "us"});

  // bench_gate's sampling: execute_threaded builds a fresh World per op.
  bool fresh_ok = true;
  const double fresh_us = time_median_us(
      [&] {
        for (std::size_t j = 0; j < w.ops.size(); ++j) {
          SpanLog::Scope s(log, 0, "core.execute_threaded", -1);
          const auto outs = core::execute_threaded(plan.built[j].sched,
                                                   inputs_of(w, data[j], w.ops[j]),
                                                   w.ops[j].type, w.ops[j].reduce);
          if (!all_ok(w, data[j], w.ops[j], outs)) fresh_ok = false;
        }
      },
      0.04 * S, 3, 100);
  ++res.attempted;
  if (!fresh_ok) {
    ++res.failed;
    res.notes.push_back("execute_threaded output differs from the reference");
  }

  const Refs refs = measure_refs(w, log, res, 0.03 * S);

  rt::BufferPool pool;
  rt::WorldOptions wo;
  wo.pool = &pool;
  obs::TraceRecorder rec(p);
  constexpr int kRounds = 2;
  const std::size_t c_cap = static_cast<std::size_t>(
      kMaxTracedSpans / static_cast<double>(std::max<std::size_t>(plan.spans_per_step, 1)));
  Phase warm(p, 0.04 * S, ~std::size_t{0}, 1 << 16);
  std::vector<std::unique_ptr<Phase>> a;
  std::vector<std::unique_ptr<Phase>> b;
  for (int k = 0; k < kRounds; ++k) {
    a.push_back(std::make_unique<Phase>(p, 0.1 * S, ~std::size_t{0}, 1 << 16));
    b.push_back(std::make_unique<Phase>(p, 0.1 * S, ~std::size_t{0}, 1 << 16));
  }
  Phase traced(p, 0.2 * S, std::max<std::size_t>(c_cap, 10), c_cap);
  std::uint64_t allocs_a = 0;
  std::size_t api_calls = 0;
  std::size_t built_count = 0;
  int threads_max = 0;
  std::atomic<int> bad{0};
  try {
    rt::World::run(
        p,
        [&](rt::Communicator& comm) {
          const int r = comm.rank();
          gencoll::Collectives c(comm);
          RankBufs bufs(w, data, r);
          const auto check = [&](std::size_t steps, bool direct) {
            if (steps > 0 && count_mismatches(w, data, bufs, r,
                                              static_cast<int>((steps - 1) % kVariants),
                                              direct) != 0) {
              bad += 1;
            }
          };
          const auto api_step = [&](std::size_t i) {
            issue_api_step(c, w, data, bufs, static_cast<int>(i % kVariants));
          };
          const auto direct_step = [&](std::size_t i) {
            issue_direct_step(comm, w, data, plan.built, bufs, static_cast<int>(i % kVariants));
          };
          check(warm.run(r, api_step), false);
          for (int k = 0; k < kRounds; ++k) {
            c.barrier();
            const std::uint64_t before = pool.stats().allocations;
            check(a[static_cast<std::size_t>(k)]->run(r, api_step), false);
            c.barrier();
            if (r == 0) allocs_a += pool.stats().allocations - before;
            check(b[static_cast<std::size_t>(k)]->run(r, direct_step), true);
          }
          if (r == 0) threads_max = thread_count();
          c.barrier();
          c.set_trace_sink(&rec);
          check(traced.run(r,
                           [&](std::size_t i) {
                             const auto step = static_cast<std::int64_t>(i);
                             SpanLog::Scope s(log, 1 + r, "step", step);
                             issue_api_step(c, w, data, bufs, static_cast<int>(i % kVariants),
                                            StepTrace{&log, 1 + r, step});
                           }),
                false);
          c.set_trace_sink(nullptr);
          if (r == 0) {
            threads_max = std::max(threads_max, thread_count());
            built_count = c.schedules_built();
          }
        },
        wo);
  } catch (const std::exception& e) {
    res.correct = false;
    ++res.failed;
    res.notes.push_back(std::string("exception: ") + e.what());
  }
  std::vector<double> a_us;
  std::vector<double> b_us;
  std::size_t a_steps = 0;
  for (int k = 0; k < kRounds; ++k) {
    const auto ak = a[static_cast<std::size_t>(k)]->step_us();
    const auto bk = b[static_cast<std::size_t>(k)]->step_us();
    a_us.insert(a_us.end(), ak.begin(), ak.end());
    b_us.insert(b_us.end(), bk.begin(), bk.end());
    a_steps += ak.size();
  }
  const std::size_t c_steps = traced.steps();
  api_calls = (warm.steps() + a_steps + c_steps) * w.ops.size();
  res.attempted += warm.steps() + a_steps + b_us.size() + c_steps;
  res.failed += static_cast<std::uint64_t>(bad.load());

  const double p50_a = median(a_us);
  const double p50_b = median(b_us);
  const double p50_c = median(traced.step_us());
  res.metrics.push_back({"api.overhead_us", p50_a - p50_b, "us"});
  res.metrics.push_back({"api.cache_hit_frac",
                         1.0 - static_cast<double>(built_count) /
                                   static_cast<double>(std::max<std::size_t>(api_calls, 1)),
                         "ratio"});
  res.metrics.push_back({"core.exec_us", p50_b, "us"});
  res.metrics.push_back({"core.fresh_world_ratio", fresh_us / p50_b, "ratio"});
  res.metrics.push_back({"event.exec_us", 0.0, "us"});
  res.metrics.push_back({"event.threads_max", 0.0, "count"});
  res.metrics.push_back({"runtime.pool_allocs_per_step",
                         static_cast<double>(allocs_a) /
                             static_cast<double>(std::max<std::size_t>(a_steps, 1)),
                         "count"});
  res.metrics.push_back({"runtime.rank_threads", static_cast<double>(p), "count"});
  res.metrics.push_back({"runtime.threads_max", static_cast<double>(threads_max), "count"});
  res.metrics.push_back({"obs.trace_overhead_frac", p50_c / p50_a - 1.0, "ratio"});
  add_budget(res, "rank threads + main", threads_max, cfg);

  Breakdown bd;
  accumulate(bd, rec);
  add_breakdown(res, bd, plan, c_steps);
  add_model(res, w, plan, refs, p50_b, p50_a);
  res.notes.push_back("api step p50 " + fmt(p50_a) + " us (" + std::to_string(a_steps) +
                      " steps), direct " + fmt(p50_b) + " us (" + std::to_string(b_us.size()) +
                      "), traced " + fmt(p50_c) + " us (" + std::to_string(c_steps) + ")");
  log.import_executor_spans(rec);
  add_self_times(res, log);
  if (!cfg.trace_out.empty() && !log.write_json(cfg.trace_out, w.name, 200000)) {
    res.notes.push_back("could not write " + cfg.trace_out);
  }
  return res;
}

/// Forwards executor events to a recorder and samples the process's thread
/// count every 256 spans (the event engine's workers emit them).
class SamplingSink final : public obs::TraceSink {
 public:
  explicit SamplingSink(obs::TraceRecorder& rec) : rec_(rec) {}
  void span(const obs::SpanEvent& e) override {
    rec_.span(e);
    if ((n_.fetch_add(1, std::memory_order_relaxed) & 255) == 0) {
      const int t = thread_count();
      int cur = max_.load();
      while (t > cur && !max_.compare_exchange_weak(cur, t)) {
      }
    }
  }
  void instant(const obs::InstantEvent& e) override { rec_.instant(e); }
  [[nodiscard]] int threads_max() const { return max_.load(); }

 private:
  obs::TraceRecorder& rec_;
  std::atomic<std::uint64_t> n_{0};
  std::atomic<int> max_{0};
};

RunResult event(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg) {
  RunResult res;
  const double S = cfg.seconds;
  SpanLog log(1);
  const Plan plan = plan_step(w, log, res, 0.02 * S);
  res.metrics.push_back({"core.reference_us", reference_us(w, data, log, 0.03 * S), "us"});
  double world_us = 0.0;
  {
    SpanLog::Scope s(log, 0, "runtime.world_setup", -1);
    world_us = world_setup_us(w.p, false, 0.02 * S);
  }
  res.metrics.push_back({"runtime.world_setup_us", world_us, "us"});
  const Refs refs = measure_refs(w, log, res, 0.03 * S);

  rt::WorldOptions opts;
  opts.executor = rt::ExecutorKind::kEvent;
  double exec_us = 0.0;
  std::vector<double> a_us;
  std::vector<double> c_us;
  Breakdown bd;
  std::uint64_t allocs = 0;
  int threads_max = 0;
  try {
    // Executor alone on the prebuilt schedules (still a fresh World per call).
    bool exec_ok = true;
    exec_us = time_median_us(
        [&] {
          for (std::size_t j = 0; j < w.ops.size(); ++j) {
            SpanLog::Scope s(log, 0, "event.execute_event", -1);
            core::ThreadedExecOptions eo;
            eo.world = opts;
            const auto outs = core::execute_event(plan.built[j].sched, data[j].inputs[0],
                                                  w.ops[j].type, w.ops[j].reduce, eo);
            if (!all_ok(w, data[j], w.ops[j], outs)) exec_ok = false;
          }
        },
        0.2 * S, 3, 50);
    ++res.attempted;
    if (!exec_ok) ++res.failed;

    // A: untraced run_collective steps; C: traced, one fresh pool per call so
    // its counters show what the call's private pool would have allocated.
    obs::TraceRecorder rec(w.p);
    SamplingSink sink(rec);
    for (int traced = 0; traced < 2; ++traced) {
      const double start = now_us();
      for (std::int64_t i = 0; i < 3 || now_us() - start < 0.2 * S * 1e6; ++i) {
        const int v = static_cast<int>(i % kVariants);
        std::optional<SpanLog::Scope> step_span;
        if (traced != 0) step_span.emplace(log, 0, "step", i);
        double step_us = 0.0;  // the calls only, not the analysis of their spans
        bool bad = false;
        for (std::size_t j = 0; j < w.ops.size(); ++j) {
          const auto& inputs = data[j].inputs[static_cast<std::size_t>(v)];
          const auto input = [&inputs](int r, std::size_t) {
            return inputs[static_cast<std::size_t>(r)];
          };
          std::vector<std::vector<std::byte>> outs;
          if (traced == 0) {
            const double c0 = now_us();
            outs = gencoll::run_collective(collective_spec(w.ops[j], w.p), input, opts);
            step_us += now_us() - c0;
          } else {
            rec.reset(w.p);
            rt::BufferPool pool;
            rt::WorldOptions topts = opts;
            topts.pool = &pool;
            const double c0 = now_us();
            {
              SpanLog::Scope s(log, 0, "api.run_collective", i);
              outs = gencoll::run_collective(collective_spec(w.ops[j], w.p), input, topts, &sink);
            }
            step_us += now_us() - c0;
            allocs += pool.stats().allocations;
            accumulate(bd, rec);
            double lo = now_us();
            double hi = c0;
            for (int r = 0; r < w.p; ++r) {
              for (const auto& ev : rec.spans(r)) {
                lo = std::min(lo, ev.begin_us);
                hi = std::max(hi, ev.end_us);
              }
            }
            if (lo < hi) log.add_child(0, "exec.event_ranks", i, lo, hi);
          }
          for (int r = 0; r < w.p; ++r) {
            if (!output_ok(data[j], w.ops[j], v, r, outs[static_cast<std::size_t>(r)])) bad = true;
          }
        }
        (traced != 0 ? c_us : a_us).push_back(step_us);
        ++res.attempted;
        if (bad) ++res.failed;
      }
    }
    threads_max = sink.threads_max();
  } catch (const std::exception& e) {
    res.correct = false;
    ++res.failed;
    res.notes.push_back(std::string("exception: ") + e.what());
  }
  const double p50_a = median(a_us);
  const double p50_c = median(c_us);
  const std::size_t c_steps = c_us.size();
  res.metrics.push_back({"api.overhead_us", p50_a - exec_us, "us"});
  // run_collective keeps no schedule cache: every call builds.
  res.metrics.push_back({"api.cache_hit_frac", 0.0, "ratio"});
  res.metrics.push_back({"core.exec_us", exec_us, "us"});
  res.metrics.push_back({"core.fresh_world_ratio", 0.0, "ratio"});
  res.metrics.push_back({"event.exec_us", exec_us, "us"});
  res.metrics.push_back({"event.threads_max", static_cast<double>(threads_max), "count"});
  res.metrics.push_back({"runtime.pool_allocs_per_step",
                         static_cast<double>(allocs) /
                             static_cast<double>(std::max<std::size_t>(c_steps, 1)),
                         "count"});
  res.metrics.push_back(
      {"runtime.rank_threads", static_cast<double>(rt::EventPool::default_workers()), "count"});
  res.metrics.push_back({"runtime.threads_max", static_cast<double>(threads_max), "count"});
  res.metrics.push_back({"obs.trace_overhead_frac", p50_c / p50_a - 1.0, "ratio"});
  add_budget(res, "event workers + main", threads_max, cfg);
  add_breakdown(res, bd, plan, c_steps);
  add_model(res, w, plan, refs, exec_us, p50_a);
  res.notes.push_back("run_collective step p50 " + fmt(p50_a) + " us (" +
                      std::to_string(a_us.size()) + " steps), execute_event " + fmt(exec_us) +
                      " us, traced " + fmt(p50_c) + " us (" + std::to_string(c_steps) + ")");
  add_self_times(res, log);
  if (!cfg.trace_out.empty() && !log.write_json(cfg.trace_out, w.name, 200000)) {
    res.notes.push_back("could not write " + cfg.trace_out);
  }
  return res;
}

}  // namespace

RunResult run_layers(const Workload& w, const std::vector<OpData>& data, const RunConfig& cfg) {
  RunResult res = w.event ? event(w, data, cfg) : threaded(w, data, cfg);
  if (res.failed != 0) res.correct = false;
  return res;
}

}  // namespace perfbench
