#include "core/event_exec.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/hierarchy.hpp"
#include "fault/error.hpp"
#include "runtime/event_pool.hpp"

namespace gencoll::core {

namespace {

using runtime::EventPool;
using steady_clock = std::chrono::steady_clock;

constexpr auto kNever = steady_clock::time_point::max();

/// Fairness budget: segments a task may complete per resume before yielding
/// the worker. Generous enough that a typical log-p program finishes in one
/// resume; small enough that a p-step ring at large p cannot starve peers.
constexpr int kSegmentBudget = 1024;

// Mirrors elastic.cpp's recoverable(): which failures the elastic driver
// survives by shrinking. Kept in lockstep — the two engines must classify
// identically or a chaos seed would commit on one and abort on the other.
bool recoverable(FaultKind kind) {
  return kind == FaultKind::kRevoked || kind == FaultKind::kTimeout ||
         kind == FaultKind::kRetriesExhausted;
}

void emit_instant(obs::TraceSink* sink, obs::InstantKind kind, int rank,
                  int peer, int tag) {
  if (sink == nullptr) return;
  obs::InstantEvent ev;
  ev.kind = kind;
  ev.rank = rank;
  ev.peer = peer;
  ev.tag = tag;
  ev.time_us = obs::wallclock_us();
  sink->instant(ev);
}

/// True when execute_hierarchical would take the shared-segment intra path —
/// a seqlock protocol between group members that cannot park. The event
/// engine runs that whole body under managed blocking instead (resource use
/// equals the threaded engine for those ranks); composed flat programs (the
/// shape all fault/reliability runs take) stay fully event-driven.
bool shm_fast_path(const Schedule& sched, runtime::Communicator& comm) {
  return sched.hier && sched.hier->intra_shm && sched.hier->group_size >= 2 &&
         comm.plain_transport();
}

/// The prologue execute_rank_program runs before its step loop, shared by
/// both event task kinds.
void validate_rank_buffers(const Schedule& sched, runtime::Communicator& comm,
                           std::span<const std::byte> input,
                           std::span<std::byte> output,
                           runtime::DataType type) {
  const CollParams& pr = sched.params;
  if (comm.size() != pr.p) {
    throw std::invalid_argument("execute_rank_program: communicator size != p");
  }
  if (runtime::datatype_size(type) != pr.elem_size) {
    throw std::invalid_argument("execute_rank_program: elem_size != datatype size");
  }
  if (input.size() < input_bytes(pr, comm.rank())) {
    throw std::invalid_argument("execute_rank_program: input too small");
  }
  if (output.size() < output_bytes(pr)) {
    throw std::invalid_argument("execute_rank_program: output too small");
  }
}

/// Resumable equivalent of execute_step_range: the cursor is (step index,
/// bytes done within the step). advance() performs identical operations in
/// identical program order — same segmentation, same crash_check ticks (one
/// per segment, on the first poll), same span emission — but returns kParked
/// instead of blocking when a receive has nothing deliverable.
class ScheduleRunner {
 public:
  enum class Run { kComplete, kParked, kYielded };
  struct Outcome {
    Run run = Run::kComplete;
    steady_clock::time_point wake_at = kNever;  ///< kParked only
  };

  void reset(const Schedule* sched, std::span<const std::byte> input,
             std::span<std::byte> output, std::size_t begin_step,
             std::size_t end_step, int rank) {
    sched_ = sched;
    input_ = input;
    output_ = output;
    step_ = begin_step;
    end_ = end_step;
    rank_ = rank;
    done_ = 0;
    seg_polled_ = false;
    deadline_armed_ = false;
    begin_us_ = -1.0;
  }

  Outcome advance(runtime::Communicator& comm, runtime::DataType type,
                  runtime::ReduceOp op, obs::TraceSink* sink,
                  const ExecTuning& tuning) {
    const CollParams& pr = sched_->params;
    const bool plain = comm.plain_transport();
    const bool zero_copy = tuning.zero_copy && plain;
    const std::size_t seg_bytes =
        plain ? exec_detail::pipeline_segment_bytes(tuning, pr.elem_size) : 0;
    const auto reduce_fn = tuning.scalar_reduce ? runtime::apply_reduce_scalar
                                                : runtime::apply_reduce;
    const int gsize = sched_->hier ? sched_->hier->group_size : 0;
    const int group = gsize > 1 ? rank_ / gsize : -1;
    const auto link_of = [&](const Step& st) {
      if (gsize <= 1 || st.kind == StepKind::kCopyInput || st.peer < 0) {
        return obs::LinkClass::kUnknown;
      }
      return st.peer / gsize == group ? obs::LinkClass::kIntra
                                      : obs::LinkClass::kInter;
    };

    const auto& steps = sched_->ranks[static_cast<std::size_t>(rank_)].steps;
    int budget = kSegmentBudget;
    while (step_ < end_) {
      const Step& s = steps[step_];
      if (begin_us_ < 0.0) begin_us_ = sink != nullptr ? obs::wallclock_us() : 0.0;

      if (s.kind == StepKind::kCopyInput) {
        if (s.bytes != 0) {
          std::memcpy(output_.data() + s.off, input_.data() + s.src_off, s.bytes);
        }
        if (sink != nullptr) {
          exec_detail::emit_step(*sink, rank_, step_, s, s.bytes, begin_us_,
                                 obs::wallclock_us(), group);
        }
        ++step_;
        begin_us_ = -1.0;
        if (--budget <= 0 && step_ < end_) return {Run::kYielded, kNever};
        continue;
      }

      const bool pipelined = seg_bytes != 0 &&
                             s.bytes >= tuning.pipeline_threshold &&
                             s.bytes > seg_bytes;
      const std::size_t chunk = pipelined ? seg_bytes : s.bytes;
      for (;;) {
        const std::size_t len = std::min(chunk, s.bytes - done_);
        switch (s.kind) {
          case StepKind::kSend:
            if (zero_copy) {
              comm.send_view(s.peer, s.tag, output_.subspan(s.off + done_, len));
            } else {
              comm.send(s.peer, s.tag, output_.subspan(s.off + done_, len));
            }
            break;
          case StepKind::kSendInput:
            if (zero_copy) {
              comm.send_view(s.peer, s.tag, input_.subspan(s.src_off + done_, len));
            } else {
              comm.send(s.peer, s.tag, input_.subspan(s.src_off + done_, len));
            }
            break;
          case StepKind::kRecv:
          case StepKind::kRecvReduce: {
            auto r = comm.try_recv_msg(s.peer, s.tag, len, !seg_polled_);
            seg_polled_ = true;
            if (!r.message) {
              const auto now = steady_clock::now();
              if (!deadline_armed_) {
                deadline_armed_ = true;
                deadline_ = now + comm.recv_timeout();
              }
              if (now >= deadline_) {
                throw FaultError(
                    FaultKind::kTimeout, comm.world_rank(), s.peer, s.tag,
                    "event recv deadline expired after " +
                        std::to_string(comm.recv_timeout().count()) +
                        " ms (step " + std::to_string(step_) + ", " +
                        std::to_string(done_) + "/" + std::to_string(s.bytes) +
                        " bytes)");
              }
              return {Run::kParked, std::min(deadline_, r.earliest_future)};
            }
            if (s.kind == StepKind::kRecv) {
              if (len != 0) {
                std::memcpy(output_.data() + s.off + done_,
                            r.message->bytes().data(), len);
              }
            } else {
              reduce_fn(op, type, output_.subspan(s.off + done_, len),
                        r.message->bytes(), len / pr.elem_size);
            }
            break;
          }
          case StepKind::kCopyInput:
            break;  // handled above
        }
        done_ += len;
        seg_polled_ = false;
        deadline_armed_ = false;
        if (sink != nullptr) {
          const double now_us = obs::wallclock_us();
          exec_detail::emit_step(*sink, rank_, step_, s, len, begin_us_, now_us,
                                 group, link_of(s));
          begin_us_ = now_us;
        }
        if (done_ >= s.bytes) break;
        if (--budget <= 0) return {Run::kYielded, kNever};
      }
      ++step_;
      done_ = 0;
      begin_us_ = -1.0;
      if (--budget <= 0 && step_ < end_) return {Run::kYielded, kNever};
    }
    return {Run::kComplete, kNever};
  }

 private:
  const Schedule* sched_ = nullptr;
  std::span<const std::byte> input_;
  std::span<std::byte> output_;
  std::size_t step_ = 0;
  std::size_t end_ = 0;
  int rank_ = 0;
  std::size_t done_ = 0;      ///< bytes completed within the current step
  bool seg_polled_ = false;   ///< crash_check already ticked for this segment
  bool deadline_armed_ = false;
  steady_clock::time_point deadline_{};
  double begin_us_ = -1.0;    ///< current segment's span start (-1 = unset)
};

/// Shared per-execution state: the World plus World::run's error policy
/// (first-exception capture, elastic death swallowing).
struct RunState {
  runtime::World world;
  bool shrink;
  std::mutex error_mu;
  std::exception_ptr first_error;
  int deaths_swallowed = 0;

  RunState(int size, const runtime::WorldOptions& options)
      : world(size, options),
        shrink(world.crash_policy() == fault::CrashPolicy::kShrink) {}
};

/// Communicator lifecycle, mailbox waiter wiring, and World::run's exact
/// per-rank exception policy, shared by both task kinds. The subclass
/// resume() is the rank body; any exception it lets escape ends the task.
class RankTaskBase : public EventPool::Task, public runtime::MailboxWaiter {
 public:
  RankTaskBase(RunState& rs, EventPool& pool, int rank)
      : rs_(rs), pool_(pool), rank_(rank) {}

  void on_mailbox_event() override { pool_.wake(this); }

  StepResult step() final {
    try {
      if (!comm_) {
        comm_.emplace(&rs_.world, rank_);
        // From here on every deposit into (and interrupt of) this rank's
        // mailbox re-queues this task. Attached before the first poll, so no
        // wakeup can be lost; the index is the ORIGINAL rank, stable across
        // epoch shrinks.
        rs_.world.mailbox(rank_).set_waiter(this);
      }
      const StepResult r = resume(*comm_);
      if (r.status == Status::kDone) detach();
      return r;
    } catch (...) {
      handle_failure();
      detach();
      return {Status::kDone, kNever};
    }
  }

 protected:
  virtual StepResult resume(runtime::Communicator& comm) = 0;

  RunState& rs_;
  EventPool& pool_;
  const int rank_;
  std::optional<runtime::Communicator> comm_;

 private:
  void detach() {
    if (comm_) rs_.world.mailbox(rank_).set_waiter(nullptr);
  }

  // Replicates the catch block of World::run's rank thread verbatim: under
  // shrink a kRankDeath is survivable (announce + swallow); anything else
  // records the first error and abort-poisons the World.
  void handle_failure() {
    if (rs_.shrink) {
      try {
        throw;
      } catch (const FaultError& e) {
        if (e.kind() == FaultKind::kRankDeath) {
          rs_.world.announce_death(rank_, e.what());
          std::lock_guard<std::mutex> lock(rs_.error_mu);
          ++rs_.deaths_swallowed;
          return;
        }
      } catch (...) {
      }
    }
    {
      std::lock_guard<std::mutex> lock(rs_.error_mu);
      if (!rs_.first_error) rs_.first_error = std::current_exception();
    }
    try {
      throw;
    } catch (const std::exception& e) {
      rs_.world.abort(rank_, e.what());
    } catch (...) {
      rs_.world.abort(rank_, "non-standard exception");
    }
  }
};

/// One rank of a fixed schedule (the execute_threaded contract).
class ProgramTask final : public RankTaskBase {
 public:
  ProgramTask(RunState& rs, EventPool& pool, int rank, const Schedule& sched,
              std::span<const std::byte> input, std::span<std::byte> output,
              runtime::DataType type, runtime::ReduceOp op,
              obs::TraceSink* sink, const ExecTuning& tuning)
      : RankTaskBase(rs, pool, rank),
        sched_(sched),
        input_(input),
        output_(output),
        type_(type),
        op_(op),
        sink_(sink),
        tuning_(tuning) {}

 protected:
  StepResult resume(runtime::Communicator& comm) override {
    if (!started_) {
      started_ = true;
      validate_rank_buffers(sched_, comm, input_, output_, type_);
      comm.set_trace_sink(sink_);
      if (shm_fast_path(sched_, comm)) {
        // Seqlock intra phases can't park; run the whole composed body as a
        // managed-blocking region (same thread budget as the threaded
        // engine for these ranks — the pool compensates).
        runtime::BlockingGuard guard;
        execute_hierarchical(sched_, comm, input_, output_, type_, op_, sink_,
                             tuning_);
        return {Status::kDone, kNever};
      }
      runner_.reset(&sched_, input_, output_, 0,
                    sched_.ranks[static_cast<std::size_t>(comm.rank())].steps.size(),
                    comm.rank());
    }
    const auto o = runner_.advance(comm, type_, op_, sink_, tuning_);
    switch (o.run) {
      case ScheduleRunner::Run::kComplete: return {Status::kDone, kNever};
      case ScheduleRunner::Run::kYielded: return {Status::kYield, kNever};
      case ScheduleRunner::Run::kParked: break;
    }
    return {Status::kPark, o.wake_at};
  }

 private:
  const Schedule& sched_;
  std::span<const std::byte> input_;
  std::span<std::byte> output_;
  runtime::DataType type_;
  runtime::ReduceOp op_;
  obs::TraceSink* sink_;
  ExecTuning tuning_;
  ScheduleRunner runner_;
  bool started_ = false;
};

/// One rank of the elastic build -> execute -> commit -> recover loop
/// (execute_rank_elastic as a phase machine; bookkeeping kept in lockstep
/// with the threaded driver so ElasticReports agree across engines).
class ElasticTask final : public RankTaskBase {
 public:
  ElasticTask(RunState& rs, EventPool& pool, int rank, const CollParams& params,
              runtime::DataType type, runtime::ReduceOp op,
              const ElasticOptions& options, const InputProvider& provider,
              std::vector<std::vector<std::byte>>& outputs,
              std::vector<ElasticReport>* reports)
      : RankTaskBase(rs, pool, rank),
        params_(params),
        type_(type),
        op_(op),
        options_(options),
        provider_(provider),
        outputs_(outputs),
        reports_(reports) {}

 protected:
  StepResult resume(runtime::Communicator& comm) override {
    if (!started_) {
      started_ = true;
      root_orig_ = params_.root;
      view_ = rs_.world.membership().view();
    }
    // Run phases back-to-back until one parks/yields/finishes; each case
    // either returns or falls through the loop into the next phase.
    for (;;) {
      switch (phase_) {
        case Phase::kStart: {
          cur_ = params_;
          cur_.p = comm.size();
          root_dense_ = view_.dense_rank(root_orig_);
          cur_.root = root_dense_ >= 0 ? root_dense_ : 0;
          output_.assign(output_bytes(cur_), std::byte{});
          try {
            if (cur_.p == 1) {
              // Degenerate single-survivor world: input -> output copy.
              const std::vector<std::byte> input = provider_(cur_, comm.rank());
              const std::size_t n = std::min(input.size(), output_.size());
              if (n != 0) std::memcpy(output_.data(), input.data(), n);
              rep_.schedule_name = "identity(p=1)";
              ++rep_.attempts;
              phase_ = Phase::kCommit;
              break;
            }
            sched_ = build_elastic_schedule(options_, cur_);
            input_ = provider_(cur_, comm.rank());
            ++rep_.attempts;
            validate_rank_buffers(sched_, comm, input_, output_, type_);
            comm.set_trace_sink(options_.sink);
            if (shm_fast_path(sched_, comm)) {
              phase_ = Phase::kExecuteShm;
            } else {
              runner_.reset(
                  &sched_, input_, output_, 0,
                  sched_.ranks[static_cast<std::size_t>(comm.rank())].steps.size(),
                  comm.rank());
              phase_ = Phase::kExecute;
            }
          } catch (const FaultError& e) {
            enter_recovery_or_throw(comm, e);
          }
          break;
        }
        case Phase::kExecute: {
          try {
            const auto o = runner_.advance(comm, type_, op_, options_.sink,
                                           options_.tuning);
            if (o.run == ScheduleRunner::Run::kYielded) {
              return {Status::kYield, kNever};
            }
            if (o.run == ScheduleRunner::Run::kParked) {
              return {Status::kPark, o.wake_at};
            }
            rep_.schedule_name = sched_.name;
            phase_ = Phase::kCommit;
          } catch (const FaultError& e) {
            enter_recovery_or_throw(comm, e);
          }
          break;
        }
        case Phase::kExecuteShm: {
          try {
            {
              runtime::BlockingGuard guard;
              execute_hierarchical(sched_, comm, input_, output_, type_, op_,
                                   options_.sink, options_.tuning);
            }
            rep_.schedule_name = sched_.name;
            phase_ = Phase::kCommit;
          } catch (const FaultError& e) {
            enter_recovery_or_throw(comm, e);
          }
          break;
        }
        case Phase::kCommit: {
          try {
            // Commit rendezvous: peer-dependent wait, managed blocking (the
            // guard inside Membership::try_commit covers the wait itself).
            const bool committed = rs_.world.membership().try_commit(
                comm.world_rank(), comm.epoch(),
                rs_.world.membership().config().agree_timeout);
            if (committed) {
              rep_.final_p = cur_.p;
              rep_.final_epoch = comm.epoch();
              rep_.survivors = view_.survivors;
              const auto r = static_cast<std::size_t>(comm.world_rank());
              outputs_[r] = std::move(output_);
              if (reports_ != nullptr) (*reports_)[r] = rep_;
              return {Status::kDone, kNever};
            }
            // Epoch revoked under us (late peer crash): recover like any
            // mid-flight revoke — the revocation already happened.
            phase_ = Phase::kRecover;
          } catch (const FaultError& e) {
            enter_recovery_or_throw(comm, e);
          }
          break;
        }
        case Phase::kRecover: {
          // Agreement + epoch adoption; agree_and_shrink's internal guard
          // compensates for the wait. Throws kRankDeath when this rank was
          // declared dead (handled by the base policy: announce + swallow).
          const auto t0 = steady_clock::now();
          emit_instant(options_.sink, obs::InstantKind::kAgree,
                       comm.world_rank(), -1, comm.epoch());
          view_ = rs_.world.join_recovery(comm.epoch(), comm.world_rank());
          comm.apply_epoch(view_);
          ++rep_.shrinks;
          rep_.recovery_latency_ms +=
              std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
                  .count();
          emit_instant(options_.sink, obs::InstantKind::kShrink,
                       comm.world_rank(), view_.size(), view_.epoch);
          const auto& cfg = rs_.world.membership().config();
          if (rep_.shrinks > cfg.max_recoveries) {
            throw FaultError(FaultKind::kRetriesExhausted, comm.world_rank(),
                             -1, -1,
                             "elastic recovery cap reached after " +
                                 std::to_string(rep_.shrinks) +
                                 " shrink(s) (cap " +
                                 std::to_string(cfg.max_recoveries) + ")");
          }
          if (view_.dense_rank(root_orig_) < 0) {
            // The root died (or was already gone); promote the lowest
            // survivor — same rule as the threaded driver.
            root_orig_ = view_.survivors.front();
          }
          phase_ = Phase::kStart;
          break;
        }
      }
    }
  }

 private:
  enum class Phase { kStart, kExecute, kExecuteShm, kCommit, kRecover };

  void enter_recovery_or_throw(runtime::Communicator& comm,
                               const FaultError& e) {
    if (!recoverable(e.kind())) throw e;
    // Make sure the epoch really is revoked so every survivor converges on
    // the agreement (no-op when the crash site already revoked it).
    if (e.kind() != FaultKind::kRevoked) {
      emit_instant(options_.sink, obs::InstantKind::kRevoke, comm.world_rank(),
                   -1, comm.epoch());
      rs_.world.revoke(comm.epoch(), comm.world_rank(), e.what());
    }
    phase_ = Phase::kRecover;
  }

  const CollParams& params_;
  runtime::DataType type_;
  runtime::ReduceOp op_;
  const ElasticOptions& options_;
  const InputProvider& provider_;
  std::vector<std::vector<std::byte>>& outputs_;
  std::vector<ElasticReport>* reports_;

  Phase phase_ = Phase::kStart;
  bool started_ = false;
  ElasticReport rep_;
  int root_orig_ = 0;
  int root_dense_ = -1;
  runtime::EpochView view_;
  CollParams cur_;
  Schedule sched_;
  std::vector<std::byte> input_;
  std::vector<std::byte> output_;
  ScheduleRunner runner_;
};

/// One batch in rank order: EventPool places it contiguously, so ring
/// neighbours and groups of consecutive ranks share a worker's shard.
template <class T>
void submit_in_rank_order(EventPool& pool, const std::vector<std::unique_ptr<T>>& tasks) {
  std::vector<EventPool::Task*> batch;
  batch.reserve(tasks.size());
  for (const auto& t : tasks) batch.push_back(t.get());
  pool.submit(batch);
}

}  // namespace

std::vector<std::vector<std::byte>> execute_event(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options) {
  const CollParams& pr = sched.params;
  auto outputs = exec_detail::checked_outputs(pr, inputs, "execute_event");

  // Declaration order is the teardown contract: tasks (holding Communicators
  // into the World) die before rs; the pool joins its workers first, after
  // wait_all proved no task can run again — the same buffer-lifetime
  // guarantee World::run's join gives, which is what keeps zero-copy sound.
  RunState rs(pr.p, options.world);
  std::vector<std::unique_ptr<ProgramTask>> tasks;
  tasks.reserve(static_cast<std::size_t>(pr.p));
  EventPool pool;
  for (int r = 0; r < pr.p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    tasks.push_back(std::make_unique<ProgramTask>(
        rs, pool, r, sched, std::span<const std::byte>(inputs[i]),
        std::span<std::byte>(outputs[i]), type, op, options.sink,
        options.tuning));
  }
  submit_in_rank_order(pool, tasks);
  pool.wait_all();

  if (rs.first_error) std::rethrow_exception(rs.first_error);
  if (rs.deaths_swallowed == pr.p) {
    throw FaultError(FaultKind::kRankDeath, -1, -1, -1,
                     "every rank died; no survivors to complete the collective");
  }
  return outputs;
}

std::vector<std::vector<std::byte>> execute_event_elastic(
    const CollParams& params, runtime::DataType type, runtime::ReduceOp op,
    const ElasticOptions& options, const InputProvider& provider,
    const runtime::WorldOptions& world_options,
    std::vector<ElasticReport>* reports) {
  check_params(params);
  std::vector<std::vector<std::byte>> outputs(static_cast<std::size_t>(params.p));
  if (reports != nullptr) {
    reports->assign(static_cast<std::size_t>(params.p), ElasticReport{});
  }

  RunState rs(params.p, world_options);
  std::vector<std::unique_ptr<ElasticTask>> tasks;
  tasks.reserve(static_cast<std::size_t>(params.p));
  EventPool pool;
  for (int r = 0; r < params.p; ++r) {
    tasks.push_back(std::make_unique<ElasticTask>(
        rs, pool, r, params, type, op, options, provider, outputs, reports));
  }
  submit_in_rank_order(pool, tasks);
  pool.wait_all();

  if (rs.first_error) std::rethrow_exception(rs.first_error);
  if (rs.deaths_swallowed == params.p) {
    throw FaultError(FaultKind::kRankDeath, -1, -1, -1,
                     "every rank died; no survivors to complete the collective");
  }
  return outputs;
}

}  // namespace gencoll::core
