// EventPool: the worker pool behind the event-driven schedule executor
// (core/event_exec.hpp, DESIGN.md section 13).
//
// The threaded engine burns one OS thread per rank, which caps realistic
// executions near core count. The event engine instead compiles each rank
// into a resumable Task: a worker runs the task's step() until it completes
// or *would block* (a receive with nothing deliverable), at which point the
// task parks and the worker moves on. Mailbox posts and interrupts call the
// task's wakeup hook, which re-queues it; a timer heap re-queues parked
// tasks when their receive deadline (or an injected deliver_at delay)
// expires. ~hardware_concurrency workers therefore multiplex thousands of
// rank tasks.
//
// Ready queues are sharded: one cache-line-aligned shard (mutex, deque,
// atomic size) per worker target. submit() takes a batch and places it
// contiguously: task i of n gets home shard floor(i * worker_target() / n).
// A rank program's traffic is mostly between neighbouring ranks (ring and
// k-ring hand-offs, hierarchical groups of consecutive ranks), so neighbours
// share a shard and a wake() usually stays on the waking worker's own
// shard; a p-rank ring crosses shards on only worker_target() of its p
// edges (round-robin placement made every edge cross). A task is only ever
// queued on its home shard, and its state is guarded by that shard's mutex,
// so the protocol below is the same plain-mutex protocol on every shard —
// TSan sees ordinary happens-before edges, with no lock-free subtlety on
// the task state:
//
//   kIdle ──wake()──▶ kQueued ──worker pops──▶ kRunning ──step() parks──▶ kIdle
//                                                │   ▲
//                                     wake() mid-run  └─ step() yields ─▶ kQueued
//                                                ▼
//                                        kRunningNotified ── park attempt ─▶ kQueued
//
// The kRunningNotified leg closes the lost-wakeup race: a message that lands
// between a task's final empty poll and its park re-queues the task instead
// of being missed.
//
// Workers pop from their own shard and steal from the others (reading each
// shard's atomic size before taking its mutex). An idle worker sleeps only
// after registering as a sleeper and re-checking every shard and the next
// timer deadline under the sleep mutex; a producer that queued work, or
// armed an earlier deadline, notifies only when the sleeper count is
// nonzero. Both sides use sequentially consistent accesses, so either the
// producer sees the sleeper or the sleeper sees the work.
//
// Timers: a parked task has at most one live timer entry. A park pushes a
// heap entry only when its wake_at is earlier than the task's live entry
// (Task::timer_at_); a later wake_at keeps the earlier entry, which fires
// early — a harmless spurious wake (the task re-polls and re-parks with a
// fresh entry). Popped entries superseded by an earlier one are skipped. So
// a task is never woken later than its wake_at, and a long run of wake()ed
// parks that each re-arm a later receive deadline keeps one heap entry, not
// one per park. Workers read an atomic next-deadline before taking the
// timer mutex.
//
// timer_at_ is atomic so that the common park — a later deadline than the
// live entry, which ScheduleRunner produces on every receive segment —
// returns before taking the timer mutex. The early return cannot lose a
// wake. arm_timer runs on the worker that is running the task, before the
// park transition. If it reads a live entry at T <= wake_at, that entry was
// in the heap at the read: either it is still there and fires by T, or
// fire_due_timers popped it concurrently and then calls wake(task), which
// finds the task running (kRunningNotified: the park re-queues it), idle
// (re-queued) or already queued. Either way the task runs again and
// re-parks, re-arming from timer_at_ == no-deadline.
//
// Lock order: a shard mutex and the timer mutex are never held together
// (due timers are collected under the timer mutex and woken after it is
// released); the sleep mutex is innermost and nothing is taken under it;
// the control mutex (worker list, blocked count) is never held with any
// other pool mutex.
//
// Managed blocking: control-plane waits whose duration depends on *peers*
// (barrier, survivor agreement, commit rendezvous, shm seqlock waits) cannot
// park — they sit inside foreign mutex/condvar protocols. A BlockingGuard
// around such a wait tells the pool a worker is about to stall; the pool
// spawns a compensation worker when the unblocked count would drop below
// target, so parked tasks keep draining. Tasks queued on the stalled
// worker's own shard are not stranded: every other worker (and the
// compensation worker, which gets a home shard like any worker) steals
// them. Thread count is bounded by target + live tasks — the same order as
// the threaded engine, and only reached when every task blocks at once
// (e.g. a commit rendezvous at small p); steady-state collectives never
// block and stay at ~target threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

namespace gencoll::runtime {

/// Which engine executes a schedule. kThreaded: one OS thread per rank (the
/// reference implementation). kEvent: rank state machines over EventPool.
enum class ExecutorKind { kThreaded, kEvent };

/// "threaded" / "event" (case insensitive) or nullopt.
std::optional<ExecutorKind> parse_executor(std::string_view value);

/// Resolution chain: explicit option > GENCOLL_EXECUTOR environment variable
/// ("threaded"/"event"; anything else warns once and is ignored) > kThreaded.
ExecutorKind resolve_executor(std::optional<ExecutorKind> option);

class EventPool {
 public:
  /// A resumable unit of work. step() runs to completion or to the first
  /// would-block point; it must never block on another task's progress
  /// (peer-dependent waits go through BlockingGuard instead) and must not
  /// throw — failures are the task's own business to record.
  class Task {
   public:
    enum class Status {
      kDone,   ///< finished; never stepped again
      kYield,  ///< made progress, more to do: re-queue behind peers (fairness)
      kPark,   ///< would block: sleep until wake() or wake_at, then re-queue
    };
    struct StepResult {
      Status status = Status::kDone;
      /// kPark: latest instant the task must be re-queued anyway (receive
      /// deadline / injected deliver_at). time_point::max() = wake() only.
      std::chrono::steady_clock::time_point wake_at =
          std::chrono::steady_clock::time_point::max();
    };
    virtual ~Task() = default;
    virtual StepResult step() = 0;

   private:
    friend class EventPool;
    enum class State { kIdle, kQueued, kRunning, kRunningNotified, kDone };
    State state_ = State::kIdle;  // guarded by the home shard's mutex
    int home_ = 0;                // home shard index, fixed at submit
    /// `when` of this task's live timer entry, time_point::max() if none.
    /// Written under the pool's timer mutex; read without it by arm_timer's
    /// early return (see the race argument in the header comment).
    std::atomic<std::chrono::steady_clock::time_point> timer_at_{
        std::chrono::steady_clock::time_point::max()};

   public:
    /// Home shard, fixed by submit(). Read it on the submitting thread or
    /// after wait_all().
    [[nodiscard]] int home() const { return home_; }
  };

  /// `workers` <= 0 resolves the default (GENCOLL_EVENT_WORKERS, else
  /// hardware_concurrency). Workers are spawned immediately.
  explicit EventPool(int workers = 0);
  ~EventPool();
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Register a batch of tasks and queue each for its first step. Task i of
  /// n lives on shard floor(i * worker_target() / n), so tasks adjacent in
  /// the batch share a shard. Each task must outlive the pool (or at least
  /// every wake() or timer entry that could still reference it).
  void submit(std::span<Task* const> tasks);

  /// Re-queue a parked task; safe from any thread, any task state after
  /// submit (waking a queued, running, or finished task is a no-op / a
  /// deferred re-queue). A task must not be woken before it is submitted.
  void wake(Task* task);

  /// Block the calling (non-worker) thread until every submitted task
  /// returned kDone.
  void wait_all();

  /// Managed blocking (see BlockingGuard): a worker is entering / leaving a
  /// peer-dependent blocking wait.
  void block_begin();
  void block_end();

  /// The pool the calling thread is a worker of, nullptr otherwise. Lets
  /// BlockingGuard no-op on the threaded engine's rank threads.
  static EventPool* current();

  /// Resolved worker target (compensation can grow the spawned count). Also
  /// the number of ready-queue shards.
  [[nodiscard]] int worker_target() const { return target_; }
  [[nodiscard]] int workers_spawned() const;
  /// Timer-heap entries not yet popped, superseded ones included
  /// (diagnostics/tests: the one-live-timer rule keeps this bounded).
  [[nodiscard]] std::size_t timers_pending() const;

  /// GENCOLL_EVENT_WORKERS > std::thread::hardware_concurrency() > 4.
  static int default_workers();

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  struct TimerEntry {
    Clock::time_point when;
    Task* task;
    bool operator>(const TimerEntry& o) const { return when > o.when; }
  };

  /// One worker's ready queue. `size` mirrors ready.size() (written under
  /// mu) so workers can skip empty shards without locking them.
  struct alignas(64) Shard {
    std::mutex mu;
    std::deque<Task*> ready;
    std::atomic<std::size_t> size{0};
  };

  void worker_loop(int home);
  /// Requires shard.mu, where shard is task's home shard.
  void push_locked(Shard& shard, Task* task);
  /// Pop from shard `home`, else steal from the others; nullptr if all empty.
  Task* pop_any(int home);
  [[nodiscard]] bool any_ready() const;
  /// Notify one sleeping worker, if any worker sleeps.
  void notify_sleeper();
  /// Sleep until notified, until the next timer deadline, or not at all if
  /// work or a due timer shows up in the re-check.
  void sleep_until_work();
  /// Arm `task`'s timer for `when` under the one-live-timer rule.
  void arm_timer(Task* task, Clock::time_point when);
  /// Wake every task whose live timer entry is due.
  void fire_due_timers();
  /// Requires timer_mu_. Publish the heap top as next_deadline_.
  void publish_deadline_locked();
  /// Requires ctl_mu_.
  void spawn_worker_locked();

  const int target_;
  std::unique_ptr<Shard[]> shards_;  ///< target_ shards
  std::atomic<int> live_tasks_{0};
  std::atomic<bool> stop_{false};

  mutable std::mutex timer_mu_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>>
      timers_;
  /// Heap top, kNoDeadline when empty; written under timer_mu_.
  std::atomic<Clock::time_point> next_deadline_{kNoDeadline};

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;  ///< idle workers wait for work / timers
  std::atomic<int> sleepers_{0};

  std::mutex done_mu_;
  std::condition_variable done_cv_;  ///< wait_all() waits for live_tasks_ == 0

  mutable std::mutex ctl_mu_;
  std::vector<std::thread> workers_;  ///< guarded by ctl_mu_
  int blocked_ = 0;                   ///< guarded by ctl_mu_
};

/// RAII wrapper for a peer-dependent blocking wait on (possibly) a pool
/// worker thread: tells the pool to compensate while this thread stalls.
/// A no-op on non-worker threads, so the blocking call sites in the runtime
/// (barrier, membership agreement/commit, shm seqlock waits, reliable-send
/// ack waits) behave identically under the threaded engine.
class BlockingGuard {
 public:
  BlockingGuard() : pool_(EventPool::current()) {
    if (pool_ != nullptr) pool_->block_begin();
  }
  ~BlockingGuard() {
    if (pool_ != nullptr) pool_->block_end();
  }
  BlockingGuard(const BlockingGuard&) = delete;
  BlockingGuard& operator=(const BlockingGuard&) = delete;

 private:
  EventPool* pool_;
};

}  // namespace gencoll::runtime
