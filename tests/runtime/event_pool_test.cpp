// EventPool unit tests (DESIGN.md section 13): the worker pool's wakeup
// protocol in isolation, with hand-written tasks instead of rank programs —
// run-to-completion ordering under a single worker, the kRunningNotified
// lost-wakeup defense (also as a cross-shard stress), contiguous home-shard
// placement, timer-heap expiry, the one-live-timer rule and its lock-free
// early return racing a firing timer, stealing past a blocked worker,
// managed-blocking compensation, and the executor-selection resolution
// chain (option > env > threaded).
#include "runtime/event_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gencoll::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr auto kNever = steady_clock::time_point::max();

/// Submits `batch` in order as one batch (task i of n on shard
/// floor(i * worker_target() / n)).
void submit(EventPool& pool, std::initializer_list<EventPool::Task*> batch) {
  pool.submit({batch.begin(), batch.size()});
}

/// Spin-waits `flag` with a bounded budget so a pool bug fails the test
/// instead of hanging the binary past the ctest timeout.
bool await(const std::atomic<bool>& flag, milliseconds budget = milliseconds(5000)) {
  const auto deadline = steady_clock::now() + budget;
  while (!flag.load(std::memory_order_acquire)) {
    if (steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

/// Appends its id to a shared log on every step; optionally yields once
/// before completing, which must re-queue it BEHIND already-ready peers.
class LogTask final : public EventPool::Task {
 public:
  LogTask(int id, std::vector<int>* log, std::mutex* mu, bool yield_once = false)
      : id_(id), log_(log), mu_(mu), yield_once_(yield_once) {}

  StepResult step() override {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(id_);
    }
    if (yield_once_) {
      yield_once_ = false;
      return {Status::kYield, kNever};
    }
    return {Status::kDone, kNever};
  }

 private:
  int id_;
  std::vector<int>* log_;
  std::mutex* mu_;
  bool yield_once_;
};

/// Holds the (single) worker hostage until released, so peers submitted
/// after it are all queued before any of them runs.
class GateTask final : public EventPool::Task {
 public:
  explicit GateTask(std::atomic<bool>* release) : release_(release) {}
  StepResult step() override {
    EXPECT_TRUE(await(*release_));
    return {Status::kDone, kNever};
  }

 private:
  std::atomic<bool>* release_;
};

TEST(EventPool, SingleWorkerRunsInSubmitOrderAndYieldGoesToTheBack) {
  std::vector<int> log;
  std::mutex mu;
  std::atomic<bool> release{false};

  EventPool pool(1);
  GateTask gate(&release);
  LogTask t1(1, &log, &mu, /*yield_once=*/true);
  LogTask t2(2, &log, &mu);
  LogTask t3(3, &log, &mu);
  submit(pool, {&gate, &t1, &t2, &t3});  // the gate holds the lone worker
  release.store(true, std::memory_order_release);
  pool.wait_all();

  // t1's yield is a fairness point: its second step must run after t2, t3.
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1}));
}

/// A wake() that lands while the task is mid-step must not be lost when the
/// step then parks: kRunning -> kRunningNotified -> re-queued at the park.
class NotifyRaceTask final : public EventPool::Task {
 public:
  StepResult step() override {
    ++steps_;
    if (steps_ == 1) {
      in_step.store(true, std::memory_order_release);
      // Hold the step open until the main thread has issued the wake, so
      // the wake provably arrives in the kRunning window, then park with no
      // deadline: only the notified re-queue can ever run us again.
      EXPECT_TRUE(await(woken));
      return {Status::kPark, kNever};
    }
    return {Status::kDone, kNever};
  }

  std::atomic<bool> in_step{false};
  std::atomic<bool> woken{false};
  int steps_ = 0;
};

TEST(EventPool, WakeDuringStepIsNotLostByThePark) {
  EventPool pool(1);
  NotifyRaceTask task;
  submit(pool, {&task});
  ASSERT_TRUE(await(task.in_step));
  pool.wake(&task);
  task.woken.store(true, std::memory_order_release);
  pool.wait_all();  // would hang forever (until ctest kills us) on a lost wake
  EXPECT_EQ(task.steps_, 2);
}

/// Parked with a deadline and never woken: the timer heap must re-queue the
/// task once wake_at passes — this is the receive-deadline path.
class TimerTask final : public EventPool::Task {
 public:
  explicit TimerTask(milliseconds delay) : delay_(delay) {}
  StepResult step() override {
    ++steps_;
    if (steps_ == 1) return {Status::kPark, steady_clock::now() + delay_};
    return {Status::kDone, kNever};
  }
  int steps_ = 0;

 private:
  milliseconds delay_;
};

TEST(EventPool, TimerExpiryRequeuesAParkedTask) {
  EventPool pool(2);
  TimerTask task(milliseconds(60));
  const auto start = steady_clock::now();
  submit(pool, {&task});
  pool.wait_all();
  EXPECT_EQ(task.steps_, 2);
  // The second step must not have fired early (small slop for clock grain).
  EXPECT_GE(steady_clock::now() - start, milliseconds(50));
}

TEST(EventPool, WakingAFinishedTaskIsANoOp) {
  std::vector<int> log;
  std::mutex mu;
  EventPool pool(1);
  LogTask task(7, &log, &mu);
  submit(pool, {&task});
  pool.wait_all();
  pool.wake(&task);  // must neither crash nor re-run the task
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(log, std::vector<int>{7});
}

/// Blocks inside a BlockingGuard until a peer task completes. With a single
/// worker this only terminates if block_begin() spawned a compensation
/// worker to run the peer — the managed-blocking contract.
class BlockingTask final : public EventPool::Task {
 public:
  explicit BlockingTask(std::atomic<bool>* peer_done) : peer_done_(peer_done) {}
  StepResult step() override {
    BlockingGuard guard;  // we are a pool worker: compensation must kick in
    ok_ = await(*peer_done_);
    return {Status::kDone, kNever};
  }
  bool ok_ = false;

 private:
  std::atomic<bool>* peer_done_;
};

class SignalTask final : public EventPool::Task {
 public:
  explicit SignalTask(std::atomic<bool>* flag) : flag_(flag) {}
  StepResult step() override {
    flag_->store(true, std::memory_order_release);
    return {Status::kDone, kNever};
  }

 private:
  std::atomic<bool>* flag_;
};

TEST(EventPool, ManagedBlockingSpawnsACompensationWorker) {
  std::atomic<bool> peer_done{false};
  EventPool pool(1);
  BlockingTask blocker(&peer_done);
  SignalTask peer(&peer_done);
  submit(pool, {&blocker, &peer});
  pool.wait_all();
  EXPECT_TRUE(blocker.ok_) << "peer never ran: no compensation worker spawned";
  EXPECT_GE(pool.workers_spawned(), 2);
  EXPECT_EQ(pool.worker_target(), 1);
}

TEST(EventPool, BlockingGuardIsANoOpOffThePool) {
  ASSERT_EQ(EventPool::current(), nullptr);
  BlockingGuard guard;  // must not touch any pool
  SUCCEED();
}

/// Parks `parks` times with a +60 s receive deadline (the ScheduleRunner
/// pattern), counting its steps so the driver can wake it after each one.
class DeadlineParkTask final : public EventPool::Task {
 public:
  explicit DeadlineParkTask(int parks) : parks_(parks) {}
  StepResult step() override {
    const int n = steps.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (n <= parks_) return {Status::kPark, steady_clock::now() + std::chrono::seconds(60)};
    return {Status::kDone, kNever};
  }
  std::atomic<int> steps{0};

 private:
  int parks_;
};

/// Spin until `counter` reaches `target` (bounded like await()).
bool await_count(const std::atomic<int>& counter, int target,
                 milliseconds budget = milliseconds(10000)) {
  const auto deadline = steady_clock::now() + budget;
  while (counter.load(std::memory_order_acquire) < target) {
    if (steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(EventPool, RepeatedParksKeepOneLiveTimerEntry) {
  constexpr int kParks = 10000;
  DeadlineParkTask task(kParks);  // outlives the pool and its timer entry
  EventPool pool(2);
  submit(pool, {&task});
  for (int i = 1; i <= kParks; ++i) {
    // Once step i has started, a wake either re-queues the parked task or
    // marks the running one notified; both lead to step i + 1.
    ASSERT_TRUE(await_count(task.steps, i)) << "stalled at park " << i;
    pool.wake(&task);
  }
  pool.wait_all();
  EXPECT_EQ(task.steps.load(), kParks + 1);
  // Every park after the first carried a later deadline than the live entry,
  // so none of them may have pushed another heap entry.
  EXPECT_LE(pool.timers_pending(), 1u);
}

/// Parks with +60 s, then (after a wake) with +50 ms: the earlier deadline
/// must supersede the live 60 s entry.
class ShorterDeadlineTask final : public EventPool::Task {
 public:
  StepResult step() override {
    const int n = steps.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (n == 1) return {Status::kPark, steady_clock::now() + std::chrono::seconds(60)};
    if (n == 2) {
      short_wake_at = steady_clock::now() + milliseconds(50);
      return {Status::kPark, short_wake_at};
    }
    ran_at = steady_clock::now();
    return {Status::kDone, kNever};
  }
  std::atomic<int> steps{0};
  steady_clock::time_point short_wake_at{};
  steady_clock::time_point ran_at{};
};

TEST(EventPool, EarlierDeadlineSupersedesTheLiveTimer) {
  ShorterDeadlineTask task;  // outlives the pool and its timer entries
  EventPool pool(2);
  submit(pool, {&task});
  ASSERT_TRUE(await_count(task.steps, 1));
  pool.wake(&task);
  pool.wait_all();  // wait_all orders the task's writes before these reads
  ASSERT_EQ(task.steps.load(), 3);
  EXPECT_GE(task.ran_at, task.short_wake_at) << "woken before its wake_at";
  EXPECT_LT(task.ran_at - task.short_wake_at, std::chrono::seconds(10))
      << "the 50 ms deadline waited for the superseded 60 s entry";
}

/// Blocks under managed blocking until `peer_ran` is set.
class BlockUntilTask final : public EventPool::Task {
 public:
  explicit BlockUntilTask(std::atomic<bool>* peer_ran) : peer_ran_(peer_ran) {}
  StepResult step() override {
    BlockingGuard guard;
    ok = await(*peer_ran_);
    return {Status::kDone, kNever};
  }
  bool ok = false;

 private:
  std::atomic<bool>* peer_ran_;
};

TEST(EventPool, TasksQueuedBehindABlockedWorkerAreStolen) {
  // Placed explicitly: a batch of four on two shards puts the fillers on
  // shard 0 and the blocker with the peer it waits for on shard 1. Whichever
  // worker runs the blocker stalls with the peer queued on shard 1; the
  // shard-0 worker and the compensation worker (home shard 2 % 2 == 0) can
  // only reach the peer by stealing it.
  std::atomic<bool> peer_ran{false};
  std::atomic<bool> filler_ran[2] = {false, false};
  EventPool pool(2);
  BlockUntilTask blocker(&peer_ran);
  SignalTask filler0(&filler_ran[0]);
  SignalTask filler1(&filler_ran[1]);
  SignalTask peer(&peer_ran);
  submit(pool, {&filler0, &filler1, &blocker, &peer});
  ASSERT_EQ(filler0.home(), 0);
  ASSERT_EQ(filler1.home(), 0);
  ASSERT_EQ(blocker.home(), 1);
  ASSERT_EQ(peer.home(), 1);
  pool.wait_all();
  EXPECT_TRUE(blocker.ok) << "the peer queued behind the blocked task never ran";
  EXPECT_TRUE(filler_ran[0].load());
  EXPECT_TRUE(filler_ran[1].load());
}

/// Token ring across shards: each task forwards every token it holds to its
/// successor and finishes after forwarding `rounds` of them. Tasks park
/// with no deadline, so a single lost wakeup stalls the ring for good.
class TokenTask final : public EventPool::Task {
 public:
  TokenTask(EventPool* pool, int rounds) : pool_(pool), rounds_(rounds) {}
  void set_next(TokenTask* next) { next_ = next; }
  StepResult step() override {
    // Hold every token until the driver has submitted the whole ring: a
    // wake() must never reach a task that is not submitted yet.
    if (!go->load(std::memory_order_acquire)) return {Status::kPark, kNever};
    for (int held = tokens.exchange(0, std::memory_order_acq_rel); held > 0; --held) {
      next_->tokens.fetch_add(1, std::memory_order_acq_rel);
      pool_->wake(next_);
      if (++forwarded_ == rounds_) {
        finished->fetch_add(1, std::memory_order_acq_rel);
        return {Status::kDone, kNever};
      }
    }
    return {Status::kPark, kNever};
  }
  std::atomic<int> tokens{1};
  std::atomic<int>* finished = nullptr;
  const std::atomic<bool>* go = nullptr;

 private:
  EventPool* pool_;
  TokenTask* next_ = nullptr;
  int rounds_;
  int forwarded_ = 0;
};

/// `n` TokenTasks linked into a ring (task i forwards to task i + 1).
std::vector<std::unique_ptr<TokenTask>> make_token_ring(EventPool* pool, int n, int rounds,
                                                        std::atomic<int>* finished,
                                                        const std::atomic<bool>* go) {
  std::vector<std::unique_ptr<TokenTask>> ring;
  for (int i = 0; i < n; ++i) {
    ring.push_back(std::make_unique<TokenTask>(pool, rounds));
    ring.back()->finished = finished;
    ring.back()->go = go;
  }
  for (int i = 0; i < n; ++i) {
    ring[static_cast<std::size_t>(i)]->set_next(ring[static_cast<std::size_t>((i + 1) % n)].get());
  }
  return ring;
}

TEST(EventPool, CrossShardWakeStormLosesNoWakeup) {
  constexpr int kTasks = 64;
  constexpr int kRounds = 10000;
  constexpr int kShards = 4;
  std::atomic<int> finished{0};
  std::atomic<bool> go{false};
  EventPool pool(kShards);
  auto tasks = make_token_ring(&pool, kTasks, kRounds, &finished, &go);
  // Placed explicitly so that every ring edge crosses shards: the batch
  // lists the tasks by i % 4, so contiguous placement gives task i home
  // shard i % 4 and each wake() of a successor goes to another shard.
  std::vector<EventPool::Task*> batch;
  for (int s = 0; s < kShards; ++s) {
    for (int i = s; i < kTasks; i += kShards) batch.push_back(tasks[static_cast<std::size_t>(i)].get());
  }
  pool.submit(batch);
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(tasks[static_cast<std::size_t>(i)]->home(), i % kShards);
  }
  go.store(true, std::memory_order_release);
  for (auto& t : tasks) pool.wake(t.get());  // re-queue any early park
  // Bounded instead of wait_all(): a lost wakeup fails here, and the pool
  // (declared after the tasks) still shuts down cleanly before they die.
  EXPECT_TRUE(await_count(finished, kTasks, milliseconds(100000)))
      << finished.load() << " of " << kTasks << " tasks finished";
  if (finished.load() == kTasks) pool.wait_all();
}

TEST(EventPool, RingNeighboursShareAShard) {
  constexpr int kTasks = 256;
  constexpr int kShards = 4;
  std::atomic<int> finished{0};
  std::atomic<bool> go{false};
  EventPool pool(kShards);
  auto tasks = make_token_ring(&pool, kTasks, /*rounds=*/100, &finished, &go);
  std::vector<EventPool::Task*> batch;
  for (auto& t : tasks) batch.push_back(t.get());
  pool.submit(batch);
  int crossing = 0;
  for (int i = 0; i < kTasks; ++i) {
    const int home = tasks[static_cast<std::size_t>(i)]->home();
    EXPECT_EQ(home, i * kShards / kTasks) << "task " << i;
    if (home != tasks[static_cast<std::size_t>((i + 1) % kTasks)]->home()) ++crossing;
  }
  EXPECT_EQ(crossing, kShards);  // one edge out of each shard's run of ranks
  go.store(true, std::memory_order_release);
  for (auto& t : tasks) pool.wake(t.get());
  EXPECT_TRUE(await_count(finished, kTasks, milliseconds(100000)))
      << finished.load() << " of " << kTasks << " tasks finished";
  if (finished.load() == kTasks) pool.wait_all();
}

/// Parks every step with wake_at = now + its own delay and wakes a peer on
/// every other step. A peer's wake re-parks it with a later deadline while
/// its earlier timer entry is live or firing — the park that returns from
/// arm_timer before the timer mutex. Records how late each step ran
/// relative to the wake_at of the park before it.
class TimerRaceTask final : public EventPool::Task {
 public:
  TimerRaceTask(EventPool* pool, std::chrono::microseconds delay, int steps)
      : pool_(pool), delay_(delay), steps_(steps) {}
  void set_peer(TimerRaceTask* peer) { peer_ = peer; }

  StepResult step() override {
    const auto now = steady_clock::now();
    if (now > due_) max_late_ = std::max(max_late_, now - due_);
    if (!go->load(std::memory_order_acquire)) return {Status::kPark, kNever};
    if (++ran_ == steps_) {
      finished->fetch_add(1, std::memory_order_acq_rel);
      return {Status::kDone, kNever};
    }
    if (ran_ % 2 == 0) pool_->wake(peer_);
    due_ = now + delay_;
    return {Status::kPark, due_};
  }

  std::atomic<int>* finished = nullptr;
  const std::atomic<bool>* go = nullptr;
  steady_clock::duration max_late_{};

 private:
  EventPool* pool_;
  TimerRaceTask* peer_ = nullptr;
  std::chrono::microseconds delay_;
  int steps_;
  int ran_ = 0;
  steady_clock::time_point due_ = kNever;
};

TEST(EventPool, TimerFiringDuringALaterReparkLosesNoWake) {
  constexpr int kTasks = 48;
  constexpr int kSteps = 400;
  std::atomic<int> finished{0};
  std::atomic<bool> go{false};
  std::vector<std::unique_ptr<TimerRaceTask>> tasks;
  EventPool pool(4);
  for (int i = 0; i < kTasks; ++i) {
    // 50..750 us: timers come due while peers are re-parking.
    tasks.push_back(std::make_unique<TimerRaceTask>(
        &pool, std::chrono::microseconds(50 + 50 * (i % 15)), kSteps));
    tasks.back()->finished = &finished;
    tasks.back()->go = &go;
  }
  for (int i = 0; i < kTasks; ++i) {
    // Peers on other shards as well as the same one.
    tasks[static_cast<std::size_t>(i)]->set_peer(
        tasks[static_cast<std::size_t>((i * 7 + 5) % kTasks)].get());
  }
  std::vector<EventPool::Task*> batch;
  for (auto& t : tasks) batch.push_back(t.get());
  pool.submit(batch);
  go.store(true, std::memory_order_release);
  for (auto& t : tasks) pool.wake(t.get());

  // Every park's deadline is later than the one before it, so a task never
  // holds more than one heap entry, superseded or not.
  std::size_t max_pending = 0;
  const auto deadline = steady_clock::now() + milliseconds(100000);
  while (finished.load(std::memory_order_acquire) < kTasks && steady_clock::now() < deadline) {
    max_pending = std::max(max_pending, pool.timers_pending());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(finished.load(), kTasks) << "a timer wake was lost";
  pool.wait_all();  // orders the tasks' writes before the reads below
  EXPECT_LE(max_pending, static_cast<std::size_t>(kTasks));
  EXPECT_LE(pool.timers_pending(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    // Generous for sanitizer builds on a loaded host; a lost timer leaves
    // the task to its peer's next wake or, once the peer is done, forever.
    EXPECT_LT(tasks[static_cast<std::size_t>(i)]->max_late_, std::chrono::seconds(2))
        << "task " << i << " ran later than its wake_at";
  }
}

// ---------------------------------------------------------------------------
// Executor selection: explicit option > GENCOLL_EXECUTOR > kThreaded.
// ---------------------------------------------------------------------------

TEST(ExecutorSelect, ParsesKnownNamesCaseInsensitively) {
  EXPECT_EQ(parse_executor("event"), ExecutorKind::kEvent);
  EXPECT_EQ(parse_executor("EVENT"), ExecutorKind::kEvent);
  EXPECT_EQ(parse_executor("threaded"), ExecutorKind::kThreaded);
  EXPECT_EQ(parse_executor("Threaded"), ExecutorKind::kThreaded);
  EXPECT_EQ(parse_executor("bogus"), std::nullopt);
  EXPECT_EQ(parse_executor(""), std::nullopt);
}

TEST(ExecutorSelect, ResolutionChainHonorsOptionThenEnv) {
  ASSERT_EQ(unsetenv("GENCOLL_EXECUTOR"), 0);
  EXPECT_EQ(resolve_executor(std::nullopt), ExecutorKind::kThreaded);
  EXPECT_EQ(resolve_executor(ExecutorKind::kEvent), ExecutorKind::kEvent);

  ASSERT_EQ(setenv("GENCOLL_EXECUTOR", "event", 1), 0);
  EXPECT_EQ(resolve_executor(std::nullopt), ExecutorKind::kEvent);
  // The explicit option always beats the environment.
  EXPECT_EQ(resolve_executor(ExecutorKind::kThreaded), ExecutorKind::kThreaded);

  ASSERT_EQ(setenv("GENCOLL_EXECUTOR", "bogus", 1), 0);
  EXPECT_EQ(resolve_executor(std::nullopt), ExecutorKind::kThreaded);
  ASSERT_EQ(unsetenv("GENCOLL_EXECUTOR"), 0);
}

}  // namespace
}  // namespace gencoll::runtime
