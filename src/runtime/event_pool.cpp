#include "runtime/event_pool.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "util/env.hpp"
#include "util/logging.hpp"

namespace gencoll::runtime {

namespace {

thread_local EventPool* tl_worker_pool = nullptr;

}  // namespace

std::optional<ExecutorKind> parse_executor(std::string_view value) {
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "threaded") return ExecutorKind::kThreaded;
  if (v == "event") return ExecutorKind::kEvent;
  return std::nullopt;
}

ExecutorKind resolve_executor(std::optional<ExecutorKind> option) {
  if (option) return *option;
  if (const auto v = util::env_string("GENCOLL_EXECUTOR")) {
    if (const auto kind = parse_executor(*v)) return *kind;
    GENCOLL_LOG(kWarn) << "GENCOLL_EXECUTOR=\"" << *v
                       << "\" is not \"threaded\" or \"event\"; using threaded";
  }
  return ExecutorKind::kThreaded;
}

int EventPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::int64_t fallback = hw != 0 ? static_cast<std::int64_t>(hw) : 4;
  return static_cast<int>(
      util::env_int("GENCOLL_EVENT_WORKERS", fallback, 1, 1024));
}

EventPool::EventPool(int workers)
    : target_(workers > 0 ? workers : default_workers()),
      shards_(std::make_unique<Shard[]>(static_cast<std::size_t>(target_))) {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  workers_.reserve(static_cast<std::size_t>(target_));
  for (int i = 0; i < target_; ++i) spawn_worker_locked();
}

EventPool::~EventPool() {
  stop_.store(true);
  // A worker between its stop_ re-check and its wait holds sleep_mu_; taking
  // it here orders the notify after that worker is really waiting.
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  work_cv_.notify_all();
  // Compensation can append to workers_ concurrently with (earlier phases of)
  // shutdown, so drain in batches until the vector stays empty.
  for (;;) {
    std::vector<std::thread> batch;
    {
      std::lock_guard<std::mutex> lock(ctl_mu_);
      batch.swap(workers_);
    }
    if (batch.empty()) break;
    for (auto& th : batch) th.join();
  }
}

int EventPool::workers_spawned() const {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  return static_cast<int>(workers_.size());
}

std::size_t EventPool::timers_pending() const {
  std::lock_guard<std::mutex> lock(timer_mu_);
  return timers_.size();
}

EventPool* EventPool::current() { return tl_worker_pool; }

void EventPool::spawn_worker_locked() {
  const int home = static_cast<int>(workers_.size()) % target_;
  workers_.emplace_back([this, home] { worker_loop(home); });
}

void EventPool::push_locked(Shard& shard, Task* task) {
  task->state_ = Task::State::kQueued;
  shard.ready.push_back(task);
  // Sequentially consistent, paired with notify_sleeper()'s sleepers_ load
  // and sleep_until_work()'s registration: a sleeper misses this push only
  // if the producer sees it registered.
  shard.size.store(shard.ready.size());
}

void EventPool::notify_sleeper() {
  if (sleepers_.load() == 0) return;
  // A registered sleeper holds sleep_mu_ until it waits (or gives up), so
  // the notify below cannot slip in between its re-check and its wait.
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  work_cv_.notify_one();
}

void EventPool::submit(std::span<Task* const> tasks) {
  const std::size_t n = tasks.size();
  const auto shards = static_cast<std::size_t>(target_);
  live_tasks_.fetch_add(static_cast<int>(n));
  // Contiguous placement: one shard lock and one notify per run of tasks
  // that share a home.
  for (std::size_t i = 0; i < n;) {
    const std::size_t home = i * shards / n;
    Shard& shard = shards_[home];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (; i < n && i * shards / n == home; ++i) {
        tasks[i]->home_ = static_cast<int>(home);
        push_locked(shard, tasks[i]);
      }
    }
    notify_sleeper();
  }
}

void EventPool::wake(Task* task) {
  Shard& shard = shards_[static_cast<std::size_t>(task->home_)];
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    switch (task->state_) {
      case Task::State::kIdle:
        push_locked(shard, task);
        queued = true;
        break;
      case Task::State::kRunning:
        // Mid-run notification (e.g. a message landing between the task's
        // last empty poll and its park): remember it so the park re-queues
        // instead of sleeping through the event. Never enqueue a running
        // task — that would let two workers step it concurrently.
        task->state_ = Task::State::kRunningNotified;
        break;
      case Task::State::kQueued:
      case Task::State::kRunningNotified:
      case Task::State::kDone:
        break;  // already pending / already handled
    }
  }
  if (queued) notify_sleeper();
}

void EventPool::wait_all() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return live_tasks_.load() == 0; });
}

void EventPool::block_begin() {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  ++blocked_;
  // Keep the pool live while this worker stalls: if fewer than target_
  // workers remain unblocked, add one. blocked_ <= live_tasks_ (a blocked
  // worker is inside some task's step), so the target_ + live_tasks_ cap
  // never prevents a needed compensation thread.
  const int spawned = static_cast<int>(workers_.size());
  if (!stop_.load() && spawned - blocked_ < target_ &&
      spawned < target_ + live_tasks_.load()) {
    spawn_worker_locked();
  }
}

void EventPool::block_end() {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  --blocked_;
}

bool EventPool::any_ready() const {
  for (int i = 0; i < target_; ++i) {
    if (shards_[static_cast<std::size_t>(i)].size.load() != 0) return true;
  }
  return false;
}

EventPool::Task* EventPool::pop_any(int home) {
  for (int i = 0; i < target_; ++i) {
    Shard& shard = shards_[static_cast<std::size_t>((home + i) % target_)];
    // A stale zero only delays the pick-up: sleep_until_work() re-checks.
    if (shard.size.load(std::memory_order_relaxed) == 0) continue;
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.ready.empty()) continue;
    Task* task = shard.ready.front();
    shard.ready.pop_front();
    shard.size.store(shard.ready.size(), std::memory_order_relaxed);
    task->state_ = Task::State::kRunning;
    return task;
  }
  return nullptr;
}

void EventPool::sleep_until_work() {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleepers_.fetch_add(1);
  if (!stop_.load() && !any_ready()) {
    // Copied out: the heap top can change while we sleep; a producer that
    // arms an earlier deadline sees us registered and notifies.
    const auto next = next_deadline_.load();
    if (next == kNoDeadline) {
      work_cv_.wait(lock);
    } else if (Clock::now() < next) {
      work_cv_.wait_until(lock, next);
    }
  }
  sleepers_.fetch_sub(1);
}

void EventPool::publish_deadline_locked() {
  next_deadline_.store(timers_.empty() ? kNoDeadline : timers_.top().when);
}

void EventPool::arm_timer(Task* task, Clock::time_point when) {
  // One live entry per task: a later deadline keeps the earlier entry, which
  // at worst wakes the task early for a harmless re-poll. Checked without
  // the mutex: a live entry that fire_due_timers pops after this read still
  // wakes the task (header comment), so returning early loses nothing. Only
  // the worker running the task arms its timer, and fire_due_timers only
  // raises timer_at_, so a check that passes here still holds under the lock.
  if (when >= task->timer_at_.load(std::memory_order_relaxed)) return;
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    task->timer_at_.store(when, std::memory_order_relaxed);
    earliest = when < next_deadline_.load(std::memory_order_relaxed);
    timers_.push(TimerEntry{when, task});
    publish_deadline_locked();
  }
  // Sleepers wait_until the old heap top; one must re-evaluate.
  if (earliest) notify_sleeper();
}

void EventPool::fire_due_timers() {
  const auto next = next_deadline_.load(std::memory_order_acquire);
  if (next == kNoDeadline) return;
  const auto now = Clock::now();
  if (now < next) return;
  std::vector<Task*> due;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    while (!timers_.empty() && timers_.top().when <= now) {
      const TimerEntry entry = timers_.top();
      timers_.pop();
      // Superseded by an earlier entry that already fired or is still live.
      if (entry.task->timer_at_.load(std::memory_order_relaxed) != entry.when) continue;
      entry.task->timer_at_.store(kNoDeadline, std::memory_order_relaxed);
      due.push_back(entry.task);
    }
    publish_deadline_locked();
  }
  // Outside timer_mu_: wake() takes the home shard's mutex.
  for (Task* task : due) wake(task);
}

void EventPool::worker_loop(int home) {
  tl_worker_pool = this;
  while (!stop_.load(std::memory_order_acquire)) {
    fire_due_timers();
    Task* task = pop_any(home);
    if (task == nullptr) {
      sleep_until_work();
      continue;
    }
    const Task::StepResult result = task->step();
    // Armed while the task is still kRunning, so no other worker can be
    // parking it concurrently; a timer firing before the transition below
    // just marks it notified.
    if (result.status == Task::Status::kPark && result.wake_at != kNoDeadline) {
      arm_timer(task, result.wake_at);
    }
    Shard& shard = shards_[static_cast<std::size_t>(task->home_)];
    bool queued = false;
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      switch (result.status) {
        case Task::Status::kDone:
          task->state_ = Task::State::kDone;
          done = true;
          break;
        case Task::Status::kYield:
          push_locked(shard, task);
          queued = true;
          break;
        case Task::Status::kPark:
          if (task->state_ == Task::State::kRunningNotified) {
            // An event raced the park: run again rather than sleeping.
            push_locked(shard, task);
            queued = true;
          } else {
            task->state_ = Task::State::kIdle;
          }
          break;
      }
    }
    if (queued) notify_sleeper();
    if (done && live_tasks_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_all();
    }
  }
}

}  // namespace gencoll::runtime
