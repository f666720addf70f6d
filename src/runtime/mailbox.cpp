#include "runtime/mailbox.hpp"

#include <algorithm>
#include <string>

#include "fault/error.hpp"

namespace gencoll::runtime {

void Mailbox::post(Message message) {
  MailboxWaiter* waiter = nullptr;
  bool blocked = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(message));
    waiter = waiter_;
    // A matcher registers under mu_ before it waits, so one that has not
    // registered yet will see this message in its next scan.
    blocked = blocked_matchers_ > 0;
  }
  if (blocked) cv_.notify_all();
  // Outside mu_: the waiter re-enters the event pool's lock and must never
  // nest inside the mailbox lock (and vice versa).
  if (waiter != nullptr) waiter->on_mailbox_event();
}

void Mailbox::throw_if_poisoned_locked(int self_rank, int source, int tag,
                                       int epoch) const {
  if (abort_ != nullptr && abort_->raised()) {
    throw FaultError(FaultKind::kAborted, self_rank, source, tag,
                     "abort raised by rank " + std::to_string(abort_->source_rank()) +
                         " (" + abort_->reason() + ")");
  }
  if (revoke_ != nullptr && revoke_->revoked(epoch)) {
    throw FaultError(FaultKind::kRevoked, self_rank, source, tag,
                     "epoch " + std::to_string(epoch) + " revoked by rank " +
                         std::to_string(revoke_->source_rank()) + " (" +
                         revoke_->reason() + ")");
  }
}

std::deque<Message>::iterator Mailbox::find_locked(
    int source, int tag, int epoch, std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point& earliest_future) {
  for (auto cur = queue_.begin(); cur != queue_.end();) {
    if (cur->source != source || cur->tag != tag || cur->epoch > epoch) {
      ++cur;
      continue;
    }
    if (cur->epoch < epoch) {
      // Stale straggler from a pre-shrink epoch: discard, never deliver.
      cur = queue_.erase(cur);
      continue;
    }
    if (cur->deliver_at <= now) return cur;
    earliest_future = std::min(earliest_future, cur->deliver_at);
    ++cur;
  }
  return queue_.end();
}

Message Mailbox::match(int source, int tag, std::chrono::milliseconds timeout,
                       int self_rank, int epoch) {
  using clock = std::chrono::steady_clock;
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = clock::now() + timeout;

  for (;;) {
    throw_if_poisoned_locked(self_rank, source, tag, epoch);
    const auto now = clock::now();
    auto earliest_future = clock::time_point::max();
    const auto it = find_locked(source, tag, epoch, now, earliest_future);
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    if (now >= deadline) {
      throw FaultError(FaultKind::kTimeout, self_rank, source, tag,
                       "Mailbox::match timed out after " +
                           std::to_string(timeout.count()) + " ms (" +
                           std::to_string(queue_.size()) + " unmatched message(s) queued)");
    }
    ++blocked_matchers_;
    cv_.wait_until(lock, std::min(deadline, earliest_future));
    --blocked_matchers_;
  }
}

Mailbox::TryMatchResult Mailbox::try_match(int source, int tag, int self_rank,
                                           int epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  throw_if_poisoned_locked(self_rank, source, tag, epoch);
  TryMatchResult result;
  const auto it = find_locked(source, tag, epoch,
                              std::chrono::steady_clock::now(),
                              result.earliest_future);
  if (it != queue_.end()) {
    result.message = std::move(*it);
    queue_.erase(it);
  }
  return result;
}

bool Mailbox::probe(int source, int tag) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag;
  });
}

std::size_t Mailbox::drain_matching(
    int source, int tag, const std::function<bool(std::span<const std::byte>)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = queue_.size();
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [&](const Message& m) {
                                return m.source == source && m.tag == tag &&
                                       pred(m.bytes());
                              }),
               queue_.end());
  return before - queue_.size();
}

std::size_t Mailbox::purge_stale(int epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = queue_.size();
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [epoch](const Message& m) { return m.epoch < epoch; }),
               queue_.end());
  return before - queue_.size();
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Mailbox::interrupt() {
  MailboxWaiter* waiter = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiter = waiter_;
  }
  cv_.notify_all();
  // A parked task must also re-poll on abort/revoke poison, not only on
  // deposits: its next try_match throws the poison instead of sleeping out
  // the receive deadline.
  if (waiter != nullptr) waiter->on_mailbox_event();
}

void Mailbox::set_waiter(MailboxWaiter* waiter) {
  std::lock_guard<std::mutex> lock(mu_);
  waiter_ = waiter;
}

}  // namespace gencoll::runtime
