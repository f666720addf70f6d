// Tag-matched mailbox: the delivery endpoint of one rank.
//
// Sends are buffered (the payload is copied into the mailbox: into the
// Message itself for payloads of at most kInlinePayloadBytes on the plain
// transport, into BufferPool storage otherwise), so a send never blocks —
// this mirrors MPI's eager protocol for the message sizes the tests exercise
// and guarantees that schedule execution cannot deadlock on send ordering.
// Receives block until a message with matching (source, tag) arrives, with
// a deadline so broken schedules fail tests instead of hanging.
//
// Fault integration (src/fault/):
//   * A message may carry a deliver_at timestamp (injected delivery delay);
//     match() ignores it until that instant passes. Among *available*
//     matches delivery stays FIFO in post order (MPI non-overtaking); a
//     delayed message can be overtaken — the reliable transport's sequence
//     numbers restore ordering above this layer.
//   * When the owning World's AbortFlag is raised, every blocked match()
//     wakes immediately and throws FaultError(kAborted) — the fail-fast
//     path that replaces waiting out the full receive deadline after a peer
//     rank has died.
//   * Timeouts throw gencoll::FaultError (kind kTimeout), a subclass of the
//     std::runtime_error this class threw historically.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "fault/abort.hpp"
#include "fault/recovery.hpp"
#include "runtime/buffer_pool.hpp"

namespace gencoll::runtime {

/// Readiness hook for the event executor: a mailbox with a waiter attached
/// calls on_mailbox_event() after every post() and interrupt(), outside the
/// mailbox lock. The event engine points this at the owning rank's parked
/// task so a deposit (or an abort/revoke poison) re-queues it instead of
/// being discovered only at the next deadline poll.
class MailboxWaiter {
 public:
  virtual void on_mailbox_event() = 0;

 protected:
  ~MailboxWaiter() = default;
};

/// Largest payload the plain transport carries inside the Message (see
/// Message::set_inline). Small-message collectives — a k-ring round at large
/// p moves a few bytes per message — then never touch the BufferPool.
inline constexpr std::size_t kInlinePayloadBytes = 64;

struct Message {
  int source = -1;
  int tag = 0;
  /// Membership epoch the message was posted under (runtime/membership.hpp).
  /// Epoch-aware matches discard messages from older epochs — the "drain
  /// in-flight stale traffic" half of the shrink protocol. 0 = the initial
  /// epoch, which every pre-shrink (and every kAbort-mode) message carries.
  int epoch = 0;
  /// Transport mode flags, packed beside the header ints. At most one of
  /// zero_copy / is_inline is set; `inline_size` is meaningful only when
  /// `is_inline`.
  bool zero_copy = false;
  bool is_inline = false;
  std::uint8_t inline_size = 0;
  /// Earliest instant match() may hand the message out; the epoch default
  /// means "immediately". Set by fault-injected delivery delays.
  std::chrono::steady_clock::time_point deliver_at{};
  /// Owned payload bytes: pool-recycled storage on the hot path, adopted
  /// heap vectors on the fault-envelope paths. Empty for zero-copy and
  /// inline sends.
  PoolBuffer payload;
  /// The zero-copy window and the inline bytes are never both live, and
  /// both are trivially copyable, so they share storage.
  union {
    /// Zero-copy fast path (set_view): a non-owning window into the
    /// *sender's* registered buffer. Valid only under the executor's
    /// zero-copy contract (the sender provably does not touch the range
    /// until the matched receive completes — src/check/hazards.cpp
    /// classifies which schedules qualify).
    std::span<const std::byte> view{};
    /// Small-payload fast path (set_inline, plain transport only): the
    /// bytes travel in the Message itself.
    std::array<std::byte, kInlinePayloadBytes> inline_bytes;
  };

  /// Point the Message at the sender's bytes (zero-copy).
  void set_view(std::span<const std::byte> data) {
    zero_copy = true;
    view = data;
  }

  /// Copy `data` (at most kInlinePayloadBytes) into the Message.
  void set_inline(std::span<const std::byte> data) {
    is_inline = true;
    inline_size = static_cast<std::uint8_t>(data.size());
    // Starts the array's lifetime in the shared storage; not zero-filled.
    auto* bytes = ::new (static_cast<void*>(&inline_bytes))
        std::array<std::byte, kInlinePayloadBytes>;
    if (!data.empty()) std::memcpy(bytes->data(), data.data(), data.size());
  }

  /// The payload bytes regardless of transport mode.
  [[nodiscard]] std::span<const std::byte> bytes() const {
    if (zero_copy) return view;
    if (is_inline) return {inline_bytes.data(), inline_size};
    return payload.span();
  }
  [[nodiscard]] std::size_t size() const { return bytes().size(); }
};

// Four Messages per std::deque node (libstdc++ nodes are 512 B): the header
// ints and flags pack into 16 B, the inline bytes share the view's storage.
static_assert(sizeof(Message) <= 120, "Message outgrew four per deque node");

class Mailbox {
 public:
  /// Deposit a message (called by the sending rank's thread).
  void post(Message message);

  /// Block until a message from `source` with `tag` is available (posted and
  /// past its deliver_at), remove it from the queue, and return it. Matching
  /// is by exact (source, tag); among available matches, delivery is FIFO in
  /// post order (MPI non-overtaking). Throws FaultError(kTimeout) on
  /// deadline expiry and FaultError(kAborted) when the abort flag raises.
  /// `self_rank` only labels the thrown errors (-1 = unknown).
  ///
  /// `epoch` is the caller's membership epoch: queued (source, tag) messages
  /// from an *older* epoch are silently discarded (stale stragglers from
  /// before a shrink must not corrupt the retry), newer ones are left for a
  /// future epoch-advanced caller, and only an equal-epoch message matches.
  /// When a RevokeFlag is attached and the caller's epoch is revoked, the
  /// wait wakes with FaultError(kRevoked) — the recovery driver's signal to
  /// join the survivor agreement.
  Message match(int source, int tag, std::chrono::milliseconds timeout,
                int self_rank = -1, int epoch = 0);

  struct TryMatchResult {
    /// The delivered message, or nullopt when nothing is deliverable now.
    std::optional<Message> message;
    /// When empty-handed: earliest deliver_at among queued matches still held
    /// back by an injected delay, time_point::max() if none. The event
    /// executor parks until min(this, its receive deadline).
    std::chrono::steady_clock::time_point earliest_future =
        std::chrono::steady_clock::time_point::max();
  };

  /// One non-blocking matching pass with exactly the semantics of match():
  /// same abort/revoke throws, same stale-epoch discard, same FIFO pick among
  /// deliverable messages — but instead of waiting it returns empty-handed.
  TryMatchResult try_match(int source, int tag, int self_rank = -1,
                           int epoch = 0);

  /// Non-blocking probe: true if a matching message is queued (regardless of
  /// deliver_at).
  bool probe(int source, int tag);

  /// Remove every queued (source, tag) message whose payload satisfies
  /// `pred`, regardless of deliver_at; returns the number removed. The
  /// reliable transport uses this to clear stale acks and duplicate data so
  /// recovered channels drain toward pending() == 0 (the final retransmission
  /// of a channel can linger until the next receive on it).
  std::size_t drain_matching(int source, int tag,
                             const std::function<bool(std::span<const std::byte>)>& pred);

  /// Number of queued (undelivered) messages; used by leak checks in tests.
  std::size_t pending() const;

  /// Remove every queued message whose epoch is older than `epoch`; returns
  /// the number removed. The World purges all mailboxes when a new epoch is
  /// installed so stale-epoch traffic cannot linger as pending() leaks.
  std::size_t purge_stale(int epoch);

  /// Attach the World's abort poison (non-owning; may be nullptr). Called
  /// once before any rank thread runs.
  void set_abort_flag(const fault::AbortFlag* abort) { abort_ = abort; }

  /// Attach the World's epoch-versioned revoke poison (non-owning; may be
  /// nullptr). Called once before any rank thread runs.
  void set_revoke_flag(const fault::RevokeFlag* revoke) { revoke_ = revoke; }

  /// Wake all blocked match() calls so they re-check the abort/revoke flags.
  void interrupt();

  /// Attach (or with nullptr detach) the event-executor readiness hook. The
  /// waiter must outlive every post()/interrupt() that can still observe it;
  /// the event engine guarantees this by detaching before a task finishes
  /// and joining all tasks before teardown.
  void set_waiter(MailboxWaiter* waiter);

 private:
  /// Requires mu_. One matching scan: discards stale-epoch (source, tag)
  /// matches, returns the first deliverable match or queue_.end(), and
  /// records the earliest future deliver_at among delay-held matches.
  std::deque<Message>::iterator find_locked(
      int source, int tag, int epoch, std::chrono::steady_clock::time_point now,
      std::chrono::steady_clock::time_point& earliest_future);

  /// Requires mu_. Throws kAborted / kRevoked when the attached flags say so
  /// (identically for the blocking and non-blocking match paths).
  void throw_if_poisoned_locked(int self_rank, int source, int tag,
                                int epoch) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// match() calls blocked on cv_ (guarded by mu_). post() notifies only
  /// when it is nonzero: event-engine tasks never wait on cv_, so their
  /// deposits skip the notify; interrupt() always notifies.
  int blocked_matchers_ = 0;
  std::deque<Message> queue_;
  const fault::AbortFlag* abort_ = nullptr;
  const fault::RevokeFlag* revoke_ = nullptr;
  MailboxWaiter* waiter_ = nullptr;  ///< guarded by mu_; invoked outside it
};

}  // namespace gencoll::runtime
