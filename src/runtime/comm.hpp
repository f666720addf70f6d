// Communicator: one rank's handle onto the shared World.
//
// This is the MPI-like point-to-point surface the collectives are executed
// against. Sends are buffered/non-blocking; receives block with a deadline.
//
// Reliability (src/fault/): when the World enables it, every payload travels
// in a sequence-numbered, CRC32-checksummed envelope (fault/envelope.hpp)
// and each delivery is confirmed by an ack. The destination-NIC logic
// (checksum verification, ack/nack generation) runs synchronously inside
// send() on the sender's thread — the mailbox transport is in-process, so
// "the other NIC" is just code; crucially acks never depend on the *receiver
// thread's* progress, which keeps buffered-send semantics deadlock-free.
// Lost or NACKed deliveries are retransmitted with capped exponential
// backoff; exhausted retries, checksum failures, deadline expiry, and abort
// poison all surface as typed gencoll::FaultError — never a silent hang or a
// wrong answer. Receivers discard duplicates and reorder delayed messages by
// sequence number, restoring per-channel FIFO above the fault layer.
//
// Fault injection (fault/plan.hpp) interposes on every post: decisions are a
// pure function of (seed, src, dst, tag, seq, attempt), so a single uint64
// seed reproduces the whole fault sequence regardless of thread timing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "obs/trace.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/membership.hpp"

namespace gencoll::runtime {

class World;  // defined in world.hpp

/// Reliable-transport tuning. Enabled per World (all ranks uniform).
struct ReliabilityConfig {
  bool enabled = false;
  int max_retries = 10;  ///< retransmissions after the initial attempt
  std::chrono::milliseconds ack_timeout{10};      ///< first ack wait
  double backoff_factor = 2.0;                    ///< ack wait growth per retry
  std::chrono::milliseconds max_ack_timeout{200};  ///< backoff cap
};

// Pure receive-side rule of the reliable transport. Communicator::
// reliable_recv executes this for every arriving envelope; the transport
// protocol model in src/verify/ executes the same function, so the
// dedup/reorder contract cannot drift between the runtime and the checker.
namespace transport_rules {

enum class RecvVerdict {
  kDeliver,    ///< seq == expected: hand to the app, bump expected
  kDuplicate,  ///< seq < expected: already delivered — discard
  kStash,      ///< seq > expected: early arrival — hold until its turn
};

/// Classify an in-sequence-space arrival. `expected` is the next sequence
/// number the app has not yet seen on this channel.
constexpr RecvVerdict classify_arrival(std::uint32_t seq, std::uint32_t expected) {
  if (seq < expected) return RecvVerdict::kDuplicate;
  if (seq > expected) return RecvVerdict::kStash;
  return RecvVerdict::kDeliver;
}

}  // namespace transport_rules

/// Per-communicator reliability counters (single-threaded: each rank thread
/// owns its Communicator).
struct ReliabilityStats {
  std::uint64_t data_sends = 0;      ///< successful reliable send() calls
  std::uint64_t retransmits = 0;     ///< extra attempts beyond the first
  std::uint64_t nacks = 0;           ///< checksum rejects observed as sender
  std::uint64_t dup_discards = 0;    ///< duplicate data discarded as receiver
  std::uint64_t reordered = 0;       ///< messages stashed out of order
  std::uint64_t stale_acks = 0;      ///< acks for superseded attempts
};

class Communicator {
 public:
  Communicator(World* world, int rank);

  /// This rank's id in the *current epoch's dense rank space* — the space
  /// schedules are built over. Identical to world_rank() until a shrink
  /// recovery renumbers the survivors (apply_epoch).
  [[nodiscard]] int rank() const { return dense_rank_; }
  /// This rank's immutable original World rank (mailbox index, fault-plan
  /// target, obs lane).
  [[nodiscard]] int world_rank() const { return rank_; }
  /// Current epoch size: the survivor count after shrinks, World::size()
  /// before any.
  [[nodiscard]] int size() const;
  /// Membership epoch this communicator operates under. Stamped on every
  /// posted message so stale-epoch stragglers are discarded at match time.
  [[nodiscard]] int epoch() const { return epoch_; }

  /// Enter a freshly agreed epoch (runtime/membership.hpp): adopt its dense
  /// rank numbering and reset the per-channel reliable-transport sequence
  /// state — every survivor applies the same view after the agreement, so
  /// both ends of each channel restart at sequence 0 together. Throws
  /// FaultError(kRankDeath) when this rank is not in the survivor set.
  void apply_epoch(const EpochView& view);

  /// Buffered send: copies `data` and returns without waiting for the
  /// receiver thread. On the plain transport a payload of at most
  /// kInlinePayloadBytes is copied into the Message itself; anything else
  /// goes into pool-recycled storage (no heap allocation in steady state).
  /// With reliability enabled it additionally confirms transport-level
  /// delivery (retransmitting as needed) and throws
  /// FaultError(kRetriesExhausted) when the channel stays dead.
  void send(int dest, int tag, std::span<const std::byte> data);

  /// Zero-copy send: posts a non-owning view of `data` instead of copying.
  /// The caller guarantees the bytes stay untouched until the receiver
  /// consumes the matched message — the contract src/check/hazards.cpp
  /// proves per schedule (zero_copy_races == 0). Falls back to the copying
  /// send when the transport is not plain (reliability or fault injection
  /// active), so it is always semantically safe to call.
  void send_view(int dest, int tag, std::span<const std::byte> data);

  /// Hot-path receive: matches the (source, tag) message and returns it
  /// whole, payload uncopied — the caller reads Message::bytes() directly
  /// (zero-copy views point into the sender's buffer; pooled payloads
  /// recycle when the Message dies). The payload must have exactly
  /// `expected` bytes or FaultError(kSizeMismatch) is thrown. Reliability
  /// falls back to the enveloped path (header already stripped).
  Message recv_msg(int source, int tag, std::size_t expected);

  /// Non-blocking receive poll for the event executor (core/event_exec.cpp).
  struct TryRecv {
    /// The matched message (reliability header already stripped), or nullopt
    /// when nothing is deliverable yet.
    std::optional<Message> message;
    /// When empty-handed: earliest injected deliver_at among queued matches,
    /// time_point::max() if none — the task parks until min(this, deadline).
    std::chrono::steady_clock::time_point earliest_future =
        std::chrono::steady_clock::time_point::max();
  };

  /// One poll with recv_msg() semantics but no wait. `first_poll` must be
  /// true exactly once per logical receive — on the first poll of each
  /// segment — so the injected-crash op countdown (crash_check) advances
  /// identically to the blocking path and chaos runs stay bit-exact across
  /// executors. Throws everything recv_msg() throws except kTimeout (the
  /// caller owns the deadline).
  TryRecv try_recv_msg(int source, int tag, std::size_t expected,
                       bool first_poll);

  /// Blocking receive into `out`. The matched message's payload must have
  /// exactly out.size() bytes (collective schedules know sizes precisely; a
  /// mismatch indicates a schedule bug and throws FaultError(kSizeMismatch)
  /// naming source, tag, and both byte counts).
  void recv(int source, int tag, std::span<std::byte> out);

  /// Blocking receive returning the payload (size determined by sender).
  std::vector<std::byte> recv_any_size(int source, int tag);

  /// Simultaneous exchange helper (no deadlock: sends are buffered).
  void sendrecv(int dest, int send_tag, std::span<const std::byte> send_data,
                int source, int recv_tag, std::span<std::byte> recv_out);

  /// Rendezvous with all ranks in the world.
  void barrier();

  /// Deadline applied to every blocking receive. The default comes from the
  /// World (WorldOptions / GENCOLL_RECV_TIMEOUT_MS / 60 s).
  void set_recv_timeout(std::chrono::milliseconds timeout) { timeout_ = timeout; }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const { return timeout_; }

  /// Reliability events (retransmit / corrupt-detected / abort instants) are
  /// emitted into `sink` on this rank's lane. nullptr disables. Not owned.
  void set_trace_sink(obs::TraceSink* sink) { sink_ = sink; }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return sink_; }

  [[nodiscard]] const ReliabilityStats& stats() const { return stats_; }

  /// True when neither reliability nor fault injection interposes on the
  /// transport — the precondition for the zero-copy and pipelined fast
  /// paths (uniform across ranks: both come from WorldOptions).
  [[nodiscard]] bool plain_transport() const {
    return !rel_.enabled && plan_ == nullptr;
  }

  /// The World this communicator belongs to (non-owning). The hierarchical
  /// executor uses it to reach the rank's shared-segment group
  /// (World::shm_group, runtime/shm_group.hpp).
  [[nodiscard]] World& world() { return *world_; }

 private:
  /// Channel key for per-(peer, tag) sequence bookkeeping.
  static std::uint64_t channel_key(int peer, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Injected-crash bookkeeping: dies (abort + throw) when this rank's
  /// FaultPlan crash point is reached. Called on every p2p operation.
  void crash_check(int peer, int tag);

  /// Mailbox index of a dense-rank peer (identity before any shrink).
  [[nodiscard]] int orig_of(int dense) const {
    return dense_to_orig_.empty() ? dense
                                  : dense_to_orig_[static_cast<std::size_t>(dense)];
  }

  void reliable_send(int dest, int tag, std::span<const std::byte> data);
  /// Returns the next in-sequence *envelope* (header included — the caller
  /// skips fault::kDataHeaderBytes) so the hot path moves the matched buffer
  /// instead of copying the payload out of it.
  std::vector<std::byte> reliable_recv(int source, int tag);
  /// Non-blocking reliable_recv: drains whatever is deliverable now through
  /// the same classify/dedup/stash rules (shared per-channel state, so
  /// blocking and polled receives compose), returning the next in-sequence
  /// envelope or nullopt. `earliest_future` as in Mailbox::TryMatchResult.
  std::optional<std::vector<std::byte>> poll_reliable_recv(
      int source, int tag, std::chrono::steady_clock::time_point& earliest_future);
  void emit_instant(obs::InstantKind kind, int peer, int tag, std::size_t bytes);

  World* world_;  // non-owning; World outlives its Communicators
  int rank_;            ///< original World rank (immutable)
  int dense_rank_;      ///< rank in the current epoch's dense space
  int epoch_ = 0;       ///< current membership epoch
  /// dense rank -> original rank for the current epoch; empty = identity.
  std::vector<int> dense_to_orig_;
  std::chrono::milliseconds timeout_{std::chrono::seconds(60)};
  obs::TraceSink* sink_ = nullptr;

  // Fault/reliability state (all owned by this rank's thread).
  const fault::FaultPlan* plan_ = nullptr;  // nullptr = no injection
  // Corrupted envelopes can only exist when the plan injects bit-flips; the
  // receiver's checksum pass is skipped otherwise (NIC-offload semantics).
  bool recv_verify_crc_ = false;
  ReliabilityConfig rel_;
  ReliabilityStats stats_;
  std::uint64_t ops_done_ = 0;  ///< p2p ops executed (crash countdown)
  std::unordered_map<std::uint64_t, std::uint32_t> send_seq_;
  std::unordered_map<std::uint64_t, std::uint32_t> recv_expected_;
  // Out-of-order data stashed per channel until its sequence number is due.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint32_t, std::vector<std::byte>>>
      reorder_;
};

}  // namespace gencoll::runtime
