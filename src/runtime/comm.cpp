#include "runtime/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/envelope.hpp"
#include "fault/mutation.hpp"
#include "runtime/event_pool.hpp"
#include "runtime/world.hpp"

namespace gencoll::runtime {

namespace {

using steady_clock = std::chrono::steady_clock;

std::chrono::milliseconds remaining_ms(steady_clock::time_point deadline) {
  const auto left = deadline - steady_clock::now();
  return std::max(std::chrono::milliseconds(0),
                  std::chrono::ceil<std::chrono::milliseconds>(left));
}

void flip_bit(std::span<std::byte> wire, std::uint64_t bit_index) {
  if (wire.empty()) return;
  const std::uint64_t bit = bit_index % (wire.size() * 8);
  wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

}  // namespace

Communicator::Communicator(World* world, int rank)
    : world_(world), rank_(rank), dense_rank_(rank) {
  if (world == nullptr) throw std::invalid_argument("Communicator: null world");
  if (rank < 0 || rank >= world->size()) {
    throw std::out_of_range("Communicator: rank out of range");
  }
  timeout_ = world->recv_timeout();
  plan_ = world->options().fault_plan;
  recv_verify_crc_ = plan_ != nullptr && plan_->corrupt_prob > 0.0;
  rel_ = world->options().reliability;
}

int Communicator::size() const {
  return dense_to_orig_.empty() ? world_->size()
                                : static_cast<int>(dense_to_orig_.size());
}

void Communicator::apply_epoch(const EpochView& view) {
  const int dense = view.dense_rank(rank_);
  if (dense < 0) {
    throw FaultError(FaultKind::kRankDeath, rank_, -1, -1,
                     "apply_epoch: rank " + std::to_string(rank_) +
                         " is not in epoch " + std::to_string(view.epoch) +
                         "'s survivor set");
  }
  epoch_ = view.epoch;
  dense_rank_ = dense;
  dense_to_orig_ = view.survivors;
  // Both ends of every channel restart at sequence 0 in the new epoch. The
  // agreement is the synchronization point — all survivors pass through it
  // before any new-epoch traffic — and stale wire traffic (including acks,
  // which are sender-thread generated and would otherwise desync the
  // sequence counters) is discarded by its epoch stamp.
  send_seq_.clear();
  recv_expected_.clear();
  reorder_.clear();
}

void Communicator::crash_check(int peer, int tag) {
  const std::uint64_t op = ops_done_++;
  if (plan_ == nullptr) return;
  const fault::RankCrash* crash = plan_->crash_for(rank_);
  if (crash == nullptr || op < static_cast<std::uint64_t>(crash->after_ops)) return;
  const std::string reason = "injected crash at rank " + std::to_string(rank_) +
                             " after " + std::to_string(crash->after_ops) + " op(s)";
  if (world_->crash_policy() == fault::CrashPolicy::kShrink) {
    // Elastic mode: this death revokes the epoch instead of poisoning the
    // World — survivors wake with kRevoked, agree, shrink, and retry.
    emit_instant(obs::InstantKind::kRevoke, peer, tag, 0);
    world_->announce_death(rank_, reason);
  } else {
    emit_instant(obs::InstantKind::kAbort, peer, tag, 0);
    world_->abort(rank_, reason);
  }
  throw FaultError(FaultKind::kRankDeath, rank_, peer, tag, reason);
}

void Communicator::emit_instant(obs::InstantKind kind, int peer, int tag,
                                std::size_t bytes) {
  if (sink_ == nullptr) return;
  obs::InstantEvent ev;
  ev.kind = kind;
  ev.rank = rank_;
  ev.peer = peer;
  ev.tag = tag;
  ev.bytes = bytes;
  ev.time_us = obs::wallclock_us();
  sink_->instant(ev);
}

void Communicator::send(int dest, int tag, std::span<const std::byte> data) {
  if (dest < 0 || dest >= size()) {
    throw std::out_of_range("send: destination rank out of range");
  }
  if (rel_.enabled && (tag < 0 || (tag & fault::kAckTagBit) != 0)) {
    throw std::invalid_argument(
        "send: tag collides with the reliability ack channel (bit 26 reserved)");
  }
  crash_check(dest, tag);
  if (plan_ != nullptr) {
    if (const fault::SlowRank* slow = plan_->slow_for(rank_); slow != nullptr) {
      // Time-bounded stall, not peer-dependent — safe to sleep through, but
      // let an event pool compensate while this worker naps.
      BlockingGuard guard;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(slow->stall_us));
    }
  }

  if (rel_.enabled) {
    reliable_send(dest, tag, data);
    return;
  }

  Message m;
  m.source = dense_rank_;
  m.tag = tag;
  m.epoch = epoch_;
  if (plan_ == nullptr && data.size() <= kInlinePayloadBytes) {
    // Plain transport, small payload: the bytes ride in the Message itself.
    m.set_inline(data);
    world_->mailbox(orig_of(dest)).post(std::move(m));
    return;
  }
  fault::FaultDecision d;
  if (plan_ != nullptr) {
    const std::uint32_t seq = send_seq_[channel_key(dest, tag)]++;
    d = fault::decide(*plan_, rank_, dest, tag, seq, 0, fault::MsgStream::kData);
  }
  if (d.drop) return;
  m.payload = world_->pool().acquire(data.size());
  if (!data.empty()) std::memcpy(m.payload.data(), data.data(), data.size());
  if (d.corrupt) flip_bit(m.payload.span(), d.corrupt_bit);
  if (d.delay_ms > 0.0) {
    m.deliver_at = steady_clock::now() +
                   std::chrono::duration_cast<steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(d.delay_ms));
  }
  Message copy;
  if (d.duplicate) {
    copy.source = m.source;
    copy.tag = m.tag;
    copy.epoch = m.epoch;
    copy.deliver_at = m.deliver_at;
    copy.payload = world_->pool().acquire(m.payload.size());
    if (!m.payload.empty()) {
      std::memcpy(copy.payload.data(), m.payload.data(), m.payload.size());
    }
  }
  world_->mailbox(orig_of(dest)).post(std::move(m));
  if (d.duplicate) world_->mailbox(orig_of(dest)).post(std::move(copy));
}

void Communicator::send_view(int dest, int tag, std::span<const std::byte> data) {
  if (!plain_transport()) {
    // Reliability/injection need ownership of the wire bytes (envelopes,
    // retransmits, bit-flips): take the copying path.
    send(dest, tag, data);
    return;
  }
  if (dest < 0 || dest >= size()) {
    throw std::out_of_range("send_view: destination rank out of range");
  }
  crash_check(dest, tag);
  Message m;
  m.source = dense_rank_;
  m.tag = tag;
  m.epoch = epoch_;
  m.set_view(data);
  world_->mailbox(orig_of(dest)).post(std::move(m));
}

void Communicator::reliable_send(int dest, int tag, std::span<const std::byte> data) {
  const std::uint32_t seq = send_seq_[channel_key(dest, tag)]++;
  const int atag = fault::ack_tag(tag);
  Mailbox& self_box = world_->mailbox(rank_);
  auto backoff = rel_.ack_timeout;
  // On the event executor this send may stall a worker in the ack wait below.
  // That wait depends only on *time* — acks are generated synchronously on
  // this thread ("destination-NIC logic" above) and injected delays/backoffs
  // are bounded — never on another task's progress, so blocking under
  // compensation is deadlock-free and keeps the retransmit protocol intact.
  BlockingGuard guard;

  for (int attempt = 0; attempt <= rel_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats_.retransmits;
      emit_instant(obs::InstantKind::kRetransmit, dest, tag, data.size());
    }

    // Wire leg: the data envelope passes the injector on its way to the
    // destination mailbox.
    fault::FaultDecision dd;
    if (plan_ != nullptr) {
      dd = fault::decide(*plan_, rank_, dest, tag, seq,
                         static_cast<std::uint32_t>(attempt), fault::MsgStream::kData);
    }
    bool arrived_intact = false;
    if (!dd.drop) {
      std::vector<std::byte> wire =
          fault::wrap_data(seq, static_cast<std::uint32_t>(attempt), data);
      // Destination-NIC checksum verdict decides ack vs nack below. A freshly
      // wrapped envelope is intact by construction; only an injected bit-flip
      // can break it, so the verifying pass runs only then.
      arrived_intact = true;
      if (dd.corrupt) {
        flip_bit(wire, dd.corrupt_bit);
        const fault::DataView verdict = fault::unwrap_data(wire);
        arrived_intact = verdict.header_ok && verdict.crc_ok;
      }
      const int copies = dd.duplicate ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        Message m;
        m.source = dense_rank_;
        m.tag = tag;
        m.epoch = epoch_;
        m.payload = c + 1 == copies ? std::move(wire) : std::vector<std::byte>(wire);
        if (dd.delay_ms > 0.0) {
          m.deliver_at = steady_clock::now() +
                         std::chrono::duration_cast<steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(dd.delay_ms));
        }
        world_->mailbox(orig_of(dest)).post(std::move(m));
      }
      if (!arrived_intact) {
        emit_instant(obs::InstantKind::kCorruptDetected, dest, tag, data.size());
      }

      // Ack leg: the destination NIC's ack/nack travels back through the
      // injector too (it can be dropped or delayed, forcing retransmits and
      // duplicate deliveries — the receiver dedups by sequence number).
      fault::FaultDecision ad;
      if (plan_ != nullptr) {
        ad = fault::decide(*plan_, dest, rank_, tag, seq,
                           static_cast<std::uint32_t>(attempt), fault::MsgStream::kAck);
      }
      if (!ad.drop) {
        Message am;
        am.source = dest;
        am.tag = atag;
        // Acks carry the epoch too: a stale-epoch ack matched after a shrink
        // would otherwise satisfy a new-epoch attempt's verdict wait.
        am.epoch = epoch_;
        am.payload = fault::make_ack(seq, arrived_intact);
        if (ad.delay_ms > 0.0) {
          am.deliver_at = steady_clock::now() +
                          std::chrono::duration_cast<steady_clock::duration>(
                              std::chrono::duration<double, std::milli>(ad.delay_ms));
        }
        self_box.post(std::move(am));
      }
    }

    // Wait for the verdict with the current backoff budget.
    const auto deadline = steady_clock::now() + backoff;
    bool nacked = false;
    for (;;) {
      Message am;
      try {
        am = self_box.match(dest, atag, remaining_ms(deadline), rank_, epoch_);
      } catch (const FaultError& e) {
        if (e.kind() == FaultKind::kTimeout) break;  // lost ack -> retransmit
        throw;                                       // abort poison etc.
      }
      const fault::AckView av = fault::parse_ack(am.payload);
      if (!av.ok || av.seq != seq) {
        ++stats_.stale_acks;
        continue;
      }
      if (av.positive) {
        ++stats_.data_sends;
        // Clear late acks of earlier attempts so recovered runs drain clean.
        stats_.stale_acks += self_box.drain_matching(
            dest, atag, [seq](std::span<const std::byte> p) {
              const fault::AckView stale = fault::parse_ack(p);
              return !stale.ok || stale.seq <= seq;
            });
        return;
      }
      nacked = true;  // checksum reject at the destination -> retransmit now
      ++stats_.nacks;
      break;
    }
    (void)nacked;
    backoff = std::min(
        std::chrono::milliseconds(static_cast<std::int64_t>(
            static_cast<double>(backoff.count()) * rel_.backoff_factor)),
        rel_.max_ack_timeout);
    backoff = std::max(backoff, std::chrono::milliseconds(1));
  }
  throw FaultError(FaultKind::kRetriesExhausted, rank_, dest, tag,
                   "reliable send seq=" + std::to_string(seq) + " gave up after " +
                       std::to_string(rel_.max_retries + 1) + " attempt(s), " +
                       std::to_string(data.size()) + " bytes");
}

std::vector<std::byte> Communicator::reliable_recv(int source, int tag) {
  const std::uint64_t ch = channel_key(source, tag);
  std::uint32_t& expected = recv_expected_[ch];
  auto& stash = reorder_[ch];
  Mailbox& box = world_->mailbox(rank_);
  const bool verify = recv_verify_crc_;
  const auto deadline = steady_clock::now() + timeout_;

  const bool deliver_dups =
      fault::mutation_active(fault::ProtocolMutation::kSkipDupDiscard);

  const auto finish = [&](std::vector<std::byte> wire) {
    ++expected;
    // Best-effort sweep of duplicate / corrupted copies already queued, so
    // recovered channels drain toward pending() == 0.
    if (!deliver_dups) {
      stats_.dup_discards += box.drain_matching(
          source, tag, [&expected, verify](std::span<const std::byte> p) {
            const fault::DataView dv = fault::unwrap_data(p, verify);
            return !dv.header_ok || !dv.crc_ok || dv.seq < expected;
          });
    }
    return wire;
  };

  for (;;) {
    if (const auto it = stash.find(expected); it != stash.end()) {
      std::vector<std::byte> wire = std::move(it->second);
      stash.erase(it);
      return finish(std::move(wire));
    }
    const auto left = remaining_ms(deadline);
    if (left <= std::chrono::milliseconds(0) && !box.probe(source, tag)) {
      throw FaultError(FaultKind::kTimeout, rank_, source, tag,
                       "reliable recv deadline expired waiting for seq=" +
                           std::to_string(expected));
    }
    Message m = box.match(source, tag, left, rank_, epoch_);
    const fault::DataView v = fault::unwrap_data(m.bytes(), verify);
    if (!v.header_ok || !v.crc_ok) {
      // End-to-end corruption that slipped past (or was rejected by) the
      // destination NIC: discard and wait for the retransmission.
      emit_instant(obs::InstantKind::kCorruptDetected, source, tag, m.size());
      continue;
    }
    switch (transport_rules::classify_arrival(v.seq, expected)) {
      case transport_rules::RecvVerdict::kDuplicate:
        if (deliver_dups) {
          // Mutation (src/fault/mutation.hpp): hand the already-delivered
          // envelope to the app as if it were the next in sequence.
          return finish(std::move(m.payload).take());
        }
        ++stats_.dup_discards;
        continue;
      case transport_rules::RecvVerdict::kStash:
        ++stats_.reordered;
        stash.emplace(v.seq, std::move(m.payload).take());
        continue;
      case transport_rules::RecvVerdict::kDeliver:
        break;
    }
    return finish(std::move(m.payload).take());
  }
}

std::optional<std::vector<std::byte>> Communicator::poll_reliable_recv(
    int source, int tag, steady_clock::time_point& earliest_future) {
  const std::uint64_t ch = channel_key(source, tag);
  std::uint32_t& expected = recv_expected_[ch];
  auto& stash = reorder_[ch];
  Mailbox& box = world_->mailbox(rank_);
  const bool verify = recv_verify_crc_;
  const bool deliver_dups =
      fault::mutation_active(fault::ProtocolMutation::kSkipDupDiscard);

  // Same completion sweep as reliable_recv::finish — the two paths share the
  // per-channel expected/stash state, so they must also share its upkeep.
  const auto finish = [&](std::vector<std::byte> wire) {
    ++expected;
    if (!deliver_dups) {
      stats_.dup_discards += box.drain_matching(
          source, tag, [&expected, verify](std::span<const std::byte> p) {
            const fault::DataView dv = fault::unwrap_data(p, verify);
            return !dv.header_ok || !dv.crc_ok || dv.seq < expected;
          });
    }
    return wire;
  };

  for (;;) {
    if (const auto it = stash.find(expected); it != stash.end()) {
      std::vector<std::byte> wire = std::move(it->second);
      stash.erase(it);
      return finish(std::move(wire));
    }
    auto r = box.try_match(source, tag, rank_, epoch_);
    if (!r.message) {
      earliest_future = r.earliest_future;
      return std::nullopt;
    }
    Message m = std::move(*r.message);
    const fault::DataView v = fault::unwrap_data(m.bytes(), verify);
    if (!v.header_ok || !v.crc_ok) {
      emit_instant(obs::InstantKind::kCorruptDetected, source, tag, m.size());
      continue;
    }
    switch (transport_rules::classify_arrival(v.seq, expected)) {
      case transport_rules::RecvVerdict::kDuplicate:
        if (deliver_dups) return finish(std::move(m.payload).take());
        ++stats_.dup_discards;
        continue;
      case transport_rules::RecvVerdict::kStash:
        ++stats_.reordered;
        stash.emplace(v.seq, std::move(m.payload).take());
        continue;
      case transport_rules::RecvVerdict::kDeliver:
        break;
    }
    return finish(std::move(m.payload).take());
  }
}

Communicator::TryRecv Communicator::try_recv_msg(int source, int tag,
                                                 std::size_t expected,
                                                 bool first_poll) {
  if (source < 0 || source >= size()) {
    throw std::out_of_range("recv: source rank out of range");
  }
  // Exactly one op-counter tick per logical receive, on its first poll, so
  // injected crash points fire at the same program-order op as under the
  // blocking engine (bit-exact chaos equivalence).
  if (first_poll) crash_check(source, tag);
  TryRecv out;
  Message m;
  if (rel_.enabled) {
    auto wire = poll_reliable_recv(source, tag, out.earliest_future);
    if (!wire) return out;
    wire->erase(wire->begin(),
                wire->begin() + static_cast<std::ptrdiff_t>(fault::kDataHeaderBytes));
    m.source = source;
    m.tag = tag;
    m.payload = std::move(*wire);
  } else {
    auto r = world_->mailbox(rank_).try_match(source, tag, rank_, epoch_);
    if (!r.message) {
      out.earliest_future = r.earliest_future;
      return out;
    }
    m = std::move(*r.message);
  }
  if (m.size() != expected) {
    throw FaultError(FaultKind::kSizeMismatch, rank_, source, tag,
                     "recv size mismatch: posted a " + std::to_string(expected) +
                         "-byte receive but matched a " + std::to_string(m.size()) +
                         "-byte message (source=" + std::to_string(source) +
                         ", tag=" + std::to_string(tag) +
                         ", receiver=" + std::to_string(rank_) + ")");
  }
  out.message = std::move(m);
  return out;
}

Message Communicator::recv_msg(int source, int tag, std::size_t expected) {
  if (source < 0 || source >= size()) {
    throw std::out_of_range("recv: source rank out of range");
  }
  crash_check(source, tag);
  Message m;
  if (rel_.enabled) {
    std::vector<std::byte> wire = reliable_recv(source, tag);
    wire.erase(wire.begin(),
               wire.begin() + static_cast<std::ptrdiff_t>(fault::kDataHeaderBytes));
    m.source = source;
    m.tag = tag;
    m.payload = std::move(wire);
  } else {
    m = world_->mailbox(rank_).match(source, tag, timeout_, rank_, epoch_);
  }
  if (m.size() != expected) {
    throw FaultError(FaultKind::kSizeMismatch, rank_, source, tag,
                     "recv size mismatch: posted a " + std::to_string(expected) +
                         "-byte receive but matched a " + std::to_string(m.size()) +
                         "-byte message (source=" + std::to_string(source) +
                         ", tag=" + std::to_string(tag) +
                         ", receiver=" + std::to_string(rank_) + ")");
  }
  return m;
}

void Communicator::recv(int source, int tag, std::span<std::byte> out) {
  const Message m = recv_msg(source, tag, out.size());
  if (!out.empty()) std::memcpy(out.data(), m.bytes().data(), out.size());
}

std::vector<std::byte> Communicator::recv_any_size(int source, int tag) {
  if (source < 0 || source >= size()) {
    throw std::out_of_range("recv_any_size: source rank out of range");
  }
  crash_check(source, tag);
  if (rel_.enabled) {
    std::vector<std::byte> wire = reliable_recv(source, tag);
    wire.erase(wire.begin(),
               wire.begin() + static_cast<std::ptrdiff_t>(fault::kDataHeaderBytes));
    return wire;
  }
  Message m = world_->mailbox(rank_).match(source, tag, timeout_, rank_, epoch_);
  if (m.zero_copy || m.is_inline) {
    const auto bytes = m.bytes();
    return {bytes.begin(), bytes.end()};
  }
  return std::move(m.payload).take();
}

void Communicator::sendrecv(int dest, int send_tag, std::span<const std::byte> send_data,
                            int source, int recv_tag, std::span<std::byte> recv_out) {
  send(dest, send_tag, send_data);
  recv(source, recv_tag, recv_out);
}

void Communicator::barrier() { world_->barrier_wait(epoch_); }

}  // namespace gencoll::runtime
