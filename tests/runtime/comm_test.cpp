#include "runtime/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "runtime/buffer_pool.hpp"

#include "runtime/world.hpp"

namespace gencoll::runtime {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(World, RejectsNonPositiveSize) {
  EXPECT_THROW(World w(0), std::invalid_argument);
  EXPECT_THROW(World w(-3), std::invalid_argument);
}

TEST(Comm, PingPong) {
  World::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const auto payload = bytes_of({1, 2, 3});
      comm.send(1, 0, payload);
      std::vector<std::byte> back(3);
      comm.recv(1, 1, back);
      EXPECT_EQ(back, bytes_of({4, 5, 6}));
    } else {
      std::vector<std::byte> got(3);
      comm.recv(0, 0, got);
      EXPECT_EQ(got, bytes_of({1, 2, 3}));
      comm.send(0, 1, bytes_of({4, 5, 6}));
    }
  });
}

TEST(Comm, SizeMismatchThrows) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& comm) {
                            if (comm.rank() == 0) {
                              comm.send(1, 0, bytes_of({1, 2, 3}));
                            } else {
                              std::vector<std::byte> too_small(2);
                              comm.recv(0, 0, too_small);
                            }
                          }),
               std::runtime_error);
}

TEST(Comm, SizeMismatchNamesChannelAndSizes) {
  // Regression: the error must carry enough to debug a schedule bug — both
  // byte counts and the (source, tag, receiver) coordinates.
  try {
    World::run(2, [](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 4, bytes_of({1, 2, 3}));
      } else {
        std::vector<std::byte> too_small(2);
        comm.recv(0, 4, too_small);
      }
    });
    FAIL() << "expected FaultError";
  } catch (const gencoll::FaultError& e) {
    EXPECT_EQ(e.kind(), gencoll::FaultKind::kSizeMismatch);
    const std::string what = e.what();
    EXPECT_NE(what.find("2-byte receive"), std::string::npos) << what;
    EXPECT_NE(what.find("3-byte message"), std::string::npos) << what;
    EXPECT_NE(what.find("source=0"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=4"), std::string::npos) << what;
    EXPECT_NE(what.find("receiver=1"), std::string::npos) << what;
  }
}

TEST(Comm, RecvAnySize) {
  World::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, bytes_of({9, 8}));
    } else {
      const auto got = comm.recv_any_size(0, 3);
      EXPECT_EQ(got.size(), 2u);
    }
  });
}

TEST(Comm, SendRecvExchange) {
  World::run(2, [](Communicator& comm) {
    const int peer = 1 - comm.rank();
    const auto mine = bytes_of({comm.rank(), comm.rank()});
    std::vector<std::byte> theirs(2);
    comm.sendrecv(peer, 0, mine, peer, 0, theirs);
    EXPECT_EQ(theirs, bytes_of({peer, peer}));
  });
}

TEST(Comm, OutOfRangePeersThrow) {
  World::run(1, [](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, {}), std::out_of_range);
    std::vector<std::byte> buf(1);
    EXPECT_THROW(comm.recv(-1, 0, buf), std::out_of_range);
  });
}

TEST(Comm, BarrierSynchronizesPhases) {
  constexpr int kRanks = 8;
  std::atomic<int> counter{0};
  World::run(kRanks, [&](Communicator& comm) {
    counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all arrivals.
    EXPECT_EQ(counter.load(), kRanks);
    comm.barrier();
    counter.fetch_sub(1);
    comm.barrier();
    EXPECT_EQ(counter.load(), 0);
  });
}

TEST(Comm, RankExceptionPropagates) {
  EXPECT_THROW(World::run(4,
                          [](Communicator& comm) {
                            if (comm.rank() == 2) {
                              throw std::logic_error("rank 2 failed");
                            }
                          }),
               std::logic_error);
}

TEST(Comm, ManyToOneSum) {
  constexpr int kRanks = 12;
  World::run(kRanks, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int total = 0;
      for (int src = 1; src < comm.size(); ++src) {
        std::vector<std::byte> buf(sizeof(int));
        comm.recv(src, 0, buf);
        int v = 0;
        std::memcpy(&v, buf.data(), sizeof(int));
        total += v;
      }
      EXPECT_EQ(total, (kRanks - 1) * kRanks / 2);
    } else {
      const int v = comm.rank();
      std::vector<std::byte> buf(sizeof(int));
      std::memcpy(buf.data(), &v, sizeof(int));
      comm.send(0, 0, buf);
    }
  });
}

TEST(Comm, RecvTimeoutConfigurable) {
  World::run(1, [](Communicator& comm) {
    comm.set_recv_timeout(std::chrono::milliseconds(50));
    EXPECT_EQ(comm.recv_timeout(), std::chrono::milliseconds(50));
  });
}

// --- Inline small payloads (runtime/mailbox.hpp kInlinePayloadBytes) ---

std::vector<std::byte> pattern(std::size_t n, int salt) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(salt)) & 0xFF);
  }
  return out;
}

constexpr std::size_t kBoundarySizes[] = {0, 1, kInlinePayloadBytes,
                                          kInlinePayloadBytes + 1};

TEST(Comm, PayloadsUpToTheInlineLimitSkipTheBufferPool) {
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE("payload bytes " + std::to_string(n));
    const bool small = n <= kInlinePayloadBytes;
    BufferPool pool;
    WorldOptions options;
    options.pool = &pool;
    World world(2, options);
    Communicator sender(&world, 0);
    Communicator receiver(&world, 1);
    const auto data = pattern(n, 5);

    const auto acquires = pool.stats().acquires;
    sender.send(1, 1, data);
    EXPECT_EQ(pool.stats().acquires - acquires, small ? 0u : 1u);
    std::vector<std::byte> got(n);
    receiver.recv(0, 1, got);
    EXPECT_EQ(got, data);

    sender.send(1, 2, data);
    EXPECT_EQ(receiver.recv_any_size(0, 2), data);

    sender.send(1, 3, data);
    const Message m = receiver.recv_msg(0, 3, n);
    EXPECT_EQ(m.is_inline, small);
    EXPECT_TRUE(std::equal(m.bytes().begin(), m.bytes().end(), data.begin(),
                           data.end()));
    EXPECT_EQ(pool.stats().acquires - acquires, small ? 0u : 3u);
  }
}

TEST(Comm, FaultInjectedSmallPayloadsStayPooled) {
  // Every message duplicated and delayed: the injector needs owned wire
  // bytes, so even a 0-byte payload takes the pooled path.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.dup_prob = 1.0;
  plan.delay_prob = 1.0;
  plan.max_delay_ms = 2.0;
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE("payload bytes " + std::to_string(n));
    BufferPool pool;
    WorldOptions options;
    options.pool = &pool;
    options.fault_plan = &plan;
    World world(2, options);
    Communicator sender(&world, 0);
    Communicator receiver(&world, 1);
    const auto data = pattern(n, 9);

    sender.send(1, 4, data);
    EXPECT_EQ(pool.stats().acquires, 2u);  // the message and its duplicate
    for (int copy = 0; copy < 2; ++copy) {
      const Message m = receiver.recv_msg(0, 4, n);
      EXPECT_FALSE(m.is_inline);
      EXPECT_TRUE(std::equal(m.bytes().begin(), m.bytes().end(), data.begin(),
                             data.end()));
    }
  }
}

TEST(Comm, CorruptionStillReachesSmallPayloads) {
  fault::FaultPlan plan;
  plan.seed = 2;
  plan.corrupt_prob = 1.0;
  for (const std::size_t n : {std::size_t{1}, kInlinePayloadBytes}) {
    SCOPED_TRACE("payload bytes " + std::to_string(n));
    WorldOptions options;
    options.fault_plan = &plan;
    World world(2, options);
    Communicator sender(&world, 0);
    Communicator receiver(&world, 1);
    const auto data = pattern(n, 3);
    sender.send(1, 5, data);
    std::vector<std::byte> got(n);
    receiver.recv(0, 5, got);
    EXPECT_NE(got, data) << "the injected bit-flip must hit small payloads too";
  }
}

TEST(Comm, ReliableSmallPayloadsAreEnvelopedAndExact) {
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.dup_prob = 0.3;
  plan.corrupt_prob = 0.3;
  plan.delay_prob = 0.3;
  plan.max_delay_ms = 2.0;
  WorldOptions options;
  options.fault_plan = &plan;
  options.reliability.enabled = true;
  World world(2, options);
  Communicator sender(&world, 0);
  Communicator receiver(&world, 1);
  int tag = 0;
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE("payload bytes " + std::to_string(n));
    for (int rep = 0; rep < 8; ++rep, ++tag) {
      const auto data = pattern(n, tag);
      sender.send(1, tag, data);
      const Message m = receiver.recv_msg(0, tag, n);
      EXPECT_FALSE(m.is_inline);
      EXPECT_TRUE(std::equal(m.bytes().begin(), m.bytes().end(), data.begin(),
                             data.end()));
    }
  }
}

}  // namespace
}  // namespace gencoll::runtime
