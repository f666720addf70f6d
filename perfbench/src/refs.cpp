#include "refs.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "measure.hpp"
#include "runtime/comm.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/world.hpp"

namespace perfbench {

namespace rt = gencoll::runtime;

double pingpong_half_rtt_us(double budget_s) {
  constexpr int kTag = 7;
  constexpr int kBatch = 500;
  std::vector<double> half;
  rt::World::run(2, [&](rt::Communicator& comm) {
    std::array<std::byte, 8> buf{};
    const int peer = 1 - comm.rank();
    const double start = now_us();
    // Rank 0 decides how many batches to run and tells rank 1 in-band.
    for (int batch = 0;; ++batch) {
      std::byte go{1};
      if (comm.rank() == 0) {
        const bool more = batch < 3 || (batch < 200 && now_us() - start < budget_s * 1e6);
        go = std::byte{more ? std::uint8_t{1} : std::uint8_t{0}};
        comm.send(peer, kTag, std::span<const std::byte>(&go, 1));
      } else {
        comm.recv(peer, kTag, std::span<std::byte>(&go, 1));
      }
      if (go == std::byte{0}) break;
      const double t0 = now_us();
      for (int i = 0; i < kBatch; ++i) {
        if (comm.rank() == 0) {
          comm.send(peer, kTag, buf);
          comm.recv(peer, kTag, buf);
        } else {
          comm.recv(peer, kTag, buf);
          comm.send(peer, kTag, buf);
        }
      }
      if (comm.rank() == 0 && batch > 0) half.push_back((now_us() - t0) / (2.0 * kBatch));
    }
  });
  return median(half);
}

double stream_gbps(std::size_t bytes, double budget_s) {
  constexpr int kData = 11;
  constexpr int kAck = 12;
  const int per_batch = static_cast<int>(std::clamp<std::size_t>((64u << 20) / bytes, 4, 4096));
  std::vector<double> gbps;
  rt::World::run(2, [&](rt::Communicator& comm) {
    std::vector<std::byte> buf(bytes, std::byte{1});
    std::byte ack{};
    const int peer = 1 - comm.rank();
    const double start = now_us();
    for (int batch = 0;; ++batch) {
      std::byte go{1};
      if (comm.rank() == 0) {
        const bool more = batch < 3 || (batch < 100 && now_us() - start < budget_s * 1e6);
        go = std::byte{more ? std::uint8_t{1} : std::uint8_t{0}};
        comm.send(peer, kAck, std::span<const std::byte>(&go, 1));
      } else {
        comm.recv(peer, kAck, std::span<std::byte>(&go, 1));
      }
      if (go == std::byte{0}) break;
      const double t0 = now_us();
      for (int i = 0; i < per_batch; ++i) {
        if (comm.rank() == 0) {
          if (i >= 2) comm.recv(peer, kAck, std::span<std::byte>(&ack, 1));
          comm.send(peer, kData, buf);
        } else {
          comm.recv(peer, kData, buf);
          comm.send(peer, kAck, std::span<const std::byte>(&ack, 1));
        }
      }
      if (comm.rank() == 0) {
        for (int i = std::max(0, per_batch - 2); i < per_batch; ++i) {
          comm.recv(peer, kAck, std::span<std::byte>(&ack, 1));
        }
        const double dt = now_us() - t0;
        if (batch > 0) gbps.push_back(static_cast<double>(bytes) * per_batch / dt / 1e3);
      }
    }
  });
  return median(gbps);
}

namespace {

template <typename Fn>
double sweep_gbps(std::size_t buffer, std::size_t segment, double budget_s, Fn&& fn) {
  buffer = std::max<std::size_t>(buffer, sizeof(float));
  segment = std::clamp<std::size_t>(segment, sizeof(float), buffer);
  segment -= segment % sizeof(float);
  std::vector<std::byte> dst(buffer, std::byte{0});
  std::vector<std::byte> src(buffer, std::byte{0});
  const double per_pass_us = time_median_us(
      [&] {
        for (std::size_t off = 0; off < buffer; off += segment) {
          const std::size_t len = std::min(segment, buffer - off);
          fn(std::span<std::byte>(dst.data() + off, len),
             std::span<const std::byte>(src.data() + off, len));
        }
      },
      budget_s);
  return static_cast<double>(buffer) / per_pass_us / 1e3;
}

}  // namespace

double memcpy_gbps(std::size_t buffer, std::size_t segment, double budget_s) {
  return sweep_gbps(buffer, segment, budget_s,
                    [](std::span<std::byte> d, std::span<const std::byte> s) {
                      std::memcpy(d.data(), s.data(), d.size());
                    });
}

double reduce_gbps(std::size_t buffer, std::size_t segment, double budget_s) {
  return sweep_gbps(buffer, segment, budget_s,
                    [](std::span<std::byte> d, std::span<const std::byte> s) {
                      rt::apply_reduce(rt::ReduceOp::kSum, rt::DataType::kFloat, d, s,
                                       d.size() / sizeof(float));
                    });
}

double world_setup_us(int p, bool threads, double budget_s) {
  if (threads) {
    return time_median_us([p] { rt::World::run(p, [](rt::Communicator&) {}); }, budget_s);
  }
  return time_median_us([p] { rt::World w(p); }, budget_s);
}

CacheSizes cache_sizes() {
  CacheSizes c;
#ifdef _SC_LEVEL1_DCACHE_SIZE
  c.l1d = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  c.l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  c.l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  return c;
}

}  // namespace perfbench
