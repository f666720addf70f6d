// Reference measurements the layer metrics are set against: transport
// ping-pong and stream over a 2-rank Communicator, memcpy and apply_reduce
// bandwidth at a workload's buffer and segment sizes, and World set-up.
#pragma once

#include <cstddef>

namespace perfbench {

/// Half round trip (us) of an 8-byte message between two ranks.
double pingpong_half_rtt_us(double budget_s);

/// One-way stream bandwidth (GB/s) of `bytes`-sized messages from rank 0 to
/// rank 1, at most two messages in flight.
double stream_gbps(std::size_t bytes, double budget_s);

/// Bandwidth (GB/s of output bytes) of memcpy / runtime::apply_reduce (float
/// sum) sweeping a `buffer`-byte buffer in `segment`-byte calls.
double memcpy_gbps(std::size_t buffer, std::size_t segment, double budget_s);
double reduce_gbps(std::size_t buffer, std::size_t segment, double budget_s);

/// Median us of an empty World::run(p) (threads spawned and joined) or, with
/// `threads` false, of constructing and destroying a World(p).
double world_setup_us(int p, bool threads, double budget_s);

/// Cache sizes reported by the C library (bytes; 0 when unknown).
struct CacheSizes {
  long l1d = 0;
  long l2 = 0;
  long l3 = 0;
};
CacheSizes cache_sizes();

}  // namespace perfbench
