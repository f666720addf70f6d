// One rank's side of a workload step, issued either through the public
// Collectives API or, for the api-overhead reference, by running the same
// prebuilt schedules directly on the rank's communicator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "api/gencoll.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// A rank's buffers, allocated (and first touched) by the rank itself.
struct RankBufs {
  RankBufs(const Workload& w, const std::vector<OpData>& data, int rank);

  std::vector<std::vector<std::byte>> out;  ///< per op: output_bytes
  /// Bcast roots pass their payload in place; one mutable copy per variant.
  std::vector<std::array<std::vector<std::byte>, kVariants>> root_src;
  std::byte token{};
};

/// Optional span recording around each api call of a step (traced run).
struct StepTrace {
  SpanLog* log = nullptr;
  int lane = 0;
  std::int64_t step = -1;
};

void issue_api_step(gencoll::Collectives& c, const Workload& w, const std::vector<OpData>& data,
                    RankBufs& b, int variant, const StepTrace& trace = {});

void issue_direct_step(gencoll::runtime::Communicator& comm, const Workload& w,
                       const std::vector<OpData>& data, const std::vector<BuiltOp>& built,
                       RankBufs& b, int variant);

/// Number of ops of the step whose result on `rank` differs from the
/// reference. `direct` selects where bcast roots find their result.
int count_mismatches(const Workload& w, const std::vector<OpData>& data, const RankBufs& b,
                     int rank, int variant, bool direct);

}  // namespace perfbench
