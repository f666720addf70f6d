// Ring and k-ring algorithms (paper §V). k=1 is the classic ring.
//
// K-ring breaks the p-process ring into p/k groups of k consecutive ranks.
// Each "phase" circulates one group's worth of blocks inside every group
// ((k-1) intra rounds on the fast intranode links when k equals the
// processes-per-node) and then forwards it to the next group in a single
// inter-group round — g(k-1) intra + (g-1) inter = p-1 total rounds, with
// inter-group traffic reduced from 2n(p-1)/p to 2n(p-k)/p (paper Eq. 13).
#include <span>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "core/algorithms_internal.hpp"
#include "core/partition.hpp"

namespace gencoll::core {

namespace {

void require_op(const CollParams& params, CollOp op) {
  check_params(params);
  if (params.op != op) {
    throw std::invalid_argument("schedule builder called with mismatched op");
  }
}

void require_kring_radix(const CollParams& params) {
  if (params.k < 1 || params.k > params.p) {
    throw unsupported_params("k-ring", params, "requires 1 <= k <= p");
  }
}

Schedule make_schedule(const CollParams& params, const std::string& kernel) {
  Schedule sched;
  sched.params = params;
  sched.name = kernel + "(k=" + std::to_string(params.k) + ")";
  sched.ranks.resize(static_cast<std::size_t>(params.p));
  return sched;
}

constexpr int kPhase0Tag = 0;
constexpr int kPhase1Tag = internal::kTagPhaseStride;

/// Ring reduce-scatter: after p-1 rounds rank r owns the fully reduced block
/// (r+1) mod p — the "partitions offset by 1" the paper notes for allreduce.
/// `blocks` is internal::block_segs(params).
void append_ring_reduce_scatter(Schedule& sched, int tag_base, std::span<const Seg> blocks) {
  const int p = sched.params.p;
  for (int t = 0; t < p - 1; ++t) {
    const int tag = tag_base + t * internal::kTagRoundStride;
    for (int r = 0; r < p; ++r) {
      RankProgram& prog = sched.ranks[static_cast<std::size_t>(r)];
      const int right = (r + 1) % p;
      const int left = (r - 1 + p) % p;
      const int send_block = ((r - t) % p + p) % p;
      const int recv_block = ((r - t - 1) % p + p) % p;
      const Seg& ss = blocks[static_cast<std::size_t>(send_block)];
      const Seg& rs = blocks[static_cast<std::size_t>(recv_block)];
      prog.send(right, tag, ss.off, ss.len);
      prog.recv_reduce(left, tag, rs.off, rs.len);
    }
  }
}

}  // namespace

Schedule build_kring_allgather(const CollParams& params) {
  require_op(params, CollOp::kAllgather);
  require_kring_radix(params);
  Schedule sched = make_schedule(params, params.k == 1 ? "ring_allgather" : "kring_allgather");
  const std::vector<Seg> blocks = internal::block_segs(params);
  for (int r = 0; r < params.p; ++r) {
    const Seg& own = blocks[static_cast<std::size_t>(r)];
    sched.ranks[static_cast<std::size_t>(r)].copy_input(0, own.off, own.len);
  }
  internal::append_kring_allgather_rounds(sched, params.k, /*rot=*/0, kPhase0Tag, blocks);
  return sched;
}

Schedule build_kring_allreduce(const CollParams& params) {
  require_op(params, CollOp::kAllreduce);
  require_kring_radix(params);
  Schedule sched = make_schedule(params, params.k == 1 ? "ring_allreduce" : "kring_allreduce");
  for (auto& prog : sched.ranks) prog.copy_input(0, 0, params.nbytes());
  const std::vector<Seg> blocks = internal::block_segs(params);
  append_ring_reduce_scatter(sched, kPhase0Tag, blocks);
  // After reduce-scatter, rank r owns block (r+1) mod p; rotate the
  // allgather's vrank space by p-1 so vrank b (the owner of block b) maps to
  // real rank (b + p - 1) mod p = b - 1.
  internal::append_kring_allgather_rounds(sched, params.k, /*rot=*/params.p - 1,
                                          kPhase1Tag, blocks);
  return sched;
}

Schedule build_kring_bcast(const CollParams& params) {
  require_op(params, CollOp::kBcast);
  require_kring_radix(params);
  Schedule sched = make_schedule(params, params.k == 1 ? "ring_bcast" : "kring_bcast");
  // Scatter-allgather (the standard large-message bcast): binomial scatter
  // of p absolute-offset blocks in vrank space, then k-ring allgather.
  sched.ranks[static_cast<std::size_t>(params.root)].copy_input(0, 0, params.nbytes());
  const int scatter_radix = 2;
  internal::append_knomial_scatter(sched, scatter_radix, /*parts=*/params.p,
                                   /*rot=*/params.root, kPhase0Tag);
  internal::append_kring_allgather_rounds(sched, params.k, /*rot=*/params.root,
                                          kPhase1Tag, internal::block_segs(params));
  return sched;
}

}  // namespace gencoll::core
