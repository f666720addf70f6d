#include "step.hpp"

#include <optional>
#include <stdexcept>

namespace perfbench {

namespace {

std::span<const std::byte> input_of(const OpData& d, int variant, int rank) {
  const auto& per_rank = d.inputs[static_cast<std::size_t>(variant)];
  if (per_rank.empty()) return {};  // barrier: no payload
  return per_rank[static_cast<std::size_t>(rank)];
}

}  // namespace

RankBufs::RankBufs(const Workload& w, const std::vector<OpData>& data, int rank)
    : out(w.ops.size()), root_src(w.ops.size()) {
  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    const OpSpec& o = w.ops[j];
    if (o.op == CollOp::kBarrier) continue;
    out[j].assign(gencoll::core::output_bytes(data[j].params), std::byte{});
    if (o.op == CollOp::kBcast && rank == o.root) {
      for (int v = 0; v < kVariants; ++v) {
        const auto in = input_of(data[j], v, rank);
        root_src[j][static_cast<std::size_t>(v)].assign(in.begin(), in.end());
      }
    }
  }
}

void issue_api_step(gencoll::Collectives& c, const Workload& w, const std::vector<OpData>& data,
                    RankBufs& b, int variant, const StepTrace& trace) {
  const int rank = c.rank();
  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    const OpSpec& o = w.ops[j];
    std::optional<SpanLog::Scope> span;
    if (trace.log != nullptr) {
      span.emplace(*trace.log, trace.lane, std::string("api.") + gencoll::core::coll_op_name(o.op),
                   trace.step);
    }
    const auto in = input_of(data[j], variant, rank);
    switch (o.op) {
      case CollOp::kAllreduce:
        c.allreduce(in, b.out[j], o.type, o.reduce, o.spec);
        break;
      case CollOp::kReduce:
        c.reduce(in, b.out[j], o.type, o.reduce, o.root, o.spec);
        break;
      case CollOp::kBcast:
        c.bcast(rank == o.root ? std::span<std::byte>(
                                     b.root_src[j][static_cast<std::size_t>(variant)])
                               : std::span<std::byte>(b.out[j]),
                o.root, o.spec);
        break;
      case CollOp::kAllgather:
        c.allgather(in, b.out[j], o.type, o.spec);
        break;
      case CollOp::kBarrier:
        c.barrier_collective(o.spec);
        break;
      default:
        throw std::logic_error("workload op not wired: " + o.label());
    }
  }
}

void issue_direct_step(gencoll::runtime::Communicator& comm, const Workload& w,
                       const std::vector<OpData>& data, const std::vector<BuiltOp>& built,
                       RankBufs& b, int variant) {
  const int rank = comm.rank();
  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    const OpSpec& o = w.ops[j];
    const auto& s = built[j].sched;
    if (o.op == CollOp::kBarrier) {
      execute_direct(s, comm, {}, std::span<std::byte>(&b.token, 1), DataType::kByte,
                     ReduceOp::kSum);
    } else if (o.op == CollOp::kBcast) {
      std::span<const std::byte> in;
      if (rank == o.root) in = b.root_src[j][static_cast<std::size_t>(variant)];
      execute_direct(s, comm, in, b.out[j], o.type, o.reduce);
    } else {
      execute_direct(s, comm, input_of(data[j], variant, rank), b.out[j], o.type, o.reduce);
    }
  }
}

int count_mismatches(const Workload& w, const std::vector<OpData>& data, const RankBufs& b,
                     int rank, int variant, bool direct) {
  int bad = 0;
  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    const OpSpec& o = w.ops[j];
    std::span<const std::byte> got = b.out[j];
    if (o.op == CollOp::kBcast && rank == o.root && !direct) {
      got = b.root_src[j][static_cast<std::size_t>(variant)];
    }
    if (!output_ok(data[j], o, variant, rank, got)) ++bad;
  }
  return bad;
}

}  // namespace perfbench
