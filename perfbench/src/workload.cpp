#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/hierarchy.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "runtime/datatype.hpp"
#include "tuning/vendor_policy.hpp"

namespace perfbench {

namespace core = gencoll::core;
using core::Algorithm;

std::size_t OpSpec::elem_size() const {
  return op == CollOp::kBarrier ? 1 : gencoll::runtime::datatype_size(type);
}

std::string OpSpec::label() const {
  std::string s = core::coll_op_name(op);
  if (op != CollOp::kBarrier) s.append("/").append(std::to_string(bytes)).append("B");
  if (spec.algorithm) s.append("/").append(core::algorithm_name(*spec.algorithm));
  if (spec.k) s.append("-k").append(std::to_string(*spec.k));
  if (spec.levels && !spec.levels->empty()) {
    s.append("/levels=").append(core::hier_format_levels(*spec.levels));
  } else if (spec.group_size) {
    s.append("/g=").append(std::to_string(*spec.group_size));
  }
  return s;
}

namespace {

OpSpec op(CollOp c, std::size_t bytes, DataType type, std::optional<Algorithm> alg,
          std::optional<int> k) {
  OpSpec o;
  o.op = c;
  o.bytes = bytes;
  o.type = type;
  o.spec.algorithm = alg;
  o.spec.k = k;
  return o;
}

std::vector<Workload> build_table() {
  constexpr std::size_t KiB = 1024;
  constexpr std::size_t MiB = 1024 * KiB;
  std::vector<Workload> t;

  // Solver loop: per-call and per-message cost dominates.
  Workload small{"small_step_p4", 4, false, {}};
  small.ops.push_back(op(CollOp::kAllreduce, 8, DataType::kFloat,
                         Algorithm::kRecursiveMultiplying, 4));
  small.ops.push_back(op(CollOp::kAllreduce, 4 * KiB, DataType::kFloat,
                         Algorithm::kKnomial, 4));
  small.ops.push_back(op(CollOp::kBcast, 4 * KiB, DataType::kByte,
                         Algorithm::kKnomial, 2));
  small.ops.push_back(op(CollOp::kAllgather, 4 * KiB, DataType::kFloat,
                         Algorithm::kKring, 2));
  small.ops.push_back(op(CollOp::kBarrier, 0, DataType::kByte, std::nullopt,
                         std::nullopt));
  t.push_back(small);

  // Gradient allreduce: bandwidth bound.
  Workload bulk{"bulk_allreduce_p4", 4, false, {}};
  bulk.ops.push_back(op(CollOp::kAllreduce, 16 * MiB, DataType::kFloat,
                        Algorithm::kKring, 2));
  t.push_back(bulk);

  // Shared-segment transport: one-node ShmTree (levels 2x2), then the flat
  // ShmGroup intra tier with a 2-leader mailbox inter phase. The inter
  // kernels are pinned because the default selector's 1 MiB allreduce choice
  // (Rabenseifner) does not compose hierarchically and would run flat.
  Workload shm{"node_shm_p4", 4, false, {}};
  for (int half = 0; half < 2; ++half) {
    for (CollOp c : {CollOp::kAllreduce, CollOp::kBcast, CollOp::kReduce}) {
      OpSpec o = op(c, MiB, c == CollOp::kBcast ? DataType::kByte : DataType::kFloat,
                    c == CollOp::kAllreduce ? Algorithm::kRecursiveMultiplying
                                            : Algorithm::kKnomial,
                    2);
      if (half == 0) {
        o.spec.levels = std::vector<int>{2, 2};
      } else {
        // The explicit empty level vector keeps GENCOLL_HIER_LEVELS from
        // turning this half into a tree.
        o.spec.group_size = 2;
        o.spec.levels = std::vector<int>{};
      }
      shm.ops.push_back(o);
    }
  }
  t.push_back(shm);

  // Event engine at scale: World construction + schedule build per call.
  Workload scale{"scale_event_p256", 256, true, {}};
  for (Algorithm a : {Algorithm::kKnomial, Algorithm::kRecursiveMultiplying,
                      Algorithm::kKring}) {
    scale.ops.push_back(op(CollOp::kAllreduce, 4 * KiB, DataType::kFloat, a, 4));
  }
  t.push_back(scale);
  return t;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = build_table();
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::CollParams params_of(const OpSpec& o, int p) {
  core::CollParams params;
  params.op = o.op;
  params.p = p;
  params.root = o.root;
  params.count = o.count();
  params.elem_size = o.elem_size();
  params.k = 2;
  return params;
}

std::vector<OpData> make_data(const Workload& w, std::uint64_t seed) {
  std::vector<OpData> data(w.ops.size());
  for (std::size_t j = 0; j < w.ops.size(); ++j) {
    const OpSpec& o = w.ops[j];
    OpData& d = data[j];
    d.params = params_of(o, w.p);
    if (o.op == CollOp::kBarrier) continue;
    for (int v = 0; v < kVariants; ++v) {
      const std::uint64_t s = seed * 7919ULL + j * 131ULL + static_cast<std::uint64_t>(v);
      const auto vi = static_cast<std::size_t>(v);
      d.inputs[vi] = core::make_inputs(d.params, o.type, s);
      d.expected[vi] = core::reference_outputs(d.params, d.inputs[vi], o.type, o.reduce);
    }
  }
  return data;
}

bool output_ok(const OpData& data, const OpSpec& o, int variant, int rank,
               std::span<const std::byte> got) {
  if (o.op == CollOp::kBarrier) return true;
  const auto& want =
      data.expected[static_cast<std::size_t>(variant)][static_cast<std::size_t>(rank)];
  if (want.empty()) return true;
  if (got.size() < want.size()) return false;
  if (o.type != DataType::kFloat) {
    return std::memcmp(got.data(), want.data(), want.size()) == 0;
  }
  const std::size_t n = want.size() / sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    float g = 0.0F;
    float x = 0.0F;
    std::memcpy(&g, got.data() + i * sizeof(float), sizeof(float));
    std::memcpy(&x, want.data() + i * sizeof(float), sizeof(float));
    if (!(std::fabs(g - x) <= 1e-3F * std::max(1.0F, std::fabs(x)))) return false;
  }
  return true;
}

BuiltOp build_schedule_for(const OpSpec& o, int p,
                           const gencoll::tuning::AlgorithmChoice& choice) {
  core::CollParams params = params_of(o, p);
  params.k = choice.k;
  const bool wants_hier = (o.spec.levels && !o.spec.levels->empty()) ||
                          o.spec.group_size.value_or(1) > 1;
  if (choice.group_size > 1) {
    core::HierSpec h;
    h.group_size = choice.group_size;
    h.inter_alg = choice.algorithm;
    h.inter_k = choice.k;
    h.intra_shm = choice.intra == gencoll::tuning::HierIntra::kShm;
    h.levels = choice.levels;
    if (core::supports_hierarchical(h, params)) {
      return {core::build_hierarchical_schedule(h, params), choice.algorithm};
    }
  }
  if (wants_hier) {
    throw std::runtime_error("workload op " + o.label() +
                             " would fall back to the flat schedule");
  }
  if (!core::supports_params(choice.algorithm, params)) {
    const auto fallback = gencoll::tuning::vendor_default(o.op, p, params.nbytes());
    params.k = fallback.k;
    return {core::build_schedule(fallback.algorithm, params), fallback.algorithm};
  }
  return {core::build_schedule(choice.algorithm, params), choice.algorithm};
}

ScheduleCounts count_schedule(const core::Schedule& s) {
  ScheduleCounts c;
  for (const core::RankProgram& rp : s.ranks) {
    c.steps_max = std::max(c.steps_max, rp.steps.size());
    for (const core::Step& st : rp.steps) {
      if (st.kind == core::StepKind::kSend || st.kind == core::StepKind::kSendInput) {
        ++c.messages;
      } else if (st.kind == core::StepKind::kRecvReduce) {
        c.reduce_bytes += st.bytes;
      }
    }
  }
  c.bytes = s.total_send_bytes();
  return c;
}

gencoll::model::DiscreteCost discrete_cost_of(const BuiltOp& b) {
  const core::Schedule& s = b.sched;
  if (s.hier) {
    return gencoll::model::hierarchical_discrete_cost(s.hier->inter_alg, s.hier->group_size,
                                                      s.params, s.hier->levels);
  }
  return gencoll::model::discrete_cost(b.alg, s.params);
}

double predicted_us(const BuiltOp& b, const gencoll::model::ModelParams& m) {
  const core::Schedule& s = b.sched;
  const auto n = static_cast<double>(s.params.nbytes());
  const auto p = static_cast<double>(s.params.p);
  if (s.hier) {
    return gencoll::model::hierarchical_cost(s.hier->inter_alg, s.params.op, n, s.params.p,
                                             s.hier->group_size, s.hier->inter_k, m,
                                             s.hier->levels);
  }
  return gencoll::model::predict_cost(b.alg, s.params.op, n, p,
                                      s.params.k, m);
}

gencoll::CollectiveSpec collective_spec(const OpSpec& o, int p) {
  gencoll::CollectiveSpec spec;
  spec.op = o.op;
  spec.ranks = p;
  spec.count = o.count();
  spec.type = o.type;
  spec.reduce = o.reduce;
  spec.root = o.root;
  spec.algorithm = o.spec.algorithm;
  spec.k = o.spec.k;
  return spec;
}

void execute_direct(const core::Schedule& s, gencoll::runtime::Communicator& comm,
                    std::span<const std::byte> in, std::span<std::byte> out,
                    DataType type, ReduceOp reduce) {
  if (s.hier) {
    core::execute_hierarchical(s, comm, in, out, type, reduce);
  } else {
    core::execute_rank_program(s, comm, in, out, type, reduce);
  }
}

}  // namespace perfbench
