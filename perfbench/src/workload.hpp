// Workload definitions for the steady-state collective benchmark.
//
// A workload is a world size, an engine and a *step*: a fixed sequence of
// collectives every rank issues back to back. All inputs are generated from
// the --seed argument (two variants per op, alternated step by step, so a
// step that silently did nothing leaves the previous variant's result behind
// and fails the check) and every checked output is compared against
// core::reference_outputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/gencoll.hpp"
#include "core/coll_params.hpp"
#include "core/schedule.hpp"
#include "model/closed_forms.hpp"
#include "model/cost_model.hpp"

namespace perfbench {

using gencoll::AlgSpec;
using gencoll::core::CollOp;
using gencoll::runtime::DataType;
using gencoll::runtime::ReduceOp;

/// One collective of a step.
struct OpSpec {
  CollOp op = CollOp::kAllreduce;
  std::size_t bytes = 0;  ///< total payload n (0 for the barrier)
  DataType type = DataType::kFloat;
  ReduceOp reduce = ReduceOp::kSum;
  int root = 0;
  AlgSpec spec;  ///< per-call override handed to Collectives (or run_collective)

  [[nodiscard]] std::size_t elem_size() const;
  [[nodiscard]] std::size_t count() const { return bytes / elem_size(); }
  [[nodiscard]] std::string label() const;
};

struct Workload {
  std::string name;
  int p = 4;
  bool event = false;  ///< run_collective on the event engine, else run_ranks
  std::vector<OpSpec> ops;
};

/// The workload table (see perfbench/README.md for why each exists).
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// CollParams of `o` at world size p (k = 2; the builders take k from the
/// resolved choice, the generators and references ignore it).
gencoll::core::CollParams params_of(const OpSpec& o, int p);

constexpr int kVariants = 2;

/// Seeded inputs and reference outputs of one op.
struct OpData {
  gencoll::core::CollParams params;
  std::array<std::vector<std::vector<std::byte>>, kVariants> inputs;    ///< [v][rank]
  std::array<std::vector<std::vector<std::byte>>, kVariants> expected;  ///< [v][rank]
};

std::vector<OpData> make_data(const Workload& w, std::uint64_t seed);

/// True when `got` carries `data`'s variant-v reference result for `rank`
/// (bytes exact; floats within bench_gate's 1e-3 relative tolerance). Ranks
/// without a defined result always match.
bool output_ok(const OpData& data, const OpSpec& o, int variant, int rank,
               std::span<const std::byte> got);

struct BuiltOp {
  gencoll::core::Schedule sched;
  gencoll::core::Algorithm alg;  ///< flat algorithm, or the hierarchy's inter kernel
};

/// The schedule Collectives builds for `o` on a p-rank communicator whose
/// resolve() returns `choice`: the same decision sequence as the API's
/// schedule_for (hierarchical when supported, vendor default when the
/// requested radix does not fit). Throws when `o` asks for a hierarchy that
/// the composition does not cover, so a workload can never silently measure
/// the flat path instead.
BuiltOp build_schedule_for(const OpSpec& o, int p,
                           const gencoll::tuning::AlgorithmChoice& choice);

/// Schedule counts the traced run checks against obs and the closed forms.
struct ScheduleCounts {
  std::size_t steps_max = 0;      ///< longest rank program
  std::size_t messages = 0;       ///< kSend + kSendInput steps
  std::size_t bytes = 0;          ///< Schedule::total_send_bytes
  std::size_t reduce_bytes = 0;   ///< kRecvReduce bytes
};
ScheduleCounts count_schedule(const gencoll::core::Schedule& s);

/// model::discrete_cost / hierarchical_discrete_cost of a built schedule.
gencoll::model::DiscreteCost discrete_cost_of(const BuiltOp& b);

/// model::predict_cost / hierarchical_cost of a built schedule, in us.
double predicted_us(const BuiltOp& b, const gencoll::model::ModelParams& m);

/// The run_collective description of `o` at world size p.
gencoll::CollectiveSpec collective_spec(const OpSpec& o, int p);

/// Runs one prebuilt schedule on one rank the way Collectives::execute does.
void execute_direct(const gencoll::core::Schedule& s, gencoll::runtime::Communicator& comm,
                    std::span<const std::byte> in, std::span<std::byte> out,
                    DataType type, ReduceOp reduce);

}  // namespace perfbench
