// google-benchmark microbenchmarks for the substrate itself: schedule
// construction cost, validation cost, simulator throughput, and the
// threaded runtime's point-to-point path. These guard the tooling the
// figure harnesses depend on (a slow simulator would make the 1024-node
// sweeps intractable, as §VI-D notes for the real machine).
#include <benchmark/benchmark.h>

#include "core/executor.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "core/validate.hpp"
#include "netsim/simulator.hpp"
#include "runtime/world.hpp"

namespace {

using namespace gencoll;

core::CollParams make_params(core::CollOp op, int p, std::size_t count, int k) {
  core::CollParams params;
  params.op = op;
  params.p = p;
  params.count = count;
  params.elem_size = 1;
  params.k = k;
  return params;
}

void BM_BuildKnomialBcast(benchmark::State& state) {
  const auto params = make_params(core::CollOp::kBcast,
                                  static_cast<int>(state.range(0)), 4096, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_schedule(core::Algorithm::kKnomial, params));
  }
}
BENCHMARK(BM_BuildKnomialBcast)->Arg(128)->Arg(1024);

void BM_BuildRecmulAllreduce(benchmark::State& state) {
  const auto params = make_params(core::CollOp::kAllreduce,
                                  static_cast<int>(state.range(0)), 4096, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_schedule(core::Algorithm::kRecursiveMultiplying, params));
  }
}
BENCHMARK(BM_BuildRecmulAllreduce)->Arg(128)->Arg(1024);

void BM_BuildRingAllgather(benchmark::State& state) {
  const auto params =
      make_params(core::CollOp::kAllgather, static_cast<int>(state.range(0)), 4096, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_schedule(core::Algorithm::kRing, params));
  }
}
BENCHMARK(BM_BuildRingAllgather)->Arg(128)->Arg(512);

void BM_BuildKringAllreduce(benchmark::State& state) {
  const auto params = make_params(core::CollOp::kAllreduce,
                                  static_cast<int>(state.range(0)), 4096, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_schedule(core::Algorithm::kKring, params));
  }
}
BENCHMARK(BM_BuildKringAllreduce)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ValidateSchedule(benchmark::State& state) {
  const auto sched = core::build_schedule(
      core::Algorithm::kRecursiveMultiplying,
      make_params(core::CollOp::kAllreduce, static_cast<int>(state.range(0)), 4096, 4));
  for (auto _ : state) {
    core::validate_schedule(sched);
  }
}
BENCHMARK(BM_ValidateSchedule)->Arg(128)->Arg(1024);

void BM_SimulateRecmulAllreduce(benchmark::State& state) {
  const auto sched = core::build_schedule(
      core::Algorithm::kRecursiveMultiplying,
      make_params(core::CollOp::kAllreduce, static_cast<int>(state.range(0)), 65536, 4));
  const auto machine = netsim::frontier_like(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::simulate_us(sched, machine));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sched.total_steps()));
}
BENCHMARK(BM_SimulateRecmulAllreduce)->Arg(128)->Arg(1024);

void BM_SimulateRingAllgather(benchmark::State& state) {
  const auto sched = core::build_schedule(
      core::Algorithm::kRing,
      make_params(core::CollOp::kAllgather, static_cast<int>(state.range(0)), 65536, 1));
  const auto machine = netsim::frontier_like(static_cast<int>(state.range(0)) / 8, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::simulate_us(sched, machine));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sched.total_steps()));
}
BENCHMARK(BM_SimulateRingAllgather)->Arg(128)->Arg(512);

void BM_ThreadedAllreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  auto params = make_params(core::CollOp::kAllreduce, p, 8192, 4);
  params.elem_size = 8;
  params.count = 1024;
  const auto sched =
      core::build_schedule(core::Algorithm::kRecursiveMultiplying, params);
  const auto inputs = core::make_inputs(params, runtime::DataType::kInt64, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::execute_threaded(sched, inputs,
                                                    runtime::DataType::kInt64,
                                                    runtime::ReduceOp::kSum));
  }
}
BENCHMARK(BM_ThreadedAllreduce)->Arg(4)->Arg(16);

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    runtime::World::run(2, [](runtime::Communicator& comm) {
      std::vector<std::byte> buf(64);
      for (int i = 0; i < 100; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, i, buf);
          comm.recv(1, i, buf);
        } else {
          comm.recv(0, i, buf);
          comm.send(0, i, buf);
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_MailboxPingPong);

}  // namespace

BENCHMARK_MAIN();
