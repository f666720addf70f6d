// Event-driven schedule executor: rank state machines over a small worker
// pool (runtime/event_pool.hpp) instead of one OS thread per rank.
//
// Each rank's step program becomes a resumable cursor (step index, bytes
// done within the step): a worker advances it until the next receive has
// nothing deliverable, then the task parks with its mailbox's readiness hook
// armed and a deadline timer as backstop. Sends never park — the transport
// is buffered, and the reliable transport's ack wait depends only on time
// (acks are generated synchronously on the sender's thread), so it blocks
// under the pool's managed-blocking compensation. ~hardware_concurrency
// workers therefore execute p in the thousands for real: the p=4096
// allreduce of the scale-smoke CI leg runs in seconds on a laptop.
//
// Everything the threaded engine carries, carries over (DESIGN.md section
// 13): BufferPool/zero-copy (tasks are joined via wait_all before buffers
// die, the same lifetime guarantee World::run gives), segment pipelining,
// obs spans (one task runs on one worker at a time, so the TraceSink sees
// concurrent calls only for distinct ranks — the existing contract), fault
// injection with bit-exact crash op counting, reliable transport, and the
// elastic revoke/agree/shrink path (crash announcements and epoch installs
// interrupt mailboxes, whose hooks re-queue parked tasks like any other
// event). The shm-hierarchy fast path keeps its seqlock protocol and runs
// whole under managed blocking.
//
// Selection: WorldOptions::executor = ExecutorKind::kEvent, or
// GENCOLL_EXECUTOR=event — execute_threaded / execute_threaded_elastic
// dispatch here; the threaded engine stays the reference implementation.
#pragma once

#include <cstddef>
#include <vector>

#include "core/elastic.hpp"
#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "runtime/datatype.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

/// execute_threaded's contract (inputs/outputs/validation/error policy —
/// including the first-thrown-exception rethrow and elastic death
/// swallowing), executed on the event engine; input-validation errors name
/// execute_event. Does not re-dispatch on options.world.executor. Worker
/// count: GENCOLL_EVENT_WORKERS, else hardware_concurrency.
std::vector<std::vector<std::byte>> execute_event(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options = {});

/// execute_threaded_elastic's contract on the event engine: every rank runs
/// the elastic build -> execute -> commit -> recover loop as a phase machine
/// whose execute phase is the resumable cursor above and whose commit /
/// agreement rendezvous run under managed blocking. Outputs indexed by
/// ORIGINAL rank, dead ranks empty; `reports` as in the threaded front end.
std::vector<std::vector<std::byte>> execute_event_elastic(
    const CollParams& params, runtime::DataType type, runtime::ReduceOp op,
    const ElasticOptions& options, const InputProvider& provider,
    const runtime::WorldOptions& world_options,
    std::vector<ElasticReport>* reports = nullptr);

}  // namespace gencoll::core
