// Threaded schedule executor: runs a Schedule on the in-process runtime with
// real buffers, one thread per rank. This is the correctness engine — every
// algorithm's data movement is proven here against reference.hpp before its
// timing is ever reported by the simulator.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/schedule.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/datatype.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/shm_group.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

/// Data-plane tuning for schedule execution. MUST be identical on every
/// rank of one collective (execute_threaded guarantees this; callers driving
/// execute_rank_program directly must pass the same tuning on all ranks,
/// since segmentation decisions are made symmetrically from step sizes).
struct ExecTuning {
  /// Post sends as zero-copy views into the local buffers instead of copying
  /// into pooled transport storage. Only sound for schedules the symbolic
  /// prover passes with CheckOptions::zero_copy (zero_copy_races == 0) AND
  /// when every rank's buffers outlive the whole collective (true under
  /// execute_threaded, which joins before returning). Ignored — falls back
  /// to copying — when reliability or fault injection is active.
  bool zero_copy = false;
  /// Steps moving at least this many bytes are pipelined into segments so
  /// the receiver's copy/reduce of segment i overlaps delivery of segment
  /// i+1. 0 disables pipelining. Ignored on non-plain transports.
  std::size_t pipeline_threshold = 256 * 1024;
  /// Segment size for pipelined steps (rounded down to an element multiple).
  std::size_t pipeline_segment = 64 * 1024;
  /// Force the scalar reduction backend (benchmark gate's naive mode).
  bool scalar_reduce = false;
  /// Spin/yield/sleep thresholds for every shared-segment wait of the
  /// hierarchical intra-node phases (runtime/shm_group.hpp).
  runtime::ShmWaitTuning shm_wait;
  /// Fragment size for multi-level shared-memory fan-in (core/hierarchy.hpp
  /// with a non-empty level vector): payloads stream through the tree levels
  /// in fragments of at most this many bytes, overlapping the levels instead
  /// of store-and-forwarding whole payloads. 0 disables fragmentation (one
  /// fragment). Rounded down to an element multiple (minimum one element).
  std::size_t shm_fragment_bytes = 128 * 1024;
};

/// Knobs for execute_threaded beyond the schedule itself.
struct ThreadedExecOptions {
  /// Tracing sink (see execute_threaded docs); nullptr disables.
  obs::TraceSink* sink = nullptr;
  /// Passed through to the World: fault plan, reliability, recv deadline.
  runtime::WorldOptions world;
  /// Data-plane tuning, applied uniformly to every rank.
  ExecTuning tuning;
};

/// Execute `sched` across World-spawned threads. inputs[r] must hold
/// input_bytes(params, r) bytes. Returns each rank's full output buffer
/// (n bytes each; contents of non-result ranks are whatever the algorithm
/// left as workspace). Throws on schedule/runtime errors, including receive
/// timeouts from malformed schedules.
///
/// When `sink` is non-null, every step emits an obs::SpanEvent (wall-clock
/// timestamps, obs::wallclock_us epoch) plus message post/match instants;
/// the sink sees concurrent calls for distinct ranks (obs::TraceSink
/// contract) and must outlive the call.
std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op, obs::TraceSink* sink = nullptr);

/// As above, with fault injection / reliability wired through: the World is
/// built from `options.world`, so a FaultPlan, reliable transport, or a short
/// receive deadline all apply to this execution. Rank failures surface as the
/// first thrown exception (typically gencoll::FaultError under injection).
std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options);

/// Execute one rank's program against an existing communicator. `output`
/// must have output_bytes(params) bytes. Exposed so the public API (api/)
/// can run collectives on long-lived communicators, and reused by
/// execute_threaded. `sink`, when non-null, receives this rank's step spans
/// and message instants (pipelined steps emit one span/instant per segment,
/// all carrying the step's index). `tuning` must match across ranks.
void execute_rank_program(const Schedule& sched, runtime::Communicator& comm,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, runtime::DataType type,
                          runtime::ReduceOp op, obs::TraceSink* sink = nullptr,
                          const ExecTuning& tuning = {});

/// Execute only steps [begin_step, end_step) of this rank's program. This is
/// the body of execute_rank_program without the validation prologue; the
/// hierarchical executor (core/hierarchy.hpp) uses it to run the leader-level
/// phase of a composed schedule between its shared-segment intra phases.
/// Callers are responsible for buffer validation and for setting the
/// communicator's trace sink.
void execute_step_range(const Schedule& sched, runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<std::byte> output, runtime::DataType type,
                        runtime::ReduceOp op, obs::TraceSink* sink,
                        const ExecTuning& tuning, std::size_t begin_step,
                        std::size_t end_step);

// Shared between the threaded step loop and the event executor's resumable
// cursor (core/event_exec.cpp) so span emission and segmentation cannot
// drift between engines. Not part of the public execution surface.
namespace exec_detail {

/// Emit one span (and message instant) after a step — or one segment of a
/// pipelined step — completed. `bytes` is the segment's size, so per-segment
/// spans of one step sum to the step's bytes. Component fields stay zero:
/// wall-clock execution has no cost model.
void emit_step(obs::TraceSink& sink, int rank, std::size_t step, const Step& s,
               std::size_t bytes, double begin_us, double end_us,
               int group = -1, obs::LinkClass link = obs::LinkClass::kUnknown);

/// Segment size for pipelined steps: the configured segment rounded down to
/// an element multiple, 0 when pipelining is off or cannot hold a whole
/// element. Both sides of a matched message derive segmentation from the
/// step's byte count alone, so sender and receiver always agree.
std::size_t pipeline_segment_bytes(const ExecTuning& tuning,
                                   std::size_t elem_size);

/// The whole-collective entry points' shared prologue: checks one input per
/// rank of exactly input_bytes(params, r) — std::invalid_argument prefixed
/// with `entry`, the entry point that runs — and returns the zeroed
/// per-rank outputs.
std::vector<std::vector<std::byte>> checked_outputs(
    const CollParams& params, const std::vector<std::vector<std::byte>>& inputs,
    std::string_view entry);

}  // namespace exec_detail

}  // namespace gencoll::core
