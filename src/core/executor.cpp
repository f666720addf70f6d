#include "core/executor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/event_exec.hpp"
#include "core/hierarchy.hpp"
#include "runtime/event_pool.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

namespace {

obs::SpanKind span_kind_of(StepKind kind) {
  switch (kind) {
    case StepKind::kCopyInput: return obs::SpanKind::kCopyInput;
    case StepKind::kSend: return obs::SpanKind::kSend;
    case StepKind::kSendInput: return obs::SpanKind::kSendInput;
    case StepKind::kRecv: return obs::SpanKind::kRecv;
    case StepKind::kRecvReduce: return obs::SpanKind::kRecvReduce;
  }
  return obs::SpanKind::kSend;
}

}  // namespace

namespace exec_detail {

void emit_step(obs::TraceSink& sink, int rank, std::size_t step, const Step& s,
               std::size_t bytes, double begin_us, double end_us,
               int group, obs::LinkClass link) {
  obs::SpanEvent ev;
  ev.kind = span_kind_of(s.kind);
  ev.rank = rank;
  ev.step = static_cast<std::int32_t>(step);
  ev.bytes = bytes;
  ev.begin_us = begin_us;
  ev.end_us = end_us;
  ev.group = group;
  if (s.kind != StepKind::kCopyInput) {
    ev.peer = s.peer;
    ev.tag = s.tag;
    ev.link = link;
  }
  if (obs::is_send(ev.kind)) ev.post_us = end_us;
  sink.span(ev);

  if (s.kind == StepKind::kCopyInput) return;
  obs::InstantEvent inst;
  inst.kind = obs::is_send(ev.kind) ? obs::InstantKind::kMessagePost
                                    : obs::InstantKind::kMessageMatch;
  inst.rank = rank;
  inst.peer = s.peer;
  inst.tag = s.tag;
  inst.bytes = bytes;
  inst.time_us = end_us;
  sink.instant(inst);
}

std::size_t pipeline_segment_bytes(const ExecTuning& tuning, std::size_t elem_size) {
  if (tuning.pipeline_threshold == 0 || tuning.pipeline_segment == 0) return 0;
  return tuning.pipeline_segment - tuning.pipeline_segment % elem_size;
}

std::vector<std::vector<std::byte>> checked_outputs(
    const CollParams& params, const std::vector<std::vector<std::byte>>& inputs,
    std::string_view entry) {
  const std::string prefix(entry);
  if (inputs.size() != static_cast<std::size_t>(params.p)) {
    throw std::invalid_argument(prefix + ": wrong number of inputs");
  }
  for (int r = 0; r < params.p; ++r) {
    if (inputs[static_cast<std::size_t>(r)].size() != input_bytes(params, r)) {
      throw std::invalid_argument(prefix + ": input size mismatch at rank " +
                                  std::to_string(r));
    }
  }
  return std::vector<std::vector<std::byte>>(
      static_cast<std::size_t>(params.p),
      std::vector<std::byte>(output_bytes(params)));
}

}  // namespace exec_detail

using exec_detail::emit_step;
using exec_detail::pipeline_segment_bytes;

void execute_rank_program(const Schedule& sched, runtime::Communicator& comm,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, runtime::DataType type,
                          runtime::ReduceOp op, obs::TraceSink* sink,
                          const ExecTuning& tuning) {
  const CollParams& pr = sched.params;
  if (comm.size() != pr.p) {
    throw std::invalid_argument("execute_rank_program: communicator size != p");
  }
  if (runtime::datatype_size(type) != pr.elem_size) {
    throw std::invalid_argument("execute_rank_program: elem_size != datatype size");
  }
  const int rank = comm.rank();
  // Keep the communicator's sink in lockstep with the executor's so
  // reliability instants (retransmit / corrupt-detected / abort) land in the
  // same trace as the step spans.
  comm.set_trace_sink(sink);
  if (input.size() < input_bytes(pr, rank)) {
    throw std::invalid_argument("execute_rank_program: input too small");
  }
  if (output.size() < output_bytes(pr)) {
    throw std::invalid_argument("execute_rank_program: output too small");
  }

  execute_step_range(sched, comm, input, output, type, op, sink, tuning, 0,
                     sched.ranks[static_cast<std::size_t>(rank)].steps.size());
}

void execute_step_range(const Schedule& sched, runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<std::byte> output, runtime::DataType type,
                        runtime::ReduceOp op, obs::TraceSink* sink,
                        const ExecTuning& tuning, std::size_t begin_step,
                        std::size_t end_step) {
  const CollParams& pr = sched.params;
  const int rank = comm.rank();

  // The fast paths require the plain in-process transport: reliability and
  // fault injection own the wire bytes (envelopes, retransmits) and number
  // whole messages, so both zero-copy views and segmentation stand down.
  // plain_transport() comes from WorldOptions and is uniform across ranks.
  const bool plain = comm.plain_transport();
  const bool zero_copy = tuning.zero_copy && plain;
  const std::size_t seg_bytes =
      plain ? pipeline_segment_bytes(tuning, pr.elem_size) : 0;
  const auto reduce_fn =
      tuning.scalar_reduce ? runtime::apply_reduce_scalar : runtime::apply_reduce;

  // Hierarchical schedules carry topology: classify each message as intra-
  // or inter-group so obs metrics split traffic by link class.
  const int gsize = sched.hier ? sched.hier->group_size : 0;
  const int group = gsize > 1 ? rank / gsize : -1;
  const auto link_of = [&](const Step& st) {
    if (gsize <= 1 || st.kind == StepKind::kCopyInput || st.peer < 0) {
      return obs::LinkClass::kUnknown;
    }
    return st.peer / gsize == group ? obs::LinkClass::kIntra
                                    : obs::LinkClass::kInter;
  };

  const auto& steps = sched.ranks[static_cast<std::size_t>(rank)].steps;
  for (std::size_t i = begin_step; i < end_step; ++i) {
    const Step& s = steps[i];
    double begin_us = sink != nullptr ? obs::wallclock_us() : 0.0;

    if (s.kind == StepKind::kCopyInput) {
      // Zero-byte copies happen for degenerate schedules; an empty span's
      // data() may be null, and memcpy's pointer args must be non-null.
      if (s.bytes != 0) {
        std::memcpy(output.data() + s.off, input.data() + s.src_off, s.bytes);
      }
      if (sink != nullptr) {
        emit_step(*sink, rank, i, s, s.bytes, begin_us, obs::wallclock_us(),
                  group);
      }
      continue;
    }

    // Communication step, possibly pipelined: both endpoints of a matched
    // message split identically because matched steps carry equal byte
    // counts (validated at schedule build) and segmentation depends only on
    // the count. Segments share the step's (peer, tag) channel; the
    // transport's per-channel FIFO keeps them in order.
    const bool pipelined =
        seg_bytes != 0 && s.bytes >= tuning.pipeline_threshold && s.bytes > seg_bytes;
    const std::size_t chunk = pipelined ? seg_bytes : s.bytes;
    std::size_t done = 0;
    do {
      const std::size_t len = std::min(chunk, s.bytes - done);
      switch (s.kind) {
        case StepKind::kSend:
          if (zero_copy) {
            comm.send_view(s.peer, s.tag, output.subspan(s.off + done, len));
          } else {
            comm.send(s.peer, s.tag, output.subspan(s.off + done, len));
          }
          break;
        case StepKind::kSendInput:
          if (zero_copy) {
            comm.send_view(s.peer, s.tag, input.subspan(s.src_off + done, len));
          } else {
            comm.send(s.peer, s.tag, input.subspan(s.src_off + done, len));
          }
          break;
        case StepKind::kRecv: {
          const runtime::Message m = comm.recv_msg(s.peer, s.tag, len);
          if (len != 0) {
            std::memcpy(output.data() + s.off + done, m.bytes().data(), len);
          }
          break;
        }
        case StepKind::kRecvReduce: {
          // Reduce straight out of the matched message (a pooled buffer or
          // the sender's own memory under zero-copy) — no staging copy.
          const runtime::Message m = comm.recv_msg(s.peer, s.tag, len);
          reduce_fn(op, type, output.subspan(s.off + done, len), m.bytes(),
                    len / pr.elem_size);
          break;
        }
        case StepKind::kCopyInput:
          break;  // handled above
      }
      done += len;
      if (sink != nullptr) {
        const double now_us = obs::wallclock_us();
        emit_step(*sink, rank, i, s, len, begin_us, now_us, group, link_of(s));
        begin_us = now_us;
      }
    } while (done < s.bytes);
  }
}

std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op, obs::TraceSink* sink) {
  ThreadedExecOptions options;
  options.sink = sink;
  return execute_threaded(sched, inputs, type, op, options);
}

std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options) {
  // Engine dispatch: explicit option > GENCOLL_EXECUTOR > thread-per-rank.
  if (runtime::resolve_executor(options.world.executor) ==
      runtime::ExecutorKind::kEvent) {
    return execute_event(sched, inputs, type, op, options);
  }
  const CollParams& pr = sched.params;
  obs::TraceSink* sink = options.sink;
  auto outputs = exec_detail::checked_outputs(pr, inputs, "execute_threaded");

  runtime::World::run(
      pr.p,
      [&](runtime::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        if (sched.hier) {
          execute_hierarchical(sched, comm, inputs[r], outputs[r], type, op,
                               sink, options.tuning);
        } else {
          execute_rank_program(sched, comm, inputs[r], outputs[r], type, op,
                               sink, options.tuning);
        }
      },
      options.world);
  return outputs;
}

}  // namespace gencoll::core
