// Shared machinery for the schedule builders. Internal to src/core.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/coll_params.hpp"
#include "core/partition.hpp"
#include "core/schedule.hpp"

namespace gencoll::core::internal {

// Tag-space layout: composed schedules (gather+bcast, scatter+allgather+...)
// give each phase a disjoint tag block so messages can never cross phases.
inline constexpr int kTagPhaseStride = 1 << 20;
inline constexpr int kTagRoundStride = 8;  // <= 8 segment messages per round

/// Virtual-rank rotation: vrank 0 is the operation root.
inline int real_of(int vr, int rot, int p) { return (vr + rot) % p; }
inline int vrank_of(int rank, int rot, int p) { return (rank - rot + p) % p; }

/// Largest power of k that is <= p (k >= 2, p >= 1), with its exponent.
/// Used by the fold step of recursive multiplying / Rabenseifner.
struct CorePow {
  int core = 1;   ///< k^rounds
  int rounds = 0;
};
CorePow core_pow(int p, int k);

/// K-nomial scatter over vranks [0, parts) of a payload partitioned into
/// `parts` blocks at absolute offsets (block c = block_of(count, parts, c)).
/// Precondition: vrank 0's output already holds the full payload.
/// Postcondition: vrank c's output holds block c. Steps are appended to
/// sched.ranks[real_of(vr, rot, p)].
void append_knomial_scatter(Schedule& sched, int radix, int parts, int rot,
                            int tag_base);

/// Byte segments of slot range [lo, hi) for the folded-allgather layout over
/// a `parts`-block partition: slot c covers block c plus every folded block
/// core + c + m*core < core + rem (rem may exceed core when k > 2, in which
/// case several extras fold onto one core rank). Adjacent segments are
/// merged; with rem == 0 this is a single contiguous segment.
std::vector<Seg> slot_segs(const CollParams& params, int parts, int core, int rem,
                           int lo, int hi);

/// Recursive-multiplying allgather rounds over vranks [0, core) where
/// core = k^rounds. Each core vrank starts holding slot `vr` (see slot_segs);
/// after the rounds every core vrank holds all `core` slots.
void append_recmul_allgather_rounds(Schedule& sched, int k, int rounds, int parts,
                                    int core, int rem, int rot, int tag_base);

/// Byte segments of the p blocks of the p-block partition (entry b is
/// seg_of_blocks(count, elem_size, p, b, b + 1)), computed once per build.
std::vector<Seg> block_segs(const CollParams& params);

/// K-ring allgather rounds (paper §V-C) over all p ranks with group size k
/// (1 <= k <= p). Groups are consecutive vranks; when k does not divide p
/// the last group is smaller (the paper's "non-uniform group sizes" corner
/// case) and the inter-group hand-off maps stream blocks to receiving
/// members by index modulo the destination group's size. Each vrank starts
/// holding block vr of the p-block partition (absolute offsets); afterwards
/// everyone holds all p blocks. Groups of consecutive *vranks* equal
/// consecutive real ranks when rot == 0. `blocks` is block_segs(params).
void append_kring_allgather_rounds(Schedule& sched, int k, int rot, int tag_base,
                                   std::span<const Seg> blocks);

}  // namespace gencoll::core::internal
