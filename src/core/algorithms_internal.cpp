#include "core/algorithms_internal.hpp"

#include <stdexcept>

#include "core/tree.hpp"

namespace gencoll::core::internal {

CorePow core_pow(int p, int k) {
  if (p < 1 || k < 2) throw std::invalid_argument("core_pow: need p >= 1, k >= 2");
  CorePow cp;
  // Grow core while core * k still fits in p (watch for overflow at huge k).
  while (cp.core <= p / k) {
    cp.core *= k;
    ++cp.rounds;
  }
  return cp;
}

void append_knomial_scatter(Schedule& sched, int radix, int parts, int rot,
                            int tag_base) {
  const CollParams& pr = sched.params;
  const KnomialTree tree(parts, radix);
  for (int vr = 0; vr < parts; ++vr) {
    RankProgram& prog = sched.ranks[static_cast<std::size_t>(real_of(vr, rot, pr.p))];
    // Receive this vrank's whole subtree range from the parent, then peel
    // off each child's subtree. Biggest subtree first so deep branches start
    // early (matches the bcast forwarding order).
    if (vr != 0) {
      const int parent = tree.parent(vr);
      const Seg mine =
          seg_of_blocks(pr.count, pr.elem_size, parts, vr, vr + tree.subtree_size(vr));
      prog.recv(real_of(parent, rot, pr.p), tag_base, mine.off, mine.len);
    }
    for (int child : tree.children_desc(vr)) {
      const Seg cs = seg_of_blocks(pr.count, pr.elem_size, parts, child,
                                   child + tree.subtree_size(child));
      prog.send(real_of(child, rot, pr.p), tag_base, cs.off, cs.len);
    }
  }
}

std::vector<Seg> slot_segs(const CollParams& params, int parts, int core, int rem,
                           int lo, int hi) {
  std::vector<Seg> segs;
  if (lo >= hi) return segs;
  const Seg head = seg_of_blocks(params.count, params.elem_size, parts, lo, hi);
  if (head.len > 0) segs.push_back(head);
  // Folded layers: layer m holds blocks core + m*core + [lo, hi), clipped to
  // the rem extras that exist.
  for (int m = 0; m * core + lo < rem; ++m) {
    const int layer_lo = core + m * core + lo;
    const int layer_hi = core + std::min(m * core + hi, rem);
    const Seg layer =
        seg_of_blocks(params.count, params.elem_size, parts, layer_lo, layer_hi);
    if (layer.len > 0) segs.push_back(layer);
  }
  return merge_segs(std::move(segs));
}

void append_recmul_allgather_rounds(Schedule& sched, int k, int rounds, int parts,
                                    int core, int rem, int rot, int tag_base) {
  const CollParams& pr = sched.params;
  long long stride = 1;  // k^i
  for (int i = 0; i < rounds; ++i) {
    const int tag = tag_base + i * kTagRoundStride;
    for (int vr = 0; vr < core; ++vr) {
      RankProgram& prog = sched.ranks[static_cast<std::size_t>(real_of(vr, rot, pr.p))];
      const int digit = static_cast<int>((vr / stride) % k);
      // Held slot range before this round: the stride-aligned window.
      const int my_lo = static_cast<int>((vr / stride) * stride);
      const int my_hi = static_cast<int>(my_lo + stride);
      // Post all sends first (buffered / non-blocking), then drain receives:
      // this is the overlap the paper's multiport model assumes (§II-B2).
      // Multi-segment payloads share one tag: matching is FIFO per
      // (source, tag) and both sides enumerate segments in the same order.
      const std::vector<Seg> mine = slot_segs(pr, parts, core, rem, my_lo, my_hi);
      for (int j = 0; j < k; ++j) {
        if (j == digit) continue;
        const int peer = vr + static_cast<int>((j - digit) * stride);
        for (const Seg& s : mine) {
          prog.send(real_of(peer, rot, pr.p), tag, s.off, s.len);
        }
      }
      for (int j = 0; j < k; ++j) {
        if (j == digit) continue;
        const int peer = vr + static_cast<int>((j - digit) * stride);
        const int peer_lo = static_cast<int>((peer / stride) * stride);
        const std::vector<Seg> theirs =
            slot_segs(pr, parts, core, rem, peer_lo, peer_lo + static_cast<int>(stride));
        for (const Seg& s : theirs) {
          prog.recv(real_of(peer, rot, pr.p), tag, s.off, s.len);
        }
      }
    }
    stride *= k;
  }
}

std::vector<Seg> block_segs(const CollParams& params) {
  std::vector<Seg> blocks(static_cast<std::size_t>(params.p));
  for (int b = 0; b < params.p; ++b) {
    blocks[static_cast<std::size_t>(b)] =
        seg_of_blocks(params.count, params.elem_size, params.p, b, b + 1);
  }
  return blocks;
}

void append_kring_allgather_rounds(Schedule& sched, int k, int rot, int tag_base,
                                   std::span<const Seg> blocks) {
  const CollParams& pr = sched.params;
  const int p = pr.p;
  if (k < 1 || k > p) {
    throw std::invalid_argument("kring rounds: require 1 <= k <= p");
  }
  const int g = (p + k - 1) / k;  // number of groups; last may be smaller

  const auto group_base = [&](int G) { return G * k; };
  const auto group_size = [&](int G) { return G == g - 1 ? p - k * (g - 1) : k; };
  auto prog_of = [&](int vr) -> RankProgram& {
    return sched.ranks[static_cast<std::size_t>(real_of(vr, rot, p))];
  };
  // Tag slots: k+1 rounds per phase (<= k-1 intra + 1 inter), group-local
  // numbering is consistent because intra messages stay within a group.
  const auto round_tag = [&](int phase, int slot) {
    return tag_base + (phase * (k + 1) + slot) * kTagRoundStride;
  };

  // "Stream" m = the blocks of group m. In phase j, group G circulates
  // stream m = (G - j) internally, then forwards it to group G + 1. At the
  // phase start member i of G holds the stream blocks base(m) + idx with
  // idx % sG == i, in increasing idx: its own block in phase 0, and
  // afterwards exactly what the previous phase's inter hand-off delivered
  // to it (several blocks per member when the groups are non-uniform).
  const auto for_each_start_block = [&](int m, int sG, int member, auto&& fn) {
    for (int idx = member; idx < group_size(m); idx += sG) fn(group_base(m) + idx);
  };

  for (int j = 0; j < g; ++j) {
    // Intra rounds first for every group (they are independent and must not
    // be ordered behind any inter receive): the size-sG ring circulates each
    // member's phase-start set; after sG-1 rounds every member holds all of
    // stream (G - j). In round t member i forwards the set it received in
    // round t-1, i.e. member (i - t + 1)'s phase-start set.
    for (int G = 0; G < g; ++G) {
      const int sG = group_size(G);
      const int base = group_base(G);
      const int m = ((G - j) % g + g) % g;
      for (int t = 1; t < sG; ++t) {
        const int tag = round_tag(j, t);
        for (int i = 0; i < sG; ++i) {
          RankProgram& prog = prog_of(base + i);
          const int right = (i + 1) % sG;
          const int left = (i - 1 + sG) % sG;
          const int right_peer = real_of(base + right, rot, p);
          const int left_peer = real_of(base + left, rot, p);
          for_each_start_block(m, sG, ((i - t + 1) % sG + sG) % sG, [&](int b) {
            const Seg& s = blocks[static_cast<std::size_t>(b)];
            prog.send(right_peer, tag, s.off, s.len);
          });
          for_each_start_block(m, sG, ((i - t) % sG + sG) % sG, [&](int b) {
            const Seg& s = blocks[static_cast<std::size_t>(b)];
            prog.recv(left_peer, tag, s.off, s.len);
          });
        }
      }
    }

    if (j == g - 1) break;  // final phase needs no hand-off

    // Inter hand-off: group G forwards stream (G - j) around the group ring
    // to G+1. Block `idx` of the stream travels from member (idx % sG) —
    // every member holds the full stream after the intra rounds — to member
    // (idx % s_{G+1}). Sends post for all groups before any receive so no
    // group's next phase is ordered behind another group's progress.
    for (int G = 0; G < g; ++G) {
      const int sG = group_size(G);
      const int dst = (G + 1) % g;
      const int sDst = group_size(dst);
      const int tag = round_tag(j, 0);
      const int m = ((G - j) % g + g) % g;
      const int stream_len = group_size(m);
      for (int idx = 0; idx < stream_len; ++idx) {
        const Seg& s = blocks[static_cast<std::size_t>(group_base(m) + idx)];
        prog_of(group_base(G) + idx % sG)
            .send(real_of(group_base(dst) + idx % sDst, rot, p), tag, s.off, s.len);
      }
    }
    for (int dst = 0; dst < g; ++dst) {
      const int src = (dst - 1 + g) % g;
      const int sSrc = group_size(src);
      const int sDst = group_size(dst);
      const int tag = round_tag(j, 0);
      const int m = ((src - j) % g + g) % g;
      const int stream_len = group_size(m);
      for (int idx = 0; idx < stream_len; ++idx) {
        const Seg& s = blocks[static_cast<std::size_t>(group_base(m) + idx)];
        prog_of(group_base(dst) + idx % sDst)
            .recv(real_of(group_base(src) + idx % sSrc, rot, p), tag, s.off, s.len);
      }
    }
  }
}

}  // namespace gencoll::core::internal
