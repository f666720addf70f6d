// Size-classed message-buffer pool: the allocator behind the mailbox
// transport's hot path.
//
// A buffered send needs a payload-sized byte buffer that lives from the
// sender's post until the receiver consumes the match — historically a fresh
// heap vector per message. At collective rates (p ranks x log_k p rounds x
// pipelined segments) that is an allocator round-trip per message on the
// critical path. The pool recycles those buffers: release returns the
// storage to a per-size-class freelist, and the next acquire of a similar
// size reuses it, so steady-state execution performs zero allocations per
// message (the bench-gate CI leg pins allocs/op to O(1)). Payloads of at
// most kInlinePayloadBytes on the plain transport travel inside the Message
// instead and never reach the pool (runtime/mailbox.hpp); fault-injected
// and reliable sends always use pooled or adopted storage.
//
// Design:
//   * Size classes are powers of two from kMinClassBytes up to
//     kMaxPooledBytes; a request is served from the class that rounds its
//     byte count up, so a recycled buffer's capacity always fits. Requests
//     above kMaxPooledBytes bypass the freelists (alloc/free per use) so a
//     single giant transfer cannot pin its footprint forever.
//   * Thread safety: buffers are acquired on the sending rank's thread and
//     released on the receiving rank's thread (cross-thread handoff is the
//     common case). Freelists are guarded by one mutex per size class;
//     statistics counters are atomics so readers (bench gate, tests, TSan
//     legs) never race the hot path.
//   * PoolBuffer is the RAII handle: vector-like surface, movable,
//     releases its storage back to the pool on destruction. A PoolBuffer
//     can also adopt a plain vector (pool_ == nullptr), which keeps the
//     fault-transport envelope paths — which shuttle payloads through
//     std::vector — working unchanged; adopted storage is heap-freed, not
//     recycled.
//   * Bypass mode (set_bypass) turns the pool into a plain allocator while
//     keeping the counters; the benchmark gate uses it to measure the
//     unpooled data plane for its speedup_vs_naive column.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace gencoll::runtime {

class BufferPool;

/// RAII handle to pool-backed (or adopted) byte storage. Movable only; the
/// destructor returns pooled storage to its freelist.
class PoolBuffer {
 public:
  PoolBuffer() = default;
  PoolBuffer(PoolBuffer&& other) noexcept
      : storage_(std::move(other.storage_)), pool_(other.pool_) {
    other.pool_ = nullptr;
    other.storage_.clear();
  }
  PoolBuffer& operator=(PoolBuffer&& other) noexcept {
    if (this != &other) {
      release();
      storage_ = std::move(other.storage_);
      pool_ = other.pool_;
      other.pool_ = nullptr;
      other.storage_.clear();
    }
    return *this;
  }
  /// Adopt a plain heap vector (no pool; storage is freed, not recycled).
  PoolBuffer& operator=(std::vector<std::byte>&& v) noexcept {
    release();
    pool_ = nullptr;
    storage_ = std::move(v);
    return *this;
  }
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;
  ~PoolBuffer() { release(); }

  [[nodiscard]] std::byte* data() { return storage_.data(); }
  [[nodiscard]] const std::byte* data() const { return storage_.data(); }
  [[nodiscard]] std::size_t size() const { return storage_.size(); }
  [[nodiscard]] bool empty() const { return storage_.empty(); }
  std::byte& operator[](std::size_t i) { return storage_[i]; }
  const std::byte& operator[](std::size_t i) const { return storage_[i]; }
  [[nodiscard]] std::span<std::byte> span() { return storage_; }
  [[nodiscard]] std::span<const std::byte> span() const { return storage_; }
  operator std::span<const std::byte>() const { return storage_; }  // NOLINT

  /// Vector-compat mutators (tests and adopted-storage paths). Growth of an
  /// adopted/unpooled buffer reallocates normally; growth within a pooled
  /// buffer's size-class capacity does not.
  void resize(std::size_t n, std::byte fill = std::byte{0}) {
    storage_.resize(n, fill);
  }
  void assign(std::size_t n, std::byte value) { storage_.assign(n, value); }

  /// Detach the storage from the pool and return it as a plain vector (the
  /// handle becomes empty). Used by the reliable transport's reorder stash;
  /// detached storage is heap-freed by its new owner instead of recycled.
  std::vector<std::byte> take() &&;

  /// True when backed by a pool freelist (diagnostics/tests).
  [[nodiscard]] bool pooled() const { return pool_ != nullptr; }

 private:
  friend class BufferPool;
  PoolBuffer(std::vector<std::byte> storage, BufferPool* pool)
      : storage_(std::move(storage)), pool_(pool) {}
  void release() noexcept;

  std::vector<std::byte> storage_;
  BufferPool* pool_ = nullptr;
};

/// Snapshot of pool counters (all monotonic except outstanding/cached).
struct BufferPoolStats {
  std::uint64_t acquires = 0;       ///< total acquire() calls
  std::uint64_t allocations = 0;    ///< acquires that hit the heap
  std::uint64_t recycles = 0;       ///< acquires served from a freelist
  std::uint64_t oversize = 0;       ///< acquires above kMaxPooledBytes
  std::uint64_t releases = 0;       ///< buffers returned to a freelist
  std::uint64_t detached = 0;       ///< buffers taken out of pool ownership
  std::uint64_t outstanding = 0;    ///< live pooled buffers right now
  std::uint64_t cached_buffers = 0; ///< buffers sitting in freelists
  std::uint64_t cached_bytes = 0;   ///< capacity held by freelists
};

class BufferPool {
 public:
  static constexpr std::size_t kMinClassBytes = 256;
  static constexpr std::size_t kMaxPooledBytes = std::size_t{1} << 24;  // 16 MiB

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer of exactly `bytes` logical size, with capacity rounded up to
  /// the size class. Reuses freelisted storage when available.
  PoolBuffer acquire(std::size_t bytes);

  /// Size-class capacity serving a request of `bytes` (power of two in
  /// [kMinClassBytes, kMaxPooledBytes]); `bytes` itself above the cap.
  static std::size_t size_class(std::size_t bytes);

  [[nodiscard]] BufferPoolStats stats() const;

  /// Drop every freelisted buffer (footprint control; tests).
  void trim();

  /// Bypass mode: acquire always allocates and release always frees, but
  /// counters keep running. The benchmark gate's "naive" configuration.
  void set_bypass(bool bypass) { bypass_.store(bypass, std::memory_order_relaxed); }
  [[nodiscard]] bool bypass() const { return bypass_.load(std::memory_order_relaxed); }

 private:
  friend class PoolBuffer;
  void release(std::vector<std::byte> storage) noexcept;
  static std::size_t class_index(std::size_t capacity);

  static constexpr std::size_t kClassCount = 17;  // 256 B .. 16 MiB

  struct ShardedFreelist {
    mutable std::mutex mu;
    std::vector<std::vector<std::byte>> buffers;
  };
  ShardedFreelist classes_[kClassCount];

  std::atomic<std::uint64_t> acquires_{0};
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> recycles_{0};
  std::atomic<std::uint64_t> oversize_{0};
  std::atomic<std::uint64_t> releases_{0};
  std::atomic<std::uint64_t> detached_{0};
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<bool> bypass_{false};
};

}  // namespace gencoll::runtime
