// Pool of float buffers recycled across engine jobs and worker threads.
//
// Every job needs a scratch grid the size of its input for the executor's
// ping-pong buffering (StencilAccelerator::run and run_concurrent both
// allocate one per call when not handed storage), and every block worker
// that runs the interpreter needs a pair of lane buffers
// (RunOptions::pool). Under a stream
// of jobs that allocation dominates setup for small grids, so the engine
// leases backing stores from this pool instead: a released vector keeps
// its capacity, and the next job of the same (or smaller) footprint runs
// allocation-free. The pool is what makes "zero buffer growth after
// warm-up" a testable property (see EngineStats and tests/engine_test).
// Lives in common/ so execution layers below the engine can lease from it.
//
// Thread-safe; acquire picks the smallest retained buffer whose capacity
// fits the request (best fit), so mixed job sizes don't pathologically
// pin large buffers on small jobs.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace fpga_stencil {

class BufferPool {
 public:
  /// Retains at most `max_retained` idle buffers; releases beyond that
  /// free their memory immediately.
  explicit BufferPool(std::size_t max_retained = 64)
      : max_retained_(max_retained) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer resized to `size`; contents unspecified. Reuses a retained
  /// buffer when one with sufficient capacity exists, else allocates.
  [[nodiscard]] std::vector<float> acquire(std::size_t size);

  /// Returns a buffer to the pool (capacity kept, contents ignored).
  /// Empty vectors -- e.g. storage lost to an aborted pass -- are dropped.
  void release(std::vector<float> buffer);

  /// RAII lease: acquires on construction, releases on destruction.
  class Lease {
   public:
    Lease(BufferPool& pool, std::size_t size)
        : pool_(&pool), buffer_(pool.acquire(size)) {}
    ~Lease() {
      if (pool_) pool_->release(std::move(buffer_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] std::vector<float>& buffer() { return buffer_; }

   private:
    BufferPool* pool_;
    std::vector<float> buffer_;
  };

  /// Total acquire() calls.
  [[nodiscard]] std::int64_t acquires() const;
  /// Acquires that had to allocate a new backing store. Constant across a
  /// warm steady state -- the no-growth invariant tests pin this.
  [[nodiscard]] std::int64_t allocations() const;
  /// Acquires served from a retained buffer.
  [[nodiscard]] std::int64_t reuses() const;
  /// Buffers acquired but not yet released (leases in flight). Zero on an
  /// idle engine -- the chaos campaign's no-leak invariant. Releases of
  /// empty vectors (storage lost to an aborted/cancelled pass) still
  /// count: the lease came back, only its capacity was dropped.
  [[nodiscard]] std::int64_t outstanding() const;
  /// Buffers currently idle in the pool.
  [[nodiscard]] std::size_t retained() const;
  /// Bytes of capacity currently idle in the pool.
  [[nodiscard]] std::int64_t retained_bytes() const;

  /// Drops every retained buffer (benchmarks measuring cold setup).
  void clear();

 private:
  const std::size_t max_retained_;
  mutable std::mutex mu_;
  std::vector<std::vector<float>> free_;
  std::int64_t acquires_ = 0;
  std::int64_t allocations_ = 0;
  std::int64_t reuses_ = 0;
  std::int64_t releases_ = 0;
};

}  // namespace fpga_stencil
