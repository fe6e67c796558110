// Bounded lock-free ingest queue for serving shards.
//
// Layout is the classic sequence-stamped bounded queue (Vyukov): every cell
// carries an atomic sequence number that encodes whose turn the cell is on,
// so producer and consumers synchronize exclusively through cell-local
// acquire/release pairs — no locks, no shared mutable cursor between sides.
//
// The serving tier uses it single-producer (the demux thread) with TWO
// logical dequeuers: the shard worker pops frames, and under the
// drop-oldest back-pressure policy the *producer* legally dequeues-and-
// discards the oldest frame to make room. That second dequeuer is why the
// pop side uses a CAS on the tail cursor rather than a plain store — a
// producer-side overwrite of a cell the consumer is mid-copy on would be a
// data race; a CAS-claimed discard is not. The worker claims a run of cells
// with one CAS (TryConsumeBatch), which also makes the frames it has not
// scored yet private, so it may read ahead of the one it is scoring.
//
// Cells hold T by value and are written with copy-assignment, so element
// types that reuse heap capacity on assignment (wifi::CsiPacket) allocate
// only while the ring warms up — the steady state touches no allocator.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>

#include "common/annotations.h"
#include "common/assert.h"

namespace mulink::serve {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2) so cell indexing
  // is a mask, not a modulo.
  explicit SpscRing(std::size_t capacity) {
    MULINK_REQUIRE(capacity >= 2, "SpscRing: capacity must be >= 2");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    // mulink-lint: allow(alloc): ctor, setup path
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  // Producer only. False when the ring is full (caller picks the
  // back-pressure policy: reject, discard-oldest-and-retry, or spin).
  MULINK_HOT bool TryPush(const T& value) {
    // copy-assign: reuses the cell's heap capacity
    return TryProduce([&](T& cell) { cell = value; });
  }

  // In-place producer variant: instead of copy-assigning a caller-side
  // staging value into the cell, the writer callback fills the claimed
  // cell's T directly (reusing its heap capacity), saving one full copy of
  // T per enqueue on the hot path.
  template <typename Writer>
  MULINK_HOT bool TryProduce(Writer&& write) {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (seq != pos) return false;  // cell not yet released by dequeuers
    write(cell.data);
    cell.seq.store(pos + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_release);
    return true;
  }

  // Producer only: the drop-oldest back-pressure policy. Push, and while
  // the ring is full, discard the oldest UNCLAIMED element to make room.
  // When a dequeuer's claim holds the cell the push needs (the ring reads
  // less than full because the claimed run has left the queue), discarding
  // frees nothing the push can use, so the producer yields until that cell
  // is released instead. Returns the number of elements discarded: at most
  // one, unless a dequeuer claims the oldest element between the size check
  // and the discard.
  template <typename Writer>
  MULINK_HOT std::size_t ProduceDisplacing(Writer&& write) {
    std::size_t discarded = 0;
    while (!TryProduce(write)) {
      if (ApproxSize() == capacity()) {
        if (DiscardOldest()) ++discarded;
      } else {
        std::this_thread::yield();
      }
    }
    return discarded;
  }

  // A run of consecutive cells claimed by one TryConsumeBatch. The claim
  // makes them private to this dequeuer — neither the producer nor the
  // drop-oldest discarder can touch them — until each is released, front
  // to back, so the consumer may read elements ahead of the one it works on.
  class Batch {
   public:
    // One owner per claim: a copy would release its cells twice.
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    std::size_t size() const { return count_; }
    // Element i of the run; only unreleased elements may be touched.
    T& operator[](std::size_t i) const {
      MULINK_DASSERT(i >= released_ && i < count_);
      return ring_.cells_[(first_ + i) & ring_.mask_].data;
    }
    // Hand the oldest unreleased cell back to the producer.
    void ReleaseFront() {
      MULINK_DASSERT(released_ < count_);
      const std::size_t pos = first_ + released_++;
      ring_.cells_[pos & ring_.mask_].seq.store(pos + ring_.mask_ + 1,
                                                std::memory_order_release);
    }

   private:
    friend class SpscRing;
    Batch(SpscRing& ring, std::size_t first, std::size_t count)
        : ring_(ring), first_(first), count_(count) {}
    SpscRing& ring_;
    std::size_t first_;
    std::size_t count_;
    std::size_t released_ = 0;
  };

  // Any dequeuer. One CAS on the tail claims up to `max_count` filled cells
  // and runs `consume(batch)` on them in place; the callback releases cells
  // with ReleaseFront as it finishes them, and whatever it leaves claimed is
  // released when it returns. Returns the number claimed (0 when empty).
  template <typename Consumer>
  MULINK_HOT std::size_t TryConsumeBatch(std::size_t max_count,
                                         Consumer&& consume) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    std::size_t count = 0;
    do {
      // A filled cell stays filled until a dequeuer moves the tail past it,
      // so the run counted here is still whole if the CAS below succeeds;
      // a failed CAS (another dequeuer moved the tail) reloads pos.
      count = 0;
      while (count < max_count &&
             cells_[(pos + count) & mask_].seq.load(
                 std::memory_order_acquire) == pos + count + 1) {
        ++count;
      }
      if (count == 0) return 0;  // empty (or oldest cell still being filled)
    } while (!tail_.compare_exchange_weak(pos, pos + count,
                                          std::memory_order_relaxed));
    Batch batch(*this, pos, count);
    consume(batch);
    while (batch.released_ < count) batch.ReleaseFront();
    return count;
  }

  // Single-cell dequeuers over TryConsumeBatch. False when empty.
  // In place: `consume` runs on the claimed cell's T before its release.
  template <typename Consumer>
  MULINK_HOT bool TryConsume(Consumer&& consume) {
    return TryConsumeBatch(1, [&](Batch& batch) { consume(batch[0]); }) == 1;
  }
  // Copy-assigns into the caller's reusable slot.
  MULINK_HOT bool TryPop(T& out) {
    return TryConsume([&](T& cell) { out = cell; });
  }
  // Dequeue-and-discard the oldest element without copying it out (the
  // abandoned value is overwritten in place by a future push). The
  // producer's drop-oldest step (ProduceDisplacing).
  MULINK_HOT bool DiscardOldest() {
    return TryConsume([](T&) {});
  }

  // Racy snapshot (monitoring only — cursors move under the reader).
  std::size_t ApproxSize() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T data{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  // Separate cache lines so the producer's head updates don't false-share
  // with consumer-side tail traffic.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace mulink::serve
