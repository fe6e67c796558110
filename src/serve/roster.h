// Flat open-addressing roster: link id -> roster entry index.
//
// A shard worker looks a link up on every frame, so the table keeps that to
// one cache line whose address is known from the id alone (which is what
// lets the worker prefetch it frames ahead): power-of-two capacity, linear
// probing, {link_id, entry} stored inline, load factor at most one half.
// Deletion shifts the rest of the probe run back instead of leaving
// tombstones, so churn through millions of links never lengthens a probe.
// The table grows only on insert (link admission, the control plane);
// lookups and erases never allocate.
//
// Slots are indexed with the HIGH bits of LinkHash: ServeCore routes a link
// to shard LinkHash(id) % num_shards, so on a power-of-two shard count the
// low bits are the same for every id a shard holds, and a low-bit index
// would leave all but 1/num_shards of the slots empty.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "kernels/kernels.h"

namespace mulink::serve {

// splitmix64 finalizer: full-avalanche mix so structured link ids (dense
// ranges, strided ids) still spread evenly over shards and roster slots.
inline std::uint64_t LinkHash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class FlatRoster {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // Home slot of `link_id` at the current capacity (0 when empty).
  std::size_t Home(std::uint64_t link_id) const {
    return slots_.empty() ? 0
                          : static_cast<std::size_t>(LinkHash(link_id) >>
                                                     shift_);
  }

  // The entry stored for `link_id`, or kNone.
  std::uint32_t Find(std::uint64_t link_id) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = Home(link_id);; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.entry == kNone) return kNone;
      if (slot.link_id == link_id) return slot.entry;
    }
  }

  // Cache hint: start loading the home slot's line, so a Find a few frames
  // later hits (a run that spills into the next line costs one more miss).
  void Prefetch(std::uint64_t link_id) const {
    if (!slots_.empty()) kernels::Prefetch(&slots_[Home(link_id)]);
  }

  // Map `link_id` (not present) to `entry`. Grows before the table would
  // pass half full.
  void Insert(std::uint64_t link_id, std::uint32_t entry) {
    MULINK_REQUIRE(entry != kNone, "FlatRoster: reserved entry value");
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    Place(link_id, entry);
    ++size_;
  }

  // Remove `link_id` if present. Backward-shift deletion: each later slot
  // of the probe run that may legally sit in the hole (its home is not
  // between the hole and itself) moves back into it, and the hole moves on.
  void Erase(std::uint64_t link_id) {
    if (slots_.empty()) return;
    std::size_t hole = Home(link_id);
    for (;; hole = (hole + 1) & mask()) {
      if (slots_[hole].entry == kNone) return;  // not present
      if (slots_[hole].link_id == link_id) break;
    }
    for (std::size_t next = (hole + 1) & mask();; next = (next + 1) & mask()) {
      const Slot& slot = slots_[next];
      if (slot.entry == kNone) break;
      const std::size_t home = Home(slot.link_id);
      // Probe distances from the slot's home: it may move back iff the hole
      // is nearer to its home than the slot itself.
      if (((hole - home) & mask()) < ((next - home) & mask())) {
        slots_[hole] = slot;
        hole = next;
      }
    }
    slots_[hole].entry = kNone;
    --size_;
  }

 private:
  struct Slot {
    std::uint64_t link_id = 0;
    std::uint32_t entry = kNone;
  };
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const { return slots_.size() - 1; }

  void Place(std::uint64_t link_id, std::uint32_t entry) {
    std::size_t i = Home(link_id);
    while (slots_[i].entry != kNone) i = (i + 1) & mask();
    slots_[i] = Slot{link_id, entry};
  }

  void Rehash(std::size_t capacity) {
    // mulink-lint: allow(alloc): roster growth on link admission, control plane
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.entry != kNone) Place(slot.link_id, slot.entry);
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace mulink::serve
