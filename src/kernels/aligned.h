// 64-byte-aligned, grow-only double buffer backing the SoA workspaces.
//
// The scoring hot path pre-sizes these during calibration / the first
// window; Ensure() on an already-large-enough buffer is a branch and a
// store, so steady-state decisions never allocate (mulink-analyze fences the
// directories this is used from).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "common/assert.h"

namespace mulink::kernels {

class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  AlignedBuffer(const AlignedBuffer& other) { CopyFrom(other); }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  ~AlignedBuffer() { Release(); }

  // Grow-only resize; contents are unspecified after a growth (every caller
  // fills the buffer right after). Shrinking requests just adjust size().
  void Ensure(std::size_t n) {
    if (n > capacity_) {
      Release();
      data_ = Allocate(n);  // mulink-lint: allow(alloc): grow-only, cold after warmup
      capacity_ = n;
    }
    size_ = n;
  }

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

 private:
  static double* Allocate(std::size_t n) {
    // Round the byte size up to the 64-byte alignment quantum as
    // std::aligned_alloc requires.
    const std::size_t bytes = (n * sizeof(double) + 63) / 64 * 64;
    void* p = std::aligned_alloc(64, bytes);  // mulink-lint: allow(alloc): cold growth
    MULINK_REQUIRE(p != nullptr, "AlignedBuffer allocation failed");
    return static_cast<double*>(p);
  }

  void CopyFrom(const AlignedBuffer& other) {
    data_ = nullptr;
    size_ = other.size_;
    capacity_ = other.size_;
    if (size_ > 0) {
      data_ = Allocate(size_);
      std::memcpy(data_, other.data_, size_ * sizeof(double));
    }
  }

  void Release() {
    std::free(data_);  // mulink-lint: allow(alloc): paired with aligned_alloc above
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace mulink::kernels
