// Counting replacement of the global allocation functions, for binaries that
// report or bound how much the program allocates. Linking the
// mulink_counting_new object library into an executable replaces every
// operator new / delete form of that process — plain, array, nothrow and
// aligned, so memory from any of them (std::stable_sort's nothrow buffer
// included) is released by the matching function — with malloc-backed
// versions that bump two relaxed counters.
#pragma once

#include <cstdint>

namespace mulink::counting_new {

// Heap allocations made through operator new so far, process-wide.
std::uint64_t Allocations();

// Bytes those allocations requested (not what the allocator rounded to).
std::uint64_t BytesRequested();

}  // namespace mulink::counting_new
