#pragma once

#include <cstdint>

namespace perfbench {

// Heap allocations made by this process so far (operator new, all forms).
std::uint64_t AllocCount();

}  // namespace perfbench
