// Compile-time contract annotations: hot-path markers and Clang
// thread-safety capabilities (DESIGN.md §16).
//
// Two annotation families live here:
//
//  * MULINK_HOT marks a function as part of the per-decision hot path. It
//    is a codegen hint only: on GCC/Clang it maps to [[gnu::hot]] so the
//    optimizer groups the marked functions. The no-allocation contract is
//    enforced TU-wide by tools/mulink-analyze (rule hot-path-alloc), not
//    through this marker.
//
//  * The MULINK_CAPABILITY / MULINK_GUARDED_BY / MULINK_REQUIRES /
//    MULINK_ACQUIRE / MULINK_RELEASE family wires Clang's -Wthread-safety
//    analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html)
//    through the concurrency layer. On Clang with MULINK_STRICT the build
//    runs -Werror=thread-safety, so touching a guarded field without its
//    capability is a compile error; on every other compiler the macros
//    expand to nothing and the code is unchanged.
//
// Most of mulink's cross-thread state is not mutex-protected — it is
// OWNED: shard state belongs to the shard's worker thread, routing
// counters to the demux thread, a link's calibrator to whichever thread
// is driving that link's decisions. ThreadRole below models exactly that
// discipline as a phantom capability: the owning loop acquires the role
// once (ScopedRole), every function touching the owned state REQUIRES it,
// and callbacks that provably run under the role re-assert it
// (AssertHeld). The capability never exists at runtime — no lock, no
// atomic, no cost — but Clang now proves that, say, ServeCore::Stats()
// cannot silently grow a read of worker-owned roster state without either
// holding the role or carrying an explicit do-not-analyze waiver.
#pragma once

#include <mutex>

// ---------------------------------------------------------------------------
// Hot-path marker (codegen hint).
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
#define MULINK_HOT [[gnu::hot]]
#else
#define MULINK_HOT
#endif

// ---------------------------------------------------------------------------
// Clang thread-safety capability attributes (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MULINK_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MULINK_THREAD_ANNOTATION
#define MULINK_THREAD_ANNOTATION(x)  // not Clang: expands to nothing
#endif

#define MULINK_CAPABILITY(name) MULINK_THREAD_ANNOTATION(capability(name))
#define MULINK_SCOPED_CAPABILITY MULINK_THREAD_ANNOTATION(scoped_lockable)
#define MULINK_GUARDED_BY(x) MULINK_THREAD_ANNOTATION(guarded_by(x))
#define MULINK_PT_GUARDED_BY(x) MULINK_THREAD_ANNOTATION(pt_guarded_by(x))
#define MULINK_REQUIRES(...) \
  MULINK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MULINK_ACQUIRE(...) \
  MULINK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MULINK_RELEASE(...) \
  MULINK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MULINK_TRY_ACQUIRE(...) \
  MULINK_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define MULINK_EXCLUDES(...) \
  MULINK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define MULINK_ASSERT_CAPABILITY(x) \
  MULINK_THREAD_ANNOTATION(assert_capability(x))
#define MULINK_RETURN_CAPABILITY(x) MULINK_THREAD_ANNOTATION(lock_returned(x))
#define MULINK_NO_THREAD_SAFETY_ANALYSIS \
  MULINK_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mulink {

// Phantom capability for single-owner state. Acquire/Release generate no
// code; they exist so Clang's analysis can watch the ownership hand-off.
// One ThreadRole instance per ownership domain (e.g. a serving shard's
// worker role, the demux thread's producer role).
class MULINK_CAPABILITY("role") ThreadRole {
 public:
  // Copy/move keep the host object (LinkCalibrator, shard slabs) regular;
  // a copied role is a fresh capability for the copied owner's state.
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) {}
  ThreadRole& operator=(const ThreadRole&) { return *this; }

  void Acquire() MULINK_ACQUIRE() {}
  void Release() MULINK_RELEASE() {}
  // For callbacks that provably run under the role but whose enclosing
  // lambda hides the acquisition from the analysis (it treats a lambda
  // body as a fresh function with no capabilities held).
  void AssertHeld() const MULINK_ASSERT_CAPABILITY(this) {}
};

// RAII role acquisition for an owning loop's scope.
class MULINK_SCOPED_CAPABILITY ScopedRole {
 public:
  explicit ScopedRole(ThreadRole& role) MULINK_ACQUIRE(role) : role_(role) {
    role_.Acquire();
  }
  ~ScopedRole() MULINK_RELEASE() { role_.Release(); }
  ScopedRole(const ScopedRole&) = delete;
  ScopedRole& operator=(const ScopedRole&) = delete;

 private:
  ThreadRole& role_;
};

// std::mutex with the capability attribute Clang's analysis needs —
// GUARDED_BY must name an annotated type, and the std type is not one.
// Same codegen as the raw mutex everywhere.
class MULINK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MULINK_ACQUIRE() { mu_.lock(); }
  void Unlock() MULINK_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock for Mutex (std::lock_guard cannot carry the annotations).
class MULINK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MULINK_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MULINK_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace mulink
