// Clang thread-safety (capability) analysis for the concurrent tiers.
//
// The serving path (memory_service's epoch gate and stripe locks), the
// campaign runner's work-stealing pool and the driver's pacing state
// all promise the same thing: integer results that are bit-identical at
// any thread count. The dynamic TSan CI lane checks the schedules a run
// happens to exercise; the annotations here make the *locking
// discipline itself* a compile-time property — `-Wthread-safety
// -Werror` on the Clang lanes rejects any access to guarded state
// without its capability, on every build, before any test runs.
//
// Usage
// -----
//  * Declare lock members as ts_mutex / ts_shared_mutex (annotated
//    capability types: ts_mutex wraps std::mutex, ts_shared_mutex is a
//    reader-sharded lock; the annotations vanish off-Clang).
//  * Tag protected members with URMEM_GUARDED_BY(lock_) (or
//    URMEM_PT_GUARDED_BY for pointees) and lock-discipline functions
//    with URMEM_REQUIRES / URMEM_REQUIRES_SHARED / URMEM_EXCLUDES.
//  * Take locks through the scoped types below (ts_lock_guard,
//    ts_unique_lock, ts_shared_lock) — std::scoped_lock and friends are
//    invisible to the analysis.
//  * Condition waits go through ts_condition_variable::wait(mutex)
//    inside a caller-side predicate loop; there is deliberately no
//    predicate overload, because the analysis treats a lambda as a
//    separate function and would not see the held capability inside it.
//
// Everything expands to nothing on compilers without the capability
// attributes (GCC, MSVC), so the annotated tree builds identically
// everywhere; only Clang checks it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "urmem/common/contracts.hpp"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define URMEM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef URMEM_THREAD_ANNOTATION
#define URMEM_THREAD_ANNOTATION(x)  // no capability analysis on this compiler
#endif

/// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define URMEM_CAPABILITY(x) URMEM_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define URMEM_SCOPED_CAPABILITY URMEM_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable only with `x` held (shared) and writable only
/// with `x` held exclusively.
#define URMEM_GUARDED_BY(x) URMEM_THREAD_ANNOTATION(guarded_by(x))
/// Pointer/smart-pointer member whose *pointee* is protected by `x`.
#define URMEM_PT_GUARDED_BY(x) URMEM_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (exclusively / shared) and returns
/// with it held.
#define URMEM_ACQUIRE(...) \
  URMEM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define URMEM_ACQUIRE_SHARED(...) \
  URMEM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (generic release also covers a
/// shared hold, which is what scoped-lock destructors want).
#define URMEM_RELEASE(...) \
  URMEM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define URMEM_RELEASE_SHARED(...) \
  URMEM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability only when returning `true`.
#define URMEM_TRY_ACQUIRE(...) \
  URMEM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must already hold the capability (exclusively / shared).
#define URMEM_REQUIRES(...) \
  URMEM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define URMEM_REQUIRES_SHARED(...) \
  URMEM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (non-reentrant entry points).
#define URMEM_EXCLUDES(...) URMEM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define URMEM_RETURN_CAPABILITY(x) URMEM_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for patterns the analysis cannot express (for example a
/// lock chosen by runtime index and released through a different hook).
/// Every use carries a comment saying why the analysis cannot see it.
#define URMEM_NO_THREAD_SAFETY_ANALYSIS \
  URMEM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace urmem {

/// std::mutex with capability annotations. Take it through
/// ts_lock_guard; lock()/unlock() stay public for the rare manual site.
class URMEM_CAPABILITY("mutex") ts_mutex {
 public:
  ts_mutex() = default;
  ts_mutex(const ts_mutex&) = delete;
  ts_mutex& operator=(const ts_mutex&) = delete;

  void lock() URMEM_ACQUIRE() { mutex_.lock(); }
  void unlock() URMEM_RELEASE() { mutex_.unlock(); }
  bool try_lock() URMEM_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class ts_condition_variable;
  std::mutex mutex_;
};

/// Bytes per cache line: the padding unit that keeps per-thread hot
/// state off other threads' lines.
inline constexpr std::size_t cache_line_bytes = 64;

/// Number of per-thread slots in sharded state (ts_shared_mutex reader
/// counts, memory_service traffic counters). Threads beyond this many
/// share slots: still correct, only no longer contention-free.
inline constexpr std::size_t thread_slots = 16;

/// This thread's slot in [0, thread_slots): assigned round-robin on a
/// thread's first call and fixed for its lifetime, so threads started
/// together (one client pool) land on distinct slots.
inline std::size_t this_thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % thread_slots;
  return slot;
}

/// Reader-sharded shared mutex with capability annotations (exclusive =
/// writer / epoch boundary, shared = readers / traffic).
///
/// A reader increments the count of its own cache-line-padded slot,
/// then checks the writer flag; a writer raises the flag, then waits
/// for every slot to drain. Both sides use sequentially consistent
/// operations, so either the writer sees the reader's count or the
/// reader sees the flag (and backs out until the writer leaves).
/// Readers on distinct slots therefore share no written cache line.
/// Writers are serialized among themselves by a plain mutex. A thread
/// must not take the shared side twice (a waiting writer would deadlock
/// the second acquisition).
class URMEM_CAPABILITY("shared_mutex") ts_shared_mutex {
 public:
  ts_shared_mutex() = default;
  ts_shared_mutex(const ts_shared_mutex&) = delete;
  ts_shared_mutex& operator=(const ts_shared_mutex&) = delete;

  void lock() URMEM_ACQUIRE() {
    writers_.lock();
    writer_.store(true, std::memory_order_seq_cst);
    for (const reader_slot& slot : slots_) {
      while (slot.readers.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
  }
  void unlock() URMEM_RELEASE() {
    writer_.store(false, std::memory_order_seq_cst);
    writer_.notify_all();
    writers_.unlock();
  }
  /// Shared hold counted in `slot` (< thread_slots); release it with
  /// the same slot.
  void lock_shared(std::size_t slot) URMEM_ACQUIRE_SHARED() {
    expects(slot < thread_slots, "ts_shared_mutex reader slot out of range");
    std::atomic<std::uint64_t>& readers = slots_[slot].readers;
    for (;;) {
      readers.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_.load(std::memory_order_seq_cst)) return;
      readers.fetch_sub(1, std::memory_order_release);
      writer_.wait(true, std::memory_order_acquire);
    }
  }
  void unlock_shared(std::size_t slot) URMEM_RELEASE_SHARED() {
    slots_[slot].readers.fetch_sub(1, std::memory_order_release);
  }

 private:
  struct alignas(cache_line_bytes) reader_slot {
    std::atomic<std::uint64_t> readers{0};
  };
  std::array<reader_slot, thread_slots> slots_;
  alignas(cache_line_bytes) std::atomic<bool> writer_{false};
  std::mutex writers_;
};

/// Scoped exclusive hold of a ts_mutex (std::scoped_lock equivalent).
class URMEM_SCOPED_CAPABILITY ts_lock_guard {
 public:
  explicit ts_lock_guard(ts_mutex& mutex) URMEM_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~ts_lock_guard() URMEM_RELEASE() { mutex_.unlock(); }
  ts_lock_guard(const ts_lock_guard&) = delete;
  ts_lock_guard& operator=(const ts_lock_guard&) = delete;

 private:
  ts_mutex& mutex_;
};

/// Scoped exclusive hold of a ts_shared_mutex (the epoch-boundary /
/// snapshot mode of the serving gate).
class URMEM_SCOPED_CAPABILITY ts_unique_lock {
 public:
  explicit ts_unique_lock(ts_shared_mutex& mutex) URMEM_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~ts_unique_lock() URMEM_RELEASE() { mutex_.unlock(); }
  ts_unique_lock(const ts_unique_lock&) = delete;
  ts_unique_lock& operator=(const ts_unique_lock&) = delete;

 private:
  ts_shared_mutex& mutex_;
};

/// Scoped shared hold of a ts_shared_mutex (the traffic / concurrent
/// scrub mode of the serving gate), counted in `slot` — by default this
/// thread's; a hot path that already looked it up passes it in. The
/// destructor's generic RELEASE covers the shared hold.
class URMEM_SCOPED_CAPABILITY ts_shared_lock {
 public:
  explicit ts_shared_lock(ts_shared_mutex& mutex,
                          std::size_t slot = this_thread_slot())
      URMEM_ACQUIRE_SHARED(mutex)
      : mutex_(mutex), slot_(slot) {
    mutex_.lock_shared(slot_);
  }
  ~ts_shared_lock() URMEM_RELEASE() { mutex_.unlock_shared(slot_); }
  ts_shared_lock(const ts_shared_lock&) = delete;
  ts_shared_lock& operator=(const ts_shared_lock&) = delete;

 private:
  ts_shared_mutex& mutex_;
  std::size_t slot_;
};

/// Condition variable for ts_mutex. wait() atomically releases the
/// mutex, blocks, and reacquires before returning — callers hold the
/// mutex across the call and loop on their predicate:
///
///   ts_lock_guard lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);
///
/// No predicate overload on purpose: the analysis treats a lambda as a
/// separate function, so guarded reads inside one would (rightly) fail
/// the capability check even though the lock is held.
class ts_condition_variable {
 public:
  ts_condition_variable() = default;
  ts_condition_variable(const ts_condition_variable&) = delete;
  ts_condition_variable& operator=(const ts_condition_variable&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(ts_mutex& mutex) URMEM_REQUIRES(mutex) {
    // Adopt the already-held native mutex for the wait, then release the
    // std::unique_lock wrapper so ownership stays with the caller's
    // scoped guard. The capability is held on entry and on return,
    // matching the REQUIRES contract.
    std::unique_lock<std::mutex> relock(mutex.mutex_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

 private:
  std::condition_variable cv_;
};

}  // namespace urmem
