// booterscope::util — Clang thread-safety annotations and annotated
// synchronization primitives.
//
// The deterministic-parallel guarantees (DESIGN.md §9) and the fault
// integrity ledger (§10) depend on every shared structure being correctly
// locked. TSan only catches races the test matrix happens to execute; the
// BS_* macros below make the locking discipline machine-checked at compile
// time under `clang -Wthread-safety` (the `tidy` preset and the clang CI
// lanes). Under GCC every macro expands to nothing and the wrappers are
// zero-overhead shims over the std primitives —
// tests/util/annotations_test.cpp asserts no ABI drift.
//
// libstdc++'s std::mutex/std::lock_guard carry no thread-safety attributes,
// so annotating members with BS_GUARDED_BY(some_std_mutex) would teach the
// analysis nothing. Mutex/MutexLock/CondVar are the annotated equivalents;
// locked classes (exec::ThreadPool, obs::MetricsRegistry) hold these.
//
// Classes that are thread-compartmented rather than locked use
// ConcurrencyGuard — a cheap dynamic tripwire that aborts on concurrent
// entry instead of corrupting the conservation ledger silently:
// FlowCollector (one owner at a time, sequential hand-off between pool
// tasks is legal) and each lane of StageTracer's span log (every thread
// writes only its own lane, so the guard trips when two threads share one,
// e.g. two pools feeding one tracer; the projections are read once the
// pool is idle).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang)
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define BS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BS_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability ("mutex", "role", ...).
#define BS_CAPABILITY(x) BS_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type that acquires in its constructor, releases in its
/// destructor.
#define BS_SCOPED_CAPABILITY BS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named capability.
#define BS_GUARDED_BY(x) BS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose pointee is guarded by the named capability.
#define BS_PT_GUARDED_BY(x) BS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability held on entry (and does not release).
#define BS_REQUIRES(...) \
  BS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capability (must not be held on entry).
#define BS_ACQUIRE(...) BS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (must be held on entry).
#define BS_RELEASE(...) BS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define BS_TRY_ACQUIRE(...) \
  BS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function must NOT hold the capability on entry (deadlock prevention).
#define BS_EXCLUDES(...) BS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define BS_RETURN_CAPABILITY(x) BS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disables analysis inside one function. Use sparingly and
/// leave a comment saying why the analysis cannot see the invariant.
#define BS_NO_THREAD_SAFETY_ANALYSIS \
  BS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace booterscope::util {

// ---------------------------------------------------------------------------
// Annotated synchronization primitives
// ---------------------------------------------------------------------------

/// std::mutex with thread-safety attributes. Same size, same semantics;
/// exists because libstdc++'s mutex is invisible to the analysis.
class BS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BS_ACQUIRE() { mutex_.lock(); }
  void unlock() BS_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() BS_TRY_ACQUIRE(true) {
    return mutex_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII lock over a Mutex (annotated std::lock_guard equivalent).
class BS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) BS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() BS_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable for Mutex. Waits take the Mutex itself (the caller
/// must hold it, which the annotation enforces); the RAII MutexLock in the
/// caller's scope keeps the acquire/release bookkeeping balanced.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mutex) BS_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Predicate>
  void wait(Mutex& mutex, Predicate predicate) BS_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock, std::move(predicate));
    lock.release();
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mutex,
                          const std::chrono::duration<Rep, Period>& timeout)
      BS_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

 private:
  // Waits adopt the already-held std::mutex and release() it back before
  // returning, so the caller's MutexLock stays the sole owner of the
  // acquire/release pairing and the std::condition_variable fast path
  // (no condition_variable_any shim) is kept. The capability state is
  // unchanged across a wait: held on entry, held on return.
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
// Dynamic tripwire for thread-compartmented classes
// ---------------------------------------------------------------------------

/// Detects concurrent entry into code contracted to be externally
/// serialized. Unlike an owner-thread assert, sequential use from different
/// threads is legal — exactly the hand-off pattern of collectors moving
/// between pool tasks across days. Cost per guarded call: two relaxed
/// atomic ops, safe for per-packet paths.
class ConcurrencyGuard {
 public:
  class Scope {
   public:
    explicit Scope(ConcurrencyGuard& guard, const char* site) noexcept
        : guard_(guard) {
      if (guard_.entered_.exchange(true, std::memory_order_acquire)) {
        // Concurrent mutation of a thread-compartmented structure corrupts
        // the conservation ledgers silently; fail loudly instead.
        std::fprintf(stderr,
                     "booterscope: concurrent entry into single-owner "
                     "section '%s'\n",
                     site);
        std::abort();
      }
    }
    ~Scope() { guard_.entered_.store(false, std::memory_order_release); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ConcurrencyGuard& guard_;
  };

  ConcurrencyGuard() = default;
  ConcurrencyGuard(const ConcurrencyGuard&) = delete;
  ConcurrencyGuard& operator=(const ConcurrencyGuard&) = delete;

 private:
  std::atomic<bool> entered_{false};
};

}  // namespace booterscope::util
