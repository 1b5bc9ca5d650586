#ifndef SYSTOLIC_UTIL_MUTEX_H_
#define SYSTOLIC_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace systolic {
namespace util {

/// The global lock hierarchy (DESIGN §2.10). A thread may only acquire a
/// mutex whose rank is STRICTLY GREATER than every mutex it already holds:
/// acquisition order flows top to bottom, so any cycle — the precondition of
/// every deadlock — would need an upward edge and is impossible by
/// construction. The ranks follow the call graph of the concurrent core:
///
///   kServer        Server::mutex_ — session/slot tables, wires, drain flags.
///                  Held while consulting the catalog's recovered acks
///                  (Resume / AttachV2 / MintTokenLocked), so it must come
///                  before kSharedCatalog.
///   kScheduler     FairScheduler::mutex_ — admission slots + RR backlogs.
///   kSharedCatalog SharedCatalog::mutex_ — image publication + commit queue.
///   kChipHealth    ChipHealth::mutex_ — strike/quarantine ledger, touched
///                  from tile tasks running on ParallelFor threads (which
///                  take no lock of their own).
///   kWal           DurableCatalog::mutex_ — WAL staging/sealing + catalog
///                  application. The group-commit leader calls into it with
///                  no other lock held (ProcessBatch runs outside the
///                  catalog mutex), making it the hierarchy's sink.
///   kLeaf          Never held across another acquisition; for mutexes
///                  outside the core hierarchy (tests, future subsystems).
///
/// In debug builds (`NDEBUG` undefined) every Lock() checks the calling
/// thread's held set against this order and dies — deterministically, at the
/// first inverted acquisition, no unlucky interleaving required — on any
/// violation. Release builds compile the checker out; clang's
/// `-Wthread-safety -Werror` lane statically proves the GUARDED_BY/REQUIRES
/// discipline on every build.
enum class LockRank : int {
  kServer = 100,
  kScheduler = 200,
  kSharedCatalog = 300,
  kChipHealth = 500,
  kWal = 600,
  kLeaf = 1000,
};

/// Canonical name for diagnostics ("server", "scheduler", ...).
const char* LockRankName(LockRank rank);

/// True when this build enforces the runtime lock-order checker (debug
/// builds); tests use it to gate the inversion death test.
bool LockOrderChecksEnabled();

/// An annotated, hierarchy-ranked std::mutex (DESIGN S27). The CAPABILITY
/// attribute makes clang's thread-safety analysis track it: fields marked
/// GUARDED_BY(mutex_) are provably touched only under Lock/MutexLock, and
/// `...Locked()` helpers marked REQUIRES(mutex_) are provably called only
/// with it held. The LockRank makes the debug-build checker die on any
/// acquisition that inverts the documented hierarchy.
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` is for diagnostics only and must outlive the mutex (string
  /// literals in practice).
  explicit Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();

  /// Dies (debug builds) unless the calling thread holds this mutex; tells
  /// the static analysis it is held from here on. For dynamic call paths the
  /// REQUIRES annotation cannot reach.
  void AssertHeld() const ASSERT_CAPABILITY(this);

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII lock for util::Mutex (SCOPED_CAPABILITY: clang knows the capability
/// is held from construction to destruction). Relockable: Unlock()/Lock()
/// support the drop-the-lock-around-slow-work pattern (group-commit leader)
/// without leaving the analysis' sight.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drops the lock early (e.g. before slow IO or a blocking write).
  void Unlock() RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  /// Re-acquires after an Unlock().
  void Lock() ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_;
};

/// Condition variable bound to util::Mutex. Wait() REQUIRES the mutex and
/// keeps the debug checker's held-set bookkeeping consistent across the
/// atomic release/re-acquire inside the wait.
///
/// Spurious-wakeup discipline: Wait() must ALWAYS sit in a predicate loop,
///     while (!predicate) cv_.Wait(&mutex_);
/// keeping the predicate next to the wait where both the reader and clang's
/// analysis (the predicate reads GUARDED_BY state inside the calling
/// function, not an unannotatable lambda) can see it. WaitFor is the timed
/// flavor for periodic loops (the idle reaper); it too belongs under a
/// predicate re-check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks, and re-acquires before returning.
  void Wait(Mutex* mu) REQUIRES(mu);

  /// Timed Wait; returns true when the wait TIMED OUT (the caller's
  /// predicate loop decides what that means).
  bool WaitFor(Mutex* mu, std::chrono::milliseconds timeout) REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace util
}  // namespace systolic

#endif  // SYSTOLIC_UTIL_MUTEX_H_
