#include "util/mutex.h"

#include <vector>

#include "util/logging.h"

namespace systolic {
namespace util {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kServer:
      return "server";
    case LockRank::kScheduler:
      return "scheduler";
    case LockRank::kSharedCatalog:
      return "shared-catalog";
    case LockRank::kChipHealth:
      return "chip-health";
    case LockRank::kWal:
      return "wal";
    case LockRank::kLeaf:
      return "leaf";
  }
  return "unknown";
}

// The checker runs in debug builds only: release builds (NDEBUG) compile
// Lock/Unlock down to the raw std::mutex operations, so the annotated
// wrapper stays zero-cost where the E27 overhead gate measures it. The
// static -Wthread-safety proof is build-type independent.
#ifndef NDEBUG
#define SYSTOLIC_LOCK_ORDER_CHECKS 1
#else
#define SYSTOLIC_LOCK_ORDER_CHECKS 0
#endif

bool LockOrderChecksEnabled() { return SYSTOLIC_LOCK_ORDER_CHECKS != 0; }

#if SYSTOLIC_LOCK_ORDER_CHECKS

namespace {

/// The mutexes the calling thread holds, in acquisition order. Thread-local:
/// the checker needs no synchronization of its own and is deterministic —
/// the first acquisition that inverts the hierarchy dies, on every run, no
/// unlucky interleaving required.
std::vector<const Mutex*>& HeldStack() {
  thread_local std::vector<const Mutex*> held;
  return held;
}

/// Dies unless `mu` may be acquired given the thread's held set: every held
/// rank must be strictly below the new one. Equal ranks are inversions too
/// (two same-rank mutexes, or a self-recursive Lock, can form AB/BA cycles
/// the strict order cannot).
void CheckAcquire(const Mutex* mu) {
  for (const Mutex* held : HeldStack()) {
    SYSTOLIC_CHECK(static_cast<int>(held->rank()) <
                   static_cast<int>(mu->rank()))
        << "lock-order inversion: acquiring '" << mu->name() << "' (rank "
        << LockRankName(mu->rank()) << ") while holding '" << held->name()
        << "' (rank " << LockRankName(held->rank())
        << "); the hierarchy (DESIGN 2.10) is server -> scheduler -> "
           "shared-catalog -> chip-health -> wal -> leaf";
  }
}

void NoteAcquired(const Mutex* mu) { HeldStack().push_back(mu); }

void NoteReleased(const Mutex* mu) {
  std::vector<const Mutex*>& held = HeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == mu) {
      held.erase(std::next(it).base());
      return;
    }
  }
  SYSTOLIC_CHECK(false) << "released mutex '" << mu->name()
                        << "' that the thread does not hold";
}

bool Holds(const Mutex* mu) {
  for (const Mutex* held : HeldStack()) {
    if (held == mu) return true;
  }
  return false;
}

}  // namespace

void Mutex::Lock() {
  // Check BEFORE blocking: an inverted acquisition dies with the inversion
  // named instead of deadlocking in the scheduler's arms.
  CheckAcquire(this);
  mu_.lock();
  NoteAcquired(this);
}

void Mutex::Unlock() {
  NoteReleased(this);
  mu_.unlock();
}

void Mutex::AssertHeld() const {
  SYSTOLIC_CHECK(Holds(this))
      << "AssertHeld: calling thread does not hold '" << name_ << "'";
}

void CondVar::Wait(Mutex* mu) {
  // The wait releases the mutex: drop it from the held set so the set stays
  // truthful while the thread sleeps, and route the re-acquire back through
  // the checker (it cannot fail — the held set is exactly what it was when
  // the original, checked acquisition succeeded).
  NoteReleased(mu);
  std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();  // ownership returns to the caller's MutexLock
  CheckAcquire(mu);
  NoteAcquired(mu);
}

bool CondVar::WaitFor(Mutex* mu, std::chrono::milliseconds timeout) {
  NoteReleased(mu);
  std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
  const std::cv_status status = cv_.wait_for(lock, timeout);
  lock.release();
  CheckAcquire(mu);
  NoteAcquired(mu);
  return status == std::cv_status::timeout;
}

#else  // !SYSTOLIC_LOCK_ORDER_CHECKS

void Mutex::Lock() { mu_.lock(); }

void Mutex::Unlock() { mu_.unlock(); }

void Mutex::AssertHeld() const {}

void CondVar::Wait(Mutex* mu) {
  std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
}

bool CondVar::WaitFor(Mutex* mu, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
  const std::cv_status status = cv_.wait_for(lock, timeout);
  lock.release();
  return status == std::cv_status::timeout;
}

#endif  // SYSTOLIC_LOCK_ORDER_CHECKS

}  // namespace util
}  // namespace systolic
