#ifndef SYSTOLIC_UTIL_THREAD_ANNOTATIONS_H_
#define SYSTOLIC_UTIL_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis annotations (DESIGN S27).
///
/// These macros expose clang's `-Wthread-safety` attribute set so the lock
/// discipline of the concurrent core (server sessions, fair scheduler,
/// shared catalog, chip health, WAL group commit) is PROVABLE at compile time,
/// the same way the S22 verifier proves plan/schedule invariants before
/// execution. On gcc (and any compiler without the attributes) every macro
/// expands to nothing, so the annotated code stays portable; the clang CI
/// lane builds with `-Wthread-safety -Werror` and is blocking.
///
/// Conventions (see DESIGN §2.10):
///  - Every shared field is `GUARDED_BY(mutex_)` the mutex that guards it.
///  - Every private helper that touches guarded state with the lock already
///    held is named `...Locked()` and annotated `REQUIRES(mutex_)`.
///  - Raw `std::mutex` / `std::condition_variable` / `.lock()` / `.unlock()`
///    are forbidden outside `src/util/` (project-lint rule 5); everything
///    goes through the annotated `util::Mutex` / `util::MutexLock` /
///    `util::CondVar` wrappers (mutex.h), whose LockRank encodes the global
///    acquisition order and whose debug checker dies on inversion.
///
/// The macro set mirrors the de-facto standard (abseil / clang docs)
/// spelling so the annotations read like every other annotated codebase.

#if defined(__clang__)
#define SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op on gcc
#endif

/// A class that models a capability (a lock). `x` names the capability kind
/// in diagnostics, e.g. CAPABILITY("mutex").
#define CAPABILITY(x) SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// An RAII class that acquires a capability in its constructor and releases
/// it in its destructor (util::MutexLock).
#define SCOPED_CAPABILITY SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define GUARDED_BY(x) SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member whose POINTEE is protected by the given capability.
#define PT_GUARDED_BY(x) SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Declares that this capability must be acquired before / after the listed
/// ones. Clang checks these under -Wthread-safety-beta; the always-on
/// enforcement of the ACQUISITION ORDER between *instances* is the runtime
/// LockRank checker in util::Mutex (mutex.h), which dies on inversion in
/// debug builds.
#define ACQUIRED_BEFORE(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The caller must hold the listed capabilities (the `...Locked()` helper
/// annotation).
#define REQUIRES(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and does not release it.
#define ACQUIRE(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability, which the caller must hold.
#define RELEASE(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability only when it returns true.
#define TRY_ACQUIRE(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the listed capabilities (deadlock documentation
/// for public entry points that lock internally).
#define EXCLUDES(...) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the calling thread holds the capability; tells the
/// static analysis to treat it as held from here on.
#define ASSERT_CAPABILITY(x) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the function is deliberately exempt from analysis. Use only
/// with a comment explaining why the invariant holds anyway.
#define NO_THREAD_SAFETY_ANALYSIS \
  SYSTOLIC_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // SYSTOLIC_UTIL_THREAD_ANNOTATIONS_H_
