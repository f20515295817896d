#ifndef PISREP_UTIL_THREAD_ANNOTATIONS_H_
#define PISREP_UTIL_THREAD_ANNOTATIONS_H_

/// Clang thread-safety ("capability") annotations, DESIGN.md §13.
///
/// These macros map onto Clang's `-Wthread-safety` attribute set so lock
/// discipline is checked at compile time: which fields a mutex guards
/// (GUARDED_BY), which locks a function needs held (REQUIRES) or must not
/// hold (EXCLUDES), and which functions acquire/release them
/// (ACQUIRE/RELEASE). On GCC — which has no thread-safety analysis — every
/// macro expands to nothing, so annotated code builds identically on both
/// toolchains; CI runs the clang configuration (`-DENABLE_THREAD_SAFETY=ON`)
/// to keep the annotations honest, and the pisrep-lint
/// `unannotated-guarded-field` rule enforces their *presence* on every
/// compiler.
///
/// The vocabulary and spelling follow the Clang documentation's canonical
/// mutex.h header, so the idioms transfer 1:1 from upstream examples.

#if defined(__clang__)
#define PISREP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PISREP_THREAD_ANNOTATION(x)  // no-op: GCC has no -Wthread-safety
#endif

/// Declares a class to be a capability (lockable) type. The string names
/// the capability kind in diagnostics, e.g. CAPABILITY("mutex").
#define CAPABILITY(x) PISREP_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability (util::MutexLock).
#define SCOPED_CAPABILITY PISREP_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a data member is protected by the given capability:
/// reading it requires the lock held (shared or exclusive), writing it
/// requires it held exclusively.
#define GUARDED_BY(x) PISREP_THREAD_ANNOTATION(guarded_by(x))

/// Same, but for the data a pointer member points *to* (the pointer itself
/// stays unguarded).
#define PT_GUARDED_BY(x) PISREP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declares that the caller must hold the given capabilities (exclusively)
/// before calling, and that the function does not release them.
#define REQUIRES(...) \
  PISREP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Shared (reader) form of REQUIRES.
#define REQUIRES_SHARED(...) \
  PISREP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Declares that the function acquires the capability and holds it on
/// return; the caller must not already hold it.
#define ACQUIRE(...) \
  PISREP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Declares that the function releases a capability the caller holds.
#define RELEASE(...) \
  PISREP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Declares that the caller must NOT hold the given capabilities — the
/// anti-deadlock annotation for functions that acquire them internally.
#define EXCLUDES(...) PISREP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Run-time assertion that the capability is held (for code reached only
/// with the lock held through paths the analysis cannot follow).
#define ASSERT_CAPABILITY(x) PISREP_THREAD_ANNOTATION(assert_capability(x))

/// Declares that a function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) PISREP_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables analysis for one function. Every use carries a
/// comment explaining why the analysis cannot see the invariant.
#define NO_THREAD_SAFETY_ANALYSIS \
  PISREP_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // PISREP_UTIL_THREAD_ANNOTATIONS_H_
