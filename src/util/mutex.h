#ifndef PISREP_UTIL_MUTEX_H_
#define PISREP_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace pisrep::util {

/// Annotated mutex wrapper (DESIGN.md §13). Functionally a std::mutex, but
/// carries the CAPABILITY attribute so clang's -Wthread-safety can check
/// that every GUARDED_BY field is only touched with this lock held. All
/// shared mutable state in the repo synchronizes through util::Mutex +
/// util::MutexLock; bare std::mutex and manual lock()/unlock() calls are
/// flagged by the pisrep-lint `unannotated-guarded-field` and
/// `raw-lock-unlock` rules.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Prefer util::MutexLock; manual Lock/Unlock is for the rare site where
  /// RAII scoping cannot express the hold (and is lint-suppressed there).
  void Lock() ACQUIRE() {
    // The one audited raw-lock site: this *is* the RAII holder's backend.
    mu_.lock();  // pisrep-lint: allow(raw-lock-unlock)
  }
  void Unlock() RELEASE() {
    mu_.unlock();  // pisrep-lint: allow(raw-lock-unlock)
  }

 private:
  std::mutex mu_;
};

/// RAII holder: acquires in the constructor, releases in the destructor.
/// SCOPED_CAPABILITY lets the analysis track the hold across the scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  // The RAII holder is the blessed caller of Lock/Unlock.
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();  // pisrep-lint: allow(raw-lock-unlock)
  }
  ~MutexLock() RELEASE() {
    mu_->Unlock();  // pisrep-lint: allow(raw-lock-unlock)
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace pisrep::util

#endif  // PISREP_UTIL_MUTEX_H_
