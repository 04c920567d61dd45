// RCU-style epoch slot: the component-ownership primitive behind
// zero-downtime online retraining (ISSUE 8 tentpole).
//
// One EpochSlot<T> owns the *published* immutable state of a component.
// Readers pin the current epoch with acquire() — an O(1) shared_ptr copy
// under a mutex whose critical section never grows with data size — and
// keep scanning that snapshot for as long as they hold the pin, entirely
// unaffected by concurrent retraining. Writers derive the next epoch from
// the current one outside this lock (copying only what they mutate, on the
// home group), then publish() it: an O(1) pointer swap. The old epoch is
// not freed at the swap; it is *retired* — destroyed by whichever thread
// drops the last pin, observable through stats().retired. Readers
// therefore never block on retraining
// and retraining never blocks on readers; the only serialization is the
// pointer swap itself.
//
// Lock discipline (proven by the clang -Wthread-safety -Werror gate, no
// AT_NO_THREAD_SAFETY_ANALYSIS escapes): the published pointer and the
// version counters are AT_GUARDED_BY(mutex_); every access takes the
// mutex. The reference count inside std::shared_ptr does the actual RCU
// grace-period accounting, and the retire counter is a std::atomic bumped
// from the deleter — neither needs the mutex, and the analysis sees both
// as what they are (atomics), not as escapes.
//
// Failpoints: "epoch.publish" fires before the swap (an injected error
// aborts the publish and leaves the previous epoch live); "epoch.retire"
// fires inside the deleter via the non-throwing failpoint::check — a
// deleter runs in whatever thread drops the last pin, possibly during
// stack unwinding, so it must never throw.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/failpoint.h"
#include "common/thread_annotations.h"

namespace at::common {

/// Counters one slot exposes for monitoring and the swap stress tests.
struct EpochStats {
  /// Version of the currently published epoch (increments per publish;
  /// unsigned wrap-around is benign — freshness checks compare equality).
  std::uint64_t version = 0;
  /// publish() calls that succeeded (the swap count).
  std::uint64_t published = 0;
  /// Old epochs fully drained and destroyed. When no pins are in flight,
  /// retired == published - 1 (the current epoch is still live).
  std::uint64_t retired = 0;
  /// Epochs still alive: the published one plus any retired-but-pinned.
  std::uint64_t live = 0;
};

/// Double-buffered epoch holder for an immutable component state T.
/// Non-movable (it is the stable anchor readers synchronize through);
/// embed it behind a unique_ptr when the owner must stay movable.
template <typename T>
class EpochSlot {
 public:
  EpochSlot()
      : retired_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

  EpochSlot(const EpochSlot&) = delete;
  EpochSlot& operator=(const EpochSlot&) = delete;

  /// Pins the current epoch. The returned pointer stays valid — and the
  /// epoch's memory alive — for as long as the caller holds it, across
  /// any number of concurrent publishes. Null only before the first
  /// publish.
  std::shared_ptr<const T> acquire() const {
    MutexLock lock(mutex_);
    return current_;
  }

  std::uint64_t version() const {
    MutexLock lock(mutex_);
    return version_;
  }

  /// Pins the current epoch together with its version in one critical
  /// section. Checkpoint writers need the pair to be mutually consistent:
  /// acquire() followed by version() could straddle a concurrent publish
  /// and stamp old bytes with a new version.
  std::pair<std::shared_ptr<const T>, std::uint64_t> acquire_versioned()
      const {
    MutexLock lock(mutex_);
    return {current_, version_};
  }

  /// Publishes `next` as the new current epoch: one pointer swap under
  /// the mutex. The outgoing epoch is released *outside* the lock, so
  /// when this writer happens to hold its last reference, the retire
  /// (destruction + counter bump) never runs inside the critical section
  /// readers acquire() through.
  void publish(std::unique_ptr<const T> next) {
    if (next == nullptr)
      throw std::invalid_argument("EpochSlot::publish: null epoch");
    AT_FAILPOINT("epoch.publish");
    std::shared_ptr<const T> incoming = wrap_with_retire(std::move(next));
    std::shared_ptr<const T> outgoing;
    {
      MutexLock lock(mutex_);
      outgoing = std::move(current_);
      current_ = std::move(incoming);
      ++version_;
      ++published_;
    }
    // `outgoing` drops here; readers still pinning the old epoch keep it
    // alive and the last of them performs the retire.
  }

  EpochStats stats() const {
    EpochStats s;
    {
      MutexLock lock(mutex_);
      s.version = version_;
      s.published = published_;
      s.live = published_;
    }
    s.retired = retired_->load(std::memory_order_acquire);
    s.live -= s.retired;
    return s;
  }

  /// Rebases the version counter without publishing. The warm-standby
  /// replay path uses this to align a freshly loaded snapshot's slot with
  /// the version the primary stamped into the checkpoint filename, so
  /// every subsequent publish advances in lockstep with the primary's
  /// delta stream (from_version/to_version match exactly, and the promoted
  /// replica reports the same effective epoch — no epoch gap).
  void rebase_version(std::uint64_t v) {
    MutexLock lock(mutex_);
    version_ = v;
  }

  /// Test hook: forces the version counter (e.g. to UINT64_MAX - 1) so
  /// the wrap-around behavior of epoch-equality freshness checks can be
  /// exercised without 2^64 publishes.
  void set_version_for_test(std::uint64_t v) { rebase_version(v); }

 private:
  /// Wraps the epoch with a deleter that counts its retirement. The
  /// counter is held through a shared_ptr so a pin that outlives this
  /// slot (shutdown mid-swap) still retires into valid memory.
  std::shared_ptr<const T> wrap_with_retire(std::unique_ptr<const T> next) {
    std::shared_ptr<std::atomic<std::uint64_t>> counter = retired_;
    const T* raw = next.release();
    return std::shared_ptr<const T>(raw, [counter](const T* p) {
      delete p;
      // Non-throwing check(): a deleter may run during unwinding, where a
      // throw would terminate. An armed error action is simply recorded
      // by the failpoint hit counter; delays still apply.
      (void)failpoint::check("epoch.retire");
      counter->fetch_add(1, std::memory_order_acq_rel);
    });
  }

  mutable Mutex mutex_;
  std::shared_ptr<const T> current_ AT_GUARDED_BY(mutex_);
  std::uint64_t version_ AT_GUARDED_BY(mutex_) = 0;
  std::uint64_t published_ AT_GUARDED_BY(mutex_) = 0;
  /// Outlives the slot via the deleters that capture it.
  std::shared_ptr<std::atomic<std::uint64_t>> retired_;
};

}  // namespace at::common
