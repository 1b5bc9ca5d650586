#ifndef SYSTOLIC_CORE_CHIPS_H_
#define SYSTOLIC_CORE_CHIPS_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace systolic {
namespace db {

/// Health of one simulated chip, as tracked by ChipHealth.
enum class ChipState {
  kHealthy,      // no detected failures
  kSuspect,      // 1..strike_limit-1 consecutive detected failures
  kQuarantined,  // struck out or found dead; receives no more work
};

/// Canonical lower-case name ("healthy", "suspect", "quarantined").
const char* ChipStateToString(ChipState state);

/// Thread-safe health ledger for a device's chips.
///
/// The engine's fault-tolerant tile scheduler records a strike against a
/// chip for every detected failure (parity hit, invariant trip, stall) and
/// quarantines it after `strike_limit` consecutive strikes — or immediately
/// when the chip is found dead. A successful attempt clears the chip's
/// strikes: strikes count consecutive failures, so a chip suffering only
/// transient upsets is never quarantined as long as clean attempts keep
/// landing. Quarantined chips get no further work; the scheduler degrades
/// gracefully onto whatever remains, down to a single chip, and only errors
/// out when nothing usable is left.
class ChipHealth {
 public:
  ChipHealth(size_t num_chips, size_t strike_limit);

  size_t num_chips() const { return num_chips_; }
  size_t strike_limit() const { return strike_limit_; }

  ChipState state(size_t chip) const EXCLUDES(mutex_);
  size_t strikes(size_t chip) const EXCLUDES(mutex_);

  /// Chips not quarantined.
  size_t num_usable() const EXCLUDES(mutex_);
  /// Detected failures recorded so far, including on quarantined chips.
  size_t total_strikes() const EXCLUDES(mutex_);

  bool Usable(size_t chip) const EXCLUDES(mutex_);

  /// Records one detected failure; quarantines at the strike limit.
  /// Returns the chip's state after the strike.
  ChipState Strike(size_t chip) EXCLUDES(mutex_);

  /// A clean attempt on `chip`: forgives its accumulated strikes (strikes
  /// count consecutive failures). Quarantine is permanent — clearing a
  /// quarantined chip is a no-op.
  void ClearStrikes(size_t chip) EXCLUDES(mutex_);

  /// Immediate quarantine (dead chip).
  void Quarantine(size_t chip) EXCLUDES(mutex_);

  /// The chip work for `chip` should actually run on: `chip` itself when
  /// usable, else the next usable chip in cyclic order. nullopt when every
  /// chip is quarantined.
  std::optional<size_t> PreferredChip(size_t chip) const EXCLUDES(mutex_);

 private:
  /// Tile tasks strike/clear chips from ParallelFor's threads, which hold
  /// no other lock there because ParallelFor takes none (DESIGN §2.10).
  mutable util::Mutex mutex_{util::LockRank::kChipHealth, "chip-health"};
  size_t num_chips_;
  size_t strike_limit_;
  std::vector<size_t> strikes_ GUARDED_BY(mutex_);
  std::vector<bool> quarantined_ GUARDED_BY(mutex_);
};

/// Runs task(i) exactly once for every i in [0, count) and returns when all
/// calls have. §8's (row-tile, col-tile) passes are mutually independent, so
/// a multi-chip operation runs them on w = min(max_workers, count, host
/// threads) threads: the caller plus w-1 threads started here and joined
/// before returning. Modeled chips are not threads — the engine's schedule
/// and fault routing name chips by tile — so a 1000-chip device costs no
/// more threads than the host has. Indices are claimed from an atomic
/// counter in any order, so tasks must write results only into per-index
/// slots. If tasks throw, every other task still runs and the exception of
/// the lowest throwing index is rethrown: deterministic no matter which
/// thread hit it first.
void ParallelFor(size_t count, size_t max_workers,
                 const std::function<void(size_t)>& task);

}  // namespace db
}  // namespace systolic

#endif  // SYSTOLIC_CORE_CHIPS_H_
