#ifndef SYSTOLIC_FAULTS_FAULT_SCOPE_H_
#define SYSTOLIC_FAULTS_FAULT_SCOPE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_plan.h"
#include "systolic/fault_hook.h"

namespace systolic {
namespace faults {

/// Arms one attempt of one tile on one logical chip.
///
/// On construction it installs itself as the thread's sim::PulseHook (fault
/// injection) and arms recoverable hardware checks (so tripped array
/// invariants throw HardwareFault instead of aborting); the destructor
/// restores both, nesting-safe. While active it perturbs latched words per
/// the plan's profile for `chip` and — modelling the per-wire bus parity and
/// valid-strobe monitors real hardware would carry — counts every word it
/// corrupts. corruptions() == 0 therefore proves the attempt ran exactly as
/// a fault-free chip would, which is the load-bearing fact behind the
/// engine's bit-identical recovery guarantee.
///
/// All fault decisions are keyed hashes of (plan seed, chip, tile, attempt,
/// wire index, pulse): two attempts with the same key corrupt the same
/// words, and distinct attempts draw independent faults, regardless of how
/// host threads schedule them.
class FaultScope : public sim::PulseHook {
 public:
  /// `plan` may be null: no injection, but checks are still armed so genuine
  /// invariant trips (e.g. from a prior corruption) surface as HardwareFault.
  FaultScope(const FaultPlan* plan, size_t chip, uint64_t tile_key,
             uint32_t attempt);
  ~FaultScope() override;

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  void AfterCommit(const std::vector<std::unique_ptr<sim::Wire>>& wires,
                   size_t cycle) override;

  /// Words corrupted so far — the modelled detector's count.
  size_t corruptions() const { return corruptions_; }

  /// True iff the plan marks this chip dead; callers must not run at all.
  bool chip_dead() const;

  size_t chip() const { return chip_; }

 private:
  bool Chance(uint64_t wire, uint64_t cycle, uint64_t salt,
              double rate) const;

  const FaultPlan* plan_;
  ChipFaultProfile profile_;  // copied; empty profile when plan_ == null
  size_t chip_;
  uint64_t base_;  // pre-mixed (seed, chip, tile, attempt) key
  size_t corruptions_ = 0;
  bool previous_armed_;
  sim::PulseHook* previous_hook_;
};

}  // namespace faults
}  // namespace systolic

#endif  // SYSTOLIC_FAULTS_FAULT_SCOPE_H_
