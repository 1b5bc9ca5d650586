#include "core/chips.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

namespace systolic {
namespace db {

const char* ChipStateToString(ChipState state) {
  switch (state) {
    case ChipState::kHealthy:
      return "healthy";
    case ChipState::kSuspect:
      return "suspect";
    case ChipState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

ChipHealth::ChipHealth(size_t num_chips, size_t strike_limit)
    : num_chips_(std::max<size_t>(1, num_chips)),
      strike_limit_(std::max<size_t>(1, strike_limit)),
      strikes_(num_chips_, 0),
      quarantined_(num_chips_, false) {}

ChipState ChipHealth::state(size_t chip) const {
  util::MutexLock lock(&mutex_);
  if (quarantined_[chip]) return ChipState::kQuarantined;
  return strikes_[chip] == 0 ? ChipState::kHealthy : ChipState::kSuspect;
}

size_t ChipHealth::strikes(size_t chip) const {
  util::MutexLock lock(&mutex_);
  return strikes_[chip];
}

size_t ChipHealth::num_usable() const {
  util::MutexLock lock(&mutex_);
  size_t usable = 0;
  for (size_t chip = 0; chip < num_chips_; ++chip) {
    if (!quarantined_[chip]) ++usable;
  }
  return usable;
}

size_t ChipHealth::total_strikes() const {
  util::MutexLock lock(&mutex_);
  size_t total = 0;
  for (size_t strikes : strikes_) total += strikes;
  return total;
}

bool ChipHealth::Usable(size_t chip) const {
  util::MutexLock lock(&mutex_);
  return !quarantined_[chip];
}

ChipState ChipHealth::Strike(size_t chip) {
  util::MutexLock lock(&mutex_);
  ++strikes_[chip];
  if (strikes_[chip] >= strike_limit_) quarantined_[chip] = true;
  if (quarantined_[chip]) return ChipState::kQuarantined;
  return ChipState::kSuspect;
}

void ChipHealth::ClearStrikes(size_t chip) {
  util::MutexLock lock(&mutex_);
  if (!quarantined_[chip]) strikes_[chip] = 0;
}

void ChipHealth::Quarantine(size_t chip) {
  util::MutexLock lock(&mutex_);
  quarantined_[chip] = true;
}

std::optional<size_t> ChipHealth::PreferredChip(size_t chip) const {
  util::MutexLock lock(&mutex_);
  for (size_t offset = 0; offset < num_chips_; ++offset) {
    const size_t candidate = (chip + offset) % num_chips_;
    if (!quarantined_[candidate]) return candidate;
  }
  return std::nullopt;
}

void ParallelFor(size_t count, size_t max_workers,
                 const std::function<void(size_t)>& task) {
  const size_t host = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t workers = std::min({max_workers, count, host});
  std::vector<std::exception_ptr> errors(count);
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);  // so only a thread's start can throw below
  for (size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones running (and the caller) finish
    }
  }
  work();
  for (std::thread& thread : threads) thread.join();
  for (std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

}  // namespace db
}  // namespace systolic
