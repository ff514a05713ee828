#include "dispatch/fault_aware.h"

#include <algorithm>

#include "util/check.h"

namespace hs::dispatch {

FaultAwareDispatcher::FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner,
                                           Reweighter reweighter)
    : MaskingDecorator(std::move(inner), std::move(reweighter)) {}

std::string FaultAwareDispatcher::name() const {
  return "fault-aware(" + inner().name() + ")";
}

size_t FaultAwareDispatcher::down_count() const {
  return static_cast<size_t>(
      std::count(available().begin(), available().end(), false));
}

void FaultAwareDispatcher::on_machine_state_report(size_t machine, bool up) {
  std::vector<bool>& available = own_mask();
  HS_CHECK(machine < available.size(),
           "machine index out of range: " << machine);
  if (available[machine] == up) {
    return;  // duplicate report — already in the believed state
  }
  available[machine] = up;
  apply_mask();
}

size_t FaultAwareDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = available().size();
  out.reserve(out.size() + n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(available()[i] ? 1.0 : 0.0);
  }
  return n + inner().save_state(out);
}

size_t FaultAwareDispatcher::restore_state(std::span<const double> state) {
  std::vector<bool>& available = own_mask();
  const size_t n = available.size();
  if (state.size() < n) {
    return 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(state[i] == 0.0 || state[i] == 1.0)) {
      return 0;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    available[i] = state[i] == 1.0;
  }
  // Re-derive the effective mask *before* restoring inner state: a
  // re-weight resets the inner routing state, so the restored state must
  // land after it.
  apply_mask();
  return n + inner().restore_state(state.subspan(n));
}

}  // namespace hs::dispatch
