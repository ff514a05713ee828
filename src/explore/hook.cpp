#include "explore/hook.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace hs::explore {

namespace {

/// Pack (kind, entity, occurrence) into one map key. Schedule::validate
/// bounds entity and occurrence below 2^24, so the fields cannot collide.
uint64_t target_key(cluster::ChoiceKind kind, uint32_t entity,
                    uint64_t occurrence) {
  return (static_cast<uint64_t>(kind) << 48) |
         (static_cast<uint64_t>(entity) << 24) | occurrence;
}

uint64_t site_key(cluster::ChoiceKind kind, uint32_t entity) {
  return (static_cast<uint64_t>(kind) << 32) | entity;
}

}  // namespace

ScheduleHook::ScheduleHook(const Schedule& schedule) {
  schedule.validate();
  overrides_.reserve(schedule.ops.size());
  for (const Override& op : schedule.ops) {
    overrides_.emplace(target_key(op.kind, op.entity, op.occurrence),
                       op.value_bits);
  }
}

uint64_t ScheduleHook::next_occurrence(cluster::ChoiceKind kind,
                                       uint32_t entity) {
  return consults_[site_key(kind, entity)]++;
}

const uint64_t* ScheduleHook::lookup(cluster::ChoiceKind kind,
                                     uint32_t entity, uint64_t occurrence) {
  if (overrides_.empty()) {
    return nullptr;
  }
  const auto it = overrides_.find(target_key(kind, entity, occurrence));
  if (it == overrides_.end()) {
    return nullptr;
  }
  ++applied_;
  return &it->second;
}

bool ScheduleHook::on_bool(cluster::ChoiceKind kind, uint32_t entity,
                           bool drawn) {
  const uint64_t occurrence = next_occurrence(kind, entity);
  const uint64_t* bits = lookup(kind, entity, occurrence);
  return bits == nullptr ? drawn : *bits != 0;
}

double ScheduleHook::on_double(cluster::ChoiceKind kind, uint32_t entity,
                               double drawn) {
  const uint64_t occurrence = next_occurrence(kind, entity);
  const uint64_t* bits = lookup(kind, entity, occurrence);
  if (bits == nullptr) {
    return drawn;
  }
  return std::bit_cast<double>(*bits);
}

std::vector<ScheduleHook::Site> ScheduleHook::sites() const {
  std::vector<Site> sites;
  sites.reserve(consults_.size());
  for (const auto& [key, count] : consults_) {
    sites.push_back(Site{static_cast<cluster::ChoiceKind>(key >> 32),
                         static_cast<uint32_t>(key & 0xffffffffu), count});
  }
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    if (a.kind != b.kind) {
      return a.kind < b.kind;
    }
    return a.entity < b.entity;
  });
  return sites;
}

}  // namespace hs::explore
