#include "explore/schedule.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <tuple>

#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/check.h"

namespace hs::explore {

namespace {

constexpr char kMagic[8] = {'H', 'S', 'S', 'C', 'H', 'E', 'D', '1'};

/// Entities and occurrences are small in practice (machine indices,
/// per-site consult counts); the cap keeps packed lookup keys unique and
/// catches garbage from a corrupted file early.
constexpr uint32_t kMaxField = 1u << 24;

void validate_op(const Override& op, size_t index) {
  HS_CHECK(static_cast<uint8_t>(op.kind) <
               static_cast<uint8_t>(cluster::ChoiceKind::kCount),
           "schedule op " << index << ": bad choice kind "
                          << static_cast<int>(op.kind));
  HS_CHECK(op.entity < kMaxField,
           "schedule op " << index << ": entity " << op.entity
                          << " out of range");
  HS_CHECK(op.occurrence < kMaxField,
           "schedule op " << index << ": occurrence " << op.occurrence
                          << " out of range");
  if (op.is_bool()) {
    HS_CHECK(op.value_bits <= 1, "schedule op "
                                     << index << ": non-canonical bool bits "
                                     << op.value_bits);
  } else {
    const double value = op.double_value();
    HS_CHECK(std::isfinite(value) && value >= 0.0,
             "schedule op " << index << ": double value must be finite and "
                            << ">= 0, got " << value);
  }
}

}  // namespace

Override Override::force_bool(cluster::ChoiceKind kind, uint32_t entity,
                              uint32_t occurrence, bool value) {
  HS_CHECK(cluster::choice_kind_is_bool(kind),
           "choice kind " << cluster::choice_kind_name(kind)
                          << " does not take a bool");
  return Override{kind, entity, occurrence, value ? 1ull : 0ull};
}

Override Override::force_double(cluster::ChoiceKind kind, uint32_t entity,
                                uint32_t occurrence, double value) {
  HS_CHECK(!cluster::choice_kind_is_bool(kind),
           "choice kind " << cluster::choice_kind_name(kind)
                          << " does not take a double");
  HS_CHECK(std::isfinite(value) && value >= 0.0,
           "override value must be finite and >= 0, got " << value);
  return Override{kind, entity, occurrence,
                  std::bit_cast<uint64_t>(value)};
}

double Override::double_value() const {
  return std::bit_cast<double>(value_bits);
}

std::string Override::describe() const {
  std::ostringstream out;
  out << cluster::choice_kind_name(kind) << "[m" << entity << "]#"
      << occurrence << " = ";
  if (is_bool()) {
    out << (bool_value() ? "true" : "false");
  } else {
    out << double_value();
  }
  return out.str();
}

void Schedule::validate() const {
  std::set<std::tuple<uint8_t, uint32_t, uint32_t>> seen;
  for (size_t i = 0; i < ops.size(); ++i) {
    validate_op(ops[i], i);
    const auto key = std::make_tuple(static_cast<uint8_t>(ops[i].kind),
                                     ops[i].entity, ops[i].occurrence);
    HS_CHECK(seen.insert(key).second,
             "schedule op " << i << " duplicates target "
                            << ops[i].describe());
  }
}

std::vector<uint8_t> Schedule::encode() const {
  validate();
  util::ByteWriter out;
  out.reserve(sizeof(kMagic) + 2 + ops.size() * 12);
  out.bytes(kMagic, sizeof(kMagic));
  out.varint(ops.size());
  for (const Override& op : ops) {
    out.u8(static_cast<uint8_t>(op.kind));
    out.varint(op.entity);
    out.varint(op.occurrence);
    if (op.is_bool()) {
      out.u8(op.bool_value() ? 1 : 0);
    } else {
      out.u64(op.value_bits);
    }
  }
  return out.take();
}

Schedule Schedule::decode(const uint8_t* data, size_t size) {
  HS_CHECK(data != nullptr || size == 0, "null schedule bytes");
  HS_CHECK(size >= sizeof(kMagic) &&
               std::memcmp(data, kMagic, sizeof(kMagic)) == 0,
           "not an HSSCHED1 schedule (bad magic)");
  util::ByteReader in({data, size}, "HSSCHED1 schedule");
  (void)in.bytes(sizeof(kMagic));
  const uint64_t count = in.varint();
  HS_CHECK(count <= size, "schedule op count " << count
                                               << " impossible for " << size
                                               << " bytes");
  Schedule schedule;
  schedule.ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Override op;
    op.kind = static_cast<cluster::ChoiceKind>(in.u8());
    HS_CHECK(static_cast<uint8_t>(op.kind) <
                 static_cast<uint8_t>(cluster::ChoiceKind::kCount),
             "schedule op " << i << ": bad choice kind byte");
    op.entity = static_cast<uint32_t>(in.varint());
    op.occurrence = static_cast<uint32_t>(in.varint());
    op.value_bits = op.is_bool() ? in.u8() : in.u64();
    schedule.ops.push_back(op);
  }
  HS_CHECK(in.remaining() == 0, "schedule has " << in.remaining()
                                                << " trailing bytes after "
                                                   "op list");
  schedule.validate();
  return schedule;
}

Schedule Schedule::decode(const std::vector<uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

void save_schedule(const Schedule& schedule, const std::string& path) {
  const std::vector<uint8_t> bytes = schedule.encode();
  util::write_file_atomic(path, bytes.data(), bytes.size());
}

Schedule load_schedule(const std::string& path) {
  return Schedule::decode(util::read_file(path));
}

}  // namespace hs::explore
