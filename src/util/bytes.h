// Little-endian binary records: one writer and one bounds-checked reader.
//
// The three on-disk formats — HSTRACE1 traces and HSSNAP1 snapshots
// (serving/), HSSCHED1 fault schedules (explore/) — are all built from
// the same primitives: fixed-width little-endian integers, doubles
// stored as their IEEE-754 bit patterns, unsigned LEB128 varints and raw
// byte runs. ByteWriter appends them; ByteReader consumes them and
// throws util::CheckError instead of reading past the end, so a lying
// length field fails cleanly. Files are published with
// write_file_atomic() and loaded with read_file() (util/atomic_file.h).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hs::util {

class ByteWriter {
 public:
  void reserve(size_t size) { out_.reserve(size); }

  void u8(uint8_t value) { out_.push_back(value); }
  void u32(uint32_t value) { put(value, 4); }
  void u64(uint64_t value) { put(value, 8); }
  /// The double's bit pattern, so every value round-trips.
  void f64(double value) { put(std::bit_cast<uint64_t>(value), 8); }
  /// Unsigned LEB128: 7 bits per byte, low group first.
  void varint(uint64_t value) {
    for (; value >= 0x80; value >>= 7) {
      out_.push_back(static_cast<uint8_t>(value) | 0x80);
    }
    out_.push_back(static_cast<uint8_t>(value));
  }
  void bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_.insert(out_.end(), p, p + size);
  }

  /// The bytes written so far, moved out; the writer is left empty.
  [[nodiscard]] std::vector<uint8_t> take() { return std::move(out_); }

 private:
  void put(uint64_t value, int size) {
    for (int i = 0; i < size; ++i) {
      out_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  std::vector<uint8_t> out_;
};

class ByteReader {
 public:
  /// Reads `data`, which must outlive the reader; `context` (a path or a
  /// format name) ends every error message.
  ByteReader(std::span<const uint8_t> data, std::string context)
      : data_(data), context_(std::move(context)) {}

  uint8_t u8() { return *take(1); }
  uint32_t u32() { return static_cast<uint32_t>(get(4)); }
  uint64_t u64() { return get(8); }
  double f64() { return std::bit_cast<double>(get(8)); }
  uint64_t varint();
  /// The next `size` bytes, as a view into the data.
  std::span<const uint8_t> bytes(size_t size) { return {take(size), size}; }

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

 private:
  /// Advances past the next `size` bytes and returns their start.
  const uint8_t* take(size_t size);
  uint64_t get(int size) {
    const uint8_t* p = take(static_cast<size_t>(size));
    uint64_t value = 0;
    for (int i = size - 1; i >= 0; --i) {
      value = (value << 8) | p[i];
    }
    return value;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  std::string context_;
};

}  // namespace hs::util
