#include "util/bytes.h"

#include "util/check.h"

namespace hs::util {

const uint8_t* ByteReader::take(size_t size) {
  HS_CHECK(size <= remaining(), "record truncated: need "
                                    << size << " more bytes at offset "
                                    << pos_ << ": " << context_);
  const uint8_t* p = data_.data() + pos_;
  pos_ += size;
  return p;
}

uint64_t ByteReader::varint() {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const uint8_t byte = u8();
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
  }
  HS_CHECK(false, "varint longer than 64 bits at offset " << pos_ << ": "
                                                          << context_);
  return 0;  // unreachable
}

}  // namespace hs::util
