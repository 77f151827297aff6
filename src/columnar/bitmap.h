#ifndef BENTO_COLUMNAR_BITMAP_H_
#define BENTO_COLUMNAR_BITMAP_H_

#include <cstdint>

#include "columnar/buffer.h"

namespace bento::col {

/// Bit-packed validity helpers (1 = valid, LSB-first within a byte), the
/// Arrow convention. All functions tolerate bitmap == nullptr as "all valid".

inline bool BitIsSet(const uint8_t* bitmap, int64_t i) {
  return (bitmap[i >> 3] >> (i & 7)) & 1;
}

inline void SetBit(uint8_t* bitmap, int64_t i) {
  bitmap[i >> 3] = static_cast<uint8_t>(bitmap[i >> 3] | (1u << (i & 7)));
}

inline void ClearBit(uint8_t* bitmap, int64_t i) {
  bitmap[i >> 3] = static_cast<uint8_t>(bitmap[i >> 3] & ~(1u << (i & 7)));
}

inline void SetBitTo(uint8_t* bitmap, int64_t i, bool value) {
  if (value) {
    SetBit(bitmap, i);
  } else {
    ClearBit(bitmap, i);
  }
}

inline int64_t BitmapBytes(int64_t bits) { return (bits + 7) >> 3; }

/// \brief Number of set bits in the first `length` bits.
int64_t CountSetBits(const uint8_t* bitmap, int64_t length);

/// \brief Allocates a bitmap of `bits` bits, all set to `value`.
Result<BufferPtr> AllocateBitmap(int64_t bits, bool value);

/// \brief out[i] = a[i] & b[i] over `bits` bits; either input may be null
/// ("all valid").
Result<BufferPtr> BitmapAnd(const uint8_t* a, const uint8_t* b, int64_t bits);

}  // namespace bento::col

#endif  // BENTO_COLUMNAR_BITMAP_H_
