#include "columnar/bitmap.h"

#include <cstring>

#include "simd/simd.h"

namespace bento::col {

int64_t CountSetBits(const uint8_t* bitmap, int64_t length) {
  if (bitmap == nullptr) return length;
  // One shared word-wise popcount body: Array::null_count(), the validity
  // kernels, and the SIMD layer all count through simd::PopcountBits.
  return simd::PopcountBits(bitmap, length);
}

Result<BufferPtr> AllocateBitmap(int64_t bits, bool value) {
  BENTO_ASSIGN_OR_RETURN(auto buf,
                         Buffer::Allocate(static_cast<uint64_t>(BitmapBytes(bits))));
  if (value && bits > 0) {
    std::memset(buf->mutable_data(), 0xFF, static_cast<size_t>(buf->size()));
    // Clear the trailing padding bits so CountSetBits stays exact when
    // callers scan whole bytes.
    for (int64_t i = bits; i < BitmapBytes(bits) * 8; ++i) {
      ClearBit(buf->mutable_data(), i);
    }
  }
  return buf;
}

namespace {

/// Clears the padding bits of the last byte so whole-byte scans stay exact.
void ClearTrailingBits(uint8_t* bitmap, int64_t bits) {
  for (int64_t i = bits; i < BitmapBytes(bits) * 8; ++i) ClearBit(bitmap, i);
}

}  // namespace

Result<BufferPtr> BitmapAnd(const uint8_t* a, const uint8_t* b, int64_t bits) {
  const int64_t nbytes = BitmapBytes(bits);
  if (a == nullptr && b == nullptr) return AllocateBitmap(bits, true);
  BENTO_ASSIGN_OR_RETURN(auto out,
                         Buffer::Allocate(static_cast<uint64_t>(nbytes)));
  uint8_t* dst = out->mutable_data();
  if (a == nullptr || b == nullptr) {
    std::memcpy(dst, a != nullptr ? a : b, static_cast<size_t>(nbytes));
  } else {
    simd::AndBytes(a, b, dst, nbytes);
  }
  ClearTrailingBits(dst, bits);
  return out;
}

}  // namespace bento::col
