#ifndef HDD_COMMON_BYTE_CODEC_H_
#define HDD_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hdd {

/// The one little-endian integer codec behind every byte format in the
/// tree: WAL records and checkpoints, the network protocol, dist messages
/// and activity slices. Put* appends to `out`; Put*At overwrites bytes
/// already in `out` (a frame's length, LSN and CRC, sealed after the body
/// is encoded); Get* reads from the front of `*data` and advances it,
/// returning false (and consuming nothing) when too few bytes remain.

/// Writes the low `bytes` bytes of `v`, least significant first, to `dst`.
inline void StoreLe(char* dst, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    dst[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  StoreLe(bytes, v, 4);
  out->append(bytes, 4);
}

inline void PutU64(std::string* out, std::uint64_t v) {
  char bytes[8];
  StoreLe(bytes, v, 8);
  out->append(bytes, 8);
}

inline void PutU32At(std::string* out, std::size_t at, std::uint32_t v) {
  StoreLe(out->data() + at, v, 4);
}

inline void PutU64At(std::string* out, std::size_t at, std::uint64_t v) {
  StoreLe(out->data() + at, v, 8);
}

inline bool GetU8(std::string_view* data, std::uint8_t* v) {
  if (data->empty()) return false;
  *v = static_cast<std::uint8_t>((*data)[0]);
  data->remove_prefix(1);
  return true;
}

inline bool GetU32(std::string_view* data, std::uint32_t* v) {
  if (data->size() < 4) return false;
  *v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(static_cast<unsigned char>((*data)[i]))
          << (8 * i);
  }
  data->remove_prefix(4);
  return true;
}

inline bool GetU64(std::string_view* data, std::uint64_t* v) {
  if (data->size() < 8) return false;
  *v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>((*data)[i]))
          << (8 * i);
  }
  data->remove_prefix(8);
  return true;
}

}  // namespace hdd

#endif  // HDD_COMMON_BYTE_CODEC_H_
