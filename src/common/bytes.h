// ByteWriter / ByteReader — the fixed-width field codec behind every
// format hdldp transmits or persists: wire envelopes and payloads
// (protocol/wire.h), checkpoint files and run digests
// (protocol/snapshot.h), aggregator state (protocol/aggregator.h),
// service snapshot blobs and shard part headers (data/shard.h).
//
// Fixed-width fields are little-endian u32, u64 and f64 (the IEEE-754
// bit pattern). Shard rows are mmapped and read as native doubles, so
// hdldp supports little-endian hosts only; the static_assert below is
// the one place that states it, and it lets every field move with a
// plain byte copy.
//
// ByteReader checks bounds once per read. A read past the end fails
// with the status its owner named at construction, so each format keeps
// its own truncation code and message.

#ifndef HDLDP_COMMON_BYTES_H_
#define HDLDP_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace hdldp {

static_assert(std::endian::native == std::endian::little,
              "hdldp formats are little-endian and copied byte for byte");

/// The fixed-width field types: u32, u64 and f64.
template <typename T>
concept FixedWidthField = std::is_same_v<T, std::uint32_t> ||
                          std::is_same_v<T, std::uint64_t> ||
                          std::is_same_v<T, double>;

/// \brief Appends fixed-width fields to a byte vector it does not own.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<unsigned char>* out) : out_(out) {}

  void U32(std::uint32_t v) { Append(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Append(&v, sizeof(v)); }
  /// The exact bit pattern, so NaN payloads and signed zeros survive.
  void F64(double v) { Append(&v, sizeof(v)); }
  void Bytes(std::span<const unsigned char> bytes) {
    Append(bytes.data(), bytes.size());
  }
  /// Consecutive fields, one per element, in one append.
  template <FixedWidthField T>
  void Write(std::span<const T> values) {
    Append(values.data(), values.size_bytes());
  }

 private:
  void Append(const void* data, std::size_t len) {
    if (len == 0) return;  // an empty span may carry a null data()
    const std::size_t base = out_->size();
    out_->resize(base + len);
    std::memcpy(out_->data() + base, data, len);
  }

  std::vector<unsigned char>* out_;
};

/// \brief Reads fixed-width fields from a byte span it does not own.
class ByteReader {
 public:
  /// A read past the end fails with Status(truncated_code,
  /// truncated_message); the message must outlive the reader.
  ByteReader(std::span<const unsigned char> bytes, StatusCode truncated_code,
             const char* truncated_message)
      : bytes_(bytes),
        truncated_code_(truncated_code),
        truncated_message_(truncated_message) {}

  Result<std::uint8_t> U8() { return Fixed<std::uint8_t>(); }
  Result<std::uint32_t> U32() { return Fixed<std::uint32_t>(); }
  Result<std::uint64_t> U64() { return Fixed<std::uint64_t>(); }
  Result<double> F64() { return Fixed<double>(); }

  /// Reads out.size() consecutive fields with one bounds check, for
  /// arrays on paths where a check per field shows.
  template <FixedWidthField T>
  Status Read(std::span<T> out) {
    if (out.size_bytes() > remaining()) return Truncated();
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
    return Status::OK();
  }

  /// The next `len` bytes, viewed in place.
  Result<std::span<const unsigned char>> Bytes(std::size_t len) {
    if (len > remaining()) return Truncated();
    const std::span<const unsigned char> out = bytes_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Bytes not yet read.
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  Result<T> Fixed() {
    if (sizeof(T) > remaining()) return Truncated();
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Status Truncated() const;

  std::span<const unsigned char> bytes_;
  std::size_t pos_ = 0;
  StatusCode truncated_code_;
  const char* truncated_message_;
};

}  // namespace hdldp

#endif  // HDLDP_COMMON_BYTES_H_
