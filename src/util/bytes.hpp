// Byte buffer reader/writer with network (big-endian) byte order.
//
// Wire formats in this code base (SCION headers, transport frames) are
// serialized through ByteWriter and parsed through ByteReader. The reader is
// bounds-checked and fails softly via a sticky error flag, so parsers can
// chain reads and check once at the end — the pattern used by real packet
// parsers to avoid a bounds branch forest.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pan {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void raw(const Bytes& data) { raw(std::span<const std::uint8_t>(data)); }
  void str(std::string_view s) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }
  /// Length-prefixed (u16) string, for variable fields in frames.
  void lp_str(std::string_view s);
  /// Length-prefixed (u16) byte blob.
  void lp_bytes(std::span<const std::uint8_t> data);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Empties the buffer, keeping its capacity for the next writes.
  void clear() { buf_.clear(); }
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

  /// Overwrite a previously written u16 at `offset` (e.g. back-patching a
  /// length field).
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads exactly n bytes; returns empty and sets the error flag on underrun.
  Bytes raw(std::size_t n);
  std::string str(std::size_t n);
  std::string lp_str();
  Bytes lp_bytes();
  /// Skips n bytes.
  void skip(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool failed() const { return failed_; }
  /// True iff no read ever ran past the end AND the buffer was fully consumed.
  [[nodiscard]] bool complete() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Direct big-endian loads for lazy wire-format views that decode individual
/// fields at known offsets without a ByteReader pass. The caller guarantees
/// bounds (views validate the whole structure once at parse time).
[[nodiscard]] inline std::uint16_t read_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}
[[nodiscard]] inline std::uint32_t read_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) | (std::uint32_t{p[2]} << 8) |
         p[3];
}
[[nodiscard]] inline std::uint64_t read_be64(const std::uint8_t* p) {
  return (std::uint64_t{read_be32(p)} << 32) | read_be32(p + 4);
}

/// Hex encoding for digests and debugging output.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);
[[nodiscard]] Bytes from_string(std::string_view s);
[[nodiscard]] std::string to_string_view_copy(const Bytes& b);
[[nodiscard]] std::string to_string_view_copy(std::span<const std::uint8_t> data);

}  // namespace pan
