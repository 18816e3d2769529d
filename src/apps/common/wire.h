// Tiny explicit-layout serializer for application message payloads.
// Little-endian, bounds-checked reads; used by all three applications'
// request/response formats.
//
// Strings carry a u16 length prefix and byte fields a u32 one.  Writers
// reject input the prefix cannot describe (std::length_error) rather
// than emit a frame whose reader would misparse every later field.
// Readers return either owning copies or views into the payload; a view
// is only valid while the payload it was read from is alive.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ipipe::wire {

using Bytes = std::span<const std::uint8_t>;

/// Encoded size of a put_str / put_bytes field of `n` payload bytes.
[[nodiscard]] constexpr std::size_t str_size(std::size_t n) noexcept {
  return sizeof(std::uint16_t) + n;
}
[[nodiscard]] constexpr std::size_t bytes_size(std::size_t n) noexcept {
  return sizeof(std::uint32_t) + n;
}

class Writer {
 public:
  Writer() = default;
  /// Start with room for `capacity` bytes: an encoder that knows its
  /// exact size allocates once.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  template <typename T>
  Writer& put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
    return *this;
  }
  Writer& put_str(std::string_view s) {
    put_len<std::uint16_t>(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
    return *this;
  }
  Writer& put_bytes(Bytes b) {
    put_len<std::uint32_t>(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
    return *this;
  }
  /// A byte field of `n` zero bytes for the caller to fill in place.  The
  /// span is valid until the next write.
  std::span<std::uint8_t> put_bytes_in_place(std::size_t n) {
    put_len<std::uint32_t>(n);
    buf_.resize(buf_.size() + n);
    return {buf_.data() + buf_.size() - n, n};
  }
  /// Overwrite a fixed-size field written earlier at `offset`.
  template <typename T>
  void put_at(std::size_t offset, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(offset + sizeof(T) <= buf_.size());
    std::memcpy(buf_.data() + offset, &value, sizeof(T));
  }
  /// Drop everything written after the first `size` bytes.
  void truncate(std::size_t size) { buf_.resize(size); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename Len>
  void put_len(std::size_t n) {
    if (n > std::numeric_limits<Len>::max()) {
      throw std::length_error("wire: field longer than its length prefix");
    }
    put(static_cast<Len>(n));
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(Bytes data) : data_(data) {}

  template <typename T>
  [[nodiscard]] bool get(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) return false;
    std::memcpy(&out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  /// View reads: `out` points into the payload.
  [[nodiscard]] bool get_str(std::string_view& out) {
    std::uint16_t len = 0;
    if (!get(len) || len > remaining()) return false;
    out = {reinterpret_cast<const char*>(data_.data() + pos_), len};
    pos_ += len;
    return true;
  }
  [[nodiscard]] bool get_bytes(Bytes& out) {
    std::uint32_t len = 0;
    if (!get(len) || len > remaining()) return false;
    out = data_.subspan(pos_, len);
    pos_ += len;
    return true;
  }
  /// Owning reads: a view read plus a copy.
  [[nodiscard]] bool get_str(std::string& out) {
    std::string_view v;
    if (!get_str(v)) return false;
    out.assign(v);
    return true;
  }
  [[nodiscard]] bool get_bytes(std::vector<std::uint8_t>& out) {
    Bytes v;
    if (!get_bytes(v)) return false;
    out.assign(v.begin(), v.end());
    return true;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// Bytes consumed so far.
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  Bytes data_;
  std::size_t pos_ = 0;
};

}  // namespace ipipe::wire
