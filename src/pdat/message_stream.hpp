// Byte stream used to marshal patch data for MPI transfer, mirroring
// SAMRAI's MessageStream in the paper's PatchData interface (Fig. 2):
// the transfer plans pack each aggregated peer message into one, and
// the regrid's tag exchange frames its payloads with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace ramr::pdat {

/// Growable little-endian byte stream with sequential read/write.
class MessageStream {
 public:
  MessageStream() = default;

  /// Wraps received bytes for unpacking.
  explicit MessageStream(std::vector<std::byte> data) : buffer_(std::move(data)) {}

  const std::byte* data() const { return buffer_.data(); }
  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return buffer_.capacity(); }
  std::size_t read_position() const { return read_pos_; }
  bool fully_consumed() const { return read_pos_ == buffer_.size(); }

  /// Moves the buffer out and resets the stream to a fresh, empty state.
  std::vector<std::byte> release() {
    read_pos_ = 0;
    reserved_ = false;
    return std::move(buffer_);
  }

  /// Preallocates room for `bytes` more bytes. Pack paths that hold
  /// pointers returned by grow() across further growth MUST reserve the
  /// exact total first (the planned message size): a reallocation
  /// would invalidate every previously returned pointer. After reserve(),
  /// growing past the reservation is a debug-checked contract violation.
  void reserve(std::size_t bytes) {
    buffer_.reserve(buffer_.size() + bytes);
    reserved_ = true;
  }

  /// Pre-extends the buffer and returns a pointer to the new region; used
  /// by device pack kernels that write directly into the stream after the
  /// PCIe copy.
  std::byte* grow(std::size_t bytes) {
    const std::size_t offset = buffer_.size();
    RAMR_DEBUG_ASSERT(!reserved_ || offset + bytes <= buffer_.capacity());
    buffer_.resize(offset + bytes);
    return buffer_.data() + offset;
  }

  void write_bytes(const void* src, std::size_t bytes) {
    std::memcpy(grow(bytes), src, bytes);
  }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_bytes(&value, sizeof(T));
  }

  void write_doubles(const double* src, std::size_t count) {
    write_bytes(src, count * sizeof(double));
  }

  void read_bytes(void* dst, std::size_t bytes) {
    RAMR_REQUIRE(read_pos_ + bytes <= buffer_.size(),
                 "MessageStream underflow: need " << bytes << " at "
                 << read_pos_ << " of " << buffer_.size());
    std::memcpy(dst, buffer_.data() + read_pos_, bytes);
    read_pos_ += bytes;
  }

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    read_bytes(&value, sizeof(T));
    return value;
  }

  void read_doubles(double* dst, std::size_t count) {
    read_bytes(dst, count * sizeof(double));
  }

  /// Returns a pointer to `bytes` bytes at the read position and advances
  /// past them (zero-copy read used by device unpack kernels).
  const std::byte* view_and_skip(std::size_t bytes) {
    RAMR_REQUIRE(read_pos_ + bytes <= buffer_.size(), "MessageStream underflow");
    const std::byte* p = buffer_.data() + read_pos_;
    read_pos_ += bytes;
    return p;
  }

 private:
  std::vector<std::byte> buffer_;
  std::size_t read_pos_ = 0;
  bool reserved_ = false;
};

}  // namespace ramr::pdat
