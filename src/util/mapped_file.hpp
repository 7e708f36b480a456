// Read-only file mapping for load-once search artifacts (the
// index::LibraryIndex container). On POSIX platforms the file is mmap'd
// PROT_READ so a cold start touches only the pages the search actually
// walks; where mmap is unavailable (or the caller asks for it) the whole
// file is read into an owned heap buffer instead — same data() contract,
// no zero-copy. Move-only RAII; the mapping lives exactly as long as the
// object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace oms::util {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Falls back to an in-memory copy when mmap is
  /// not available on the platform. Throws std::runtime_error when the
  /// file cannot be opened or mapped/read.
  [[nodiscard]] static MappedFile open(const std::string& path);

  /// Reads `path` into an owned buffer (no mapping). The portable
  /// fallback, also useful when the file lives on storage that should not
  /// be paged against (e.g. to be robust to the file changing underneath).
  [[nodiscard]] static MappedFile read(const std::string& path);

  /// Copies `size` bytes into an owned buffer — for images already in
  /// memory (tests, corruption injection).
  [[nodiscard]] static MappedFile from_bytes(const void* bytes,
                                             std::size_t size);

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True when the bytes are an actual mmap'ing (zero-copy), false when
  /// they live in the in-memory fallback buffer.
  [[nodiscard]] bool mapped() const noexcept { return map_base_ != nullptr; }

 private:
  void reset() noexcept;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_base_ = nullptr;         ///< Non-null → munmap on destruction.
  std::size_t map_length_ = 0;
  /// In-memory fallback storage; uint64 elements so the buffer is 8-byte
  /// aligned and the index word block can be read as uint64_t in place.
  std::vector<std::uint64_t> buffer_;
};

}  // namespace oms::util
