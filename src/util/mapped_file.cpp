#include "util/mapped_file.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define OMSHD_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define OMSHD_HAVE_MMAP 0
#endif

namespace oms::util {

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      map_base_(std::exchange(other.map_base_, nullptr)),
      map_length_(std::exchange(other.map_length_, 0)),
      buffer_(std::move(other.buffer_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_length_ = std::exchange(other.map_length_, 0);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

void MappedFile::reset() noexcept {
#if OMSHD_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_length_);
  }
#endif
  map_base_ = nullptr;
  map_length_ = 0;
  data_ = nullptr;
  size_ = 0;
  buffer_.clear();
}

MappedFile MappedFile::open(const std::string& path) {
#if OMSHD_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("MappedFile: cannot open " + path);
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("MappedFile: cannot stat " + path);
  }
  MappedFile mf;
  mf.size_ = static_cast<std::size_t>(st.st_size);
  if (mf.size_ == 0) {
    ::close(fd);
    return mf;  // empty file: empty (unmapped) result
  }
  void* base = ::mmap(nullptr, mf.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  // The descriptor is not needed once the mapping exists (POSIX keeps the
  // mapping alive past close()).
  ::close(fd);
  if (base == MAP_FAILED) {
    // Filesystems without mmap support: degrade to the in-memory path.
    return read(path);
  }
  mf.map_base_ = base;
  mf.map_length_ = mf.size_;
  mf.data_ = static_cast<const std::byte*>(base);
  return mf;
#else
  return read(path);
#endif
}

MappedFile MappedFile::read(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("MappedFile: cannot open " + path);
  }
  const std::streamsize size = in.tellg();
  if (size < 0) {
    // Unseekable special files (FIFOs etc.) report -1; fail cleanly
    // instead of casting it into a gigantic allocation.
    throw std::runtime_error("MappedFile: cannot size " + path);
  }
  in.seekg(0, std::ios::beg);
  MappedFile mf;
  mf.buffer_.resize((static_cast<std::size_t>(size) + 7) / 8, 0);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(mf.buffer_.data()), size)) {
    throw std::runtime_error("MappedFile: short read on " + path);
  }
  mf.data_ = reinterpret_cast<const std::byte*>(mf.buffer_.data());
  mf.size_ = static_cast<std::size_t>(size);
  return mf;
}

MappedFile MappedFile::from_bytes(const void* bytes, std::size_t size) {
  MappedFile mf;
  mf.buffer_.resize((size + 7) / 8, 0);
  if (size > 0) {
    std::memcpy(mf.buffer_.data(), bytes, size);
  }
  mf.data_ = reinterpret_cast<const std::byte*>(mf.buffer_.data());
  mf.size_ = size;
  return mf;
}

}  // namespace oms::util
