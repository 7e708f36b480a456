// Packed bit vector and the popcount kernels used by Hamming-similarity
// search. A binary hypervector of dimension D is stored as ceil(D/64)
// uint64 words; bit value 1 encodes hypervector component +1 and bit value 0
// encodes component -1 (the bipolar convention used throughout the paper).
//
// Two storage modes share one type:
//  * owning  — the words live in an internal vector (the default; what
//    every encoder produces);
//  * view    — the words live in externally owned, read-only memory (an
//    mmap'd index::LibraryIndex word block). Views are zero-copy: copying a
//    view copies 3 pointers, never the words. Read access is identical in
//    both modes; calling any mutating member on a view first detaches it
//    into owned storage (copy-on-write), so a view can never scribble on
//    the mapped file.
//
// ConstBitVec is the raw read-only companion: a trivially copyable
// (words, bits) pair for code that walks a mapped word block directly.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace oms::util {

/// Fixed-size packed bit vector with bipolar semantics (bit=1 ↔ +1).
class BitVec {
 public:
  BitVec() = default;

  /// Creates an all-zero (all -1 in bipolar terms) owning vector of `bits`
  /// bits.
  explicit BitVec(std::size_t bits)
      : bits_(bits), storage_((bits + 63) / 64, 0) {}

  /// Non-owning read-only view over `(bits + 63) / 64` externally owned
  /// words (e.g. one hypervector inside a mapped index word block). The
  /// words must outlive every copy of the view; tail bits beyond `bits`
  /// must be zero (the serialized format guarantees this).
  [[nodiscard]] static BitVec view(const std::uint64_t* words,
                                   std::size_t bits) noexcept {
    BitVec v;
    v.bits_ = bits;
    v.ext_ = words;
    return v;
  }

  /// True when this vector aliases external memory instead of owning its
  /// words. Mutating members detach first, so views stay read-only.
  [[nodiscard]] bool is_view() const noexcept { return ext_ != nullptr; }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return ext_ ? (bits_ + 63) / 64 : storage_.size();
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {data(), word_count()};
  }
  /// Mutable word access; detaches a view into owned storage first.
  [[nodiscard]] std::span<std::uint64_t> words() {
    ensure_owned();
    return storage_;
  }

  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (data()[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool v) {
    ensure_owned();
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v) {
      storage_[i >> 6] |= mask;
    } else {
      storage_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) {
    ensure_owned();
    storage_[i >> 6] ^= 1ULL << (i & 63);
  }

  /// Bipolar value of component i: +1 or -1.
  [[nodiscard]] int sign(std::size_t i) const noexcept {
    return get(i) ? +1 : -1;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Fills the vector with uniform random bits from `seed`, clearing any
  /// tail bits beyond size() so popcount stays exact.
  void randomize(std::uint64_t seed);

  /// Flips each bit independently with probability `ber` (bit-error
  /// injection used by the robustness experiments, Fig. 11).
  void inject_errors(double ber, Xoshiro256& rng);

  [[nodiscard]] bool operator==(const BitVec& other) const noexcept;

 private:
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return ext_ ? ext_ : storage_.data();
  }
  void ensure_owned();
  void clear_tail() noexcept;

  std::size_t bits_ = 0;
  /// Non-null → view mode over (bits_ + 63) / 64 external words.
  const std::uint64_t* ext_ = nullptr;
  std::vector<std::uint64_t> storage_;
};

/// Trivially copyable read-only bit-vector view: a (words, bits) pair over
/// externally owned memory. The minimal vocabulary for walking a mapped
/// hypervector word block without constructing BitVec objects; convert
/// with as_bitvec() where the BitVec-based kernels are needed.
class ConstBitVec {
 public:
  constexpr ConstBitVec() = default;
  constexpr ConstBitVec(const std::uint64_t* words, std::size_t bits) noexcept
      : words_(words), bits_(bits) {}

  [[nodiscard]] constexpr std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] constexpr std::size_t word_count() const noexcept {
    return (bits_ + 63) / 64;
  }
  [[nodiscard]] constexpr std::span<const std::uint64_t> words()
      const noexcept {
    return {words_, word_count()};
  }
  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  [[nodiscard]] std::size_t popcount() const noexcept {
    std::size_t total = 0;
    for (const std::uint64_t w : words()) total += std::popcount(w);
    return total;
  }
  /// Zero-copy BitVec view over the same words.
  [[nodiscard]] BitVec as_bitvec() const noexcept {
    return BitVec::view(words_, bits_);
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t bits_ = 0;
};

/// Hamming distance (# of differing components) between equally sized
/// vectors. Precondition: a.size() == b.size().
[[nodiscard]] std::size_t hamming_distance(const BitVec& a, const BitVec& b) noexcept;

/// Bipolar dot product ⟨a, b⟩ = D - 2·hamming = (#equal − #different).
[[nodiscard]] std::int64_t bipolar_dot(const BitVec& a, const BitVec& b) noexcept;

/// Hamming similarity in [0, 1]: fraction of equal components.
[[nodiscard]] double hamming_similarity(const BitVec& a, const BitVec& b) noexcept;

/// Raw word-level kernel: popcount of XOR over `n` words. This is the
/// *portable scalar* kernel (and the reference implementation every other
/// tier is verified bit-identical against); the Hamming-search hot path
/// goes through hd/kernels.hpp, which layers runtime-dispatched AVX2 /
/// AVX-512-VPOPCNTDQ variants on top of it.
[[nodiscard]] inline std::size_t xor_popcount(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t n) noexcept {
  std::size_t total = 0;
  // Unrolled by four: the compiler vectorizes this into pshufb/popcnt loops.
  const std::size_t body = n - n % 4;
  std::size_t i = 0;
  for (; i < body; i += 4) {
    total += std::popcount(a[i + 0] ^ b[i + 0]);
    total += std::popcount(a[i + 1] ^ b[i + 1]);
    total += std::popcount(a[i + 2] ^ b[i + 2]);
    total += std::popcount(a[i + 3] ^ b[i + 3]);
  }
  for (; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
  return total;
}

}  // namespace oms::util
