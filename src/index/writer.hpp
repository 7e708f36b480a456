// Streaming writer for the LibraryIndex container. Sections are written
// sequentially with a running FNV-1a checksum (the hypervector word block
// streams one vector at a time, so a million-spectrum library never needs
// a second in-memory copy); the section table is patched in afterwards via
// one seek. Used by index::IndexBuilder and by every path that persists a
// library.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "index/format.hpp"
#include "ms/library.hpp"
#include "util/bitvec.hpp"

namespace oms::index {

/// Writes a full library index: `library` entries (mass-sorted order) and
/// their encoded hypervectors `hvs` (aligned, hvs[i] ↔ library[i], all of
/// dimension fingerprint.enc_dim). The stream must be seekable (files and
/// stringstreams are). Throws std::invalid_argument on size/dimension
/// mismatches and std::runtime_error on IO failure.
void write_index(std::ostream& out, const ms::SpectralLibrary& library,
                 std::span<const util::BitVec> hvs,
                 const IndexFingerprint& fingerprint);

/// File variant of write_index; throws std::runtime_error when `path`
/// cannot be created.
void write_index_file(const std::string& path,
                      const ms::SpectralLibrary& library,
                      std::span<const util::BitVec> hvs,
                      const IndexFingerprint& fingerprint);

}  // namespace oms::index
