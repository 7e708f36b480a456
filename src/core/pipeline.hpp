// End-to-end OMS pipeline (paper Fig. 2): preprocessing → HD encoding →
// Hamming search over a precursor-mass window → target-decoy FDR filter.
//
// The search substrate is selected by registry name (see
// core/search_backend.hpp): "ideal-hd" is exact digital HD (HyperOMS'
// algorithm), and "rram-statistical" searches through the calibrated MLC
// RRAM error model ("this work" on hardware), counting the chip-capacity
// slices of the library it enters (multi-chip accounting). The crossbar
// circuit simulation calibrates that model (accel::calibrate_mvm_error)
// and is not a backend.
// Independent of the backend, `injected_ber` flips encoded bits at a given
// rate (the Fig. 11 robustness protocol).
//
// Query execution is streaming: core::QueryEngine (core/query_engine.hpp)
// admits queries one by one or in chunks and runs size-B query blocks
// (preprocess → encode → search → rescore → PSM emission) on the shared
// thread pool. run() is a thin
// synchronous wrapper — it submits the whole query set to an engine and
// drains it — so both entry points produce bit-identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "accel/imc_encoder.hpp"
#include "core/fdr.hpp"
#include "core/search_backend.hpp"
#include "hd/encoder.hpp"
#include "ms/library.hpp"
#include "ms/preprocess.hpp"
#include "ms/spectrum.hpp"
#include "ms/synthesizer.hpp"

namespace oms::index {
class LibraryIndex;  // one persistent artifact (index/library_index.hpp)
class SegmentedLibrary;  // the library type (index/segmented_library.hpp)
}  // namespace oms::index

namespace oms::core {

struct PipelineConfig {
  ms::PreprocessConfig preprocess{};
  hd::EncoderConfig encoder{};
  double oms_window_da = 500.0;       ///< Open search precursor window (±).
  double standard_window_da = 0.05;   ///< Standard search window (±).
  bool open_search = true;            ///< false → standard search only.
  double fdr_threshold = 0.01;
  bool grouped_fdr = true;            ///< ANN-SoLo style standard/open split.
  bool add_decoys = true;
  /// If > 1, the HD search keeps this many candidates per query and each
  /// is rescored with the exact shifted dot product before the best is
  /// kept — HD as the fast prefilter, floating-point scoring as the
  /// refinement (the natural HyperOMS × ANN-SoLo hybrid).
  std::size_t rescore_top_k = 1;
  /// Also search the precursor-mass interpretations at charge z±1: charge
  /// state assignment from the instrument is not always right, and a
  /// wrong charge moves the neutral mass far outside any window. The best
  /// hit across interpretations wins.
  bool charge_tolerant = false;
  double injected_ber = 0.0;          ///< Bit errors on all encoded HVs.
  /// Search backend registry name ("ideal-hd", "rram-statistical", or
  /// anything registered at runtime). Empty → "ideal-hd".
  std::string backend_name;
  /// Device and chip-slice options handed to BackendRegistry::make. The seed is
  /// overridden with `seed` below so one knob controls the whole run.
  BackendOptions backend_options{};
  std::uint64_t seed = 2024;
};

struct PipelineResult {
  std::vector<Psm> psms;        ///< Best match per searchable query.
  std::vector<Psm> accepted;    ///< Target PSMs passing the FDR filter.
  std::size_t queries_in = 0;   ///< Queries given to run().
  std::size_t queries_searched = 0;  ///< Survived preprocessing.
  std::size_t library_targets = 0;
  std::size_t library_decoys = 0;

  [[nodiscard]] std::size_t identifications() const noexcept {
    return accepted.size();
  }
  /// (query id, matched peptide) pairs for overlap/Venn analysis.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>>
  identification_set() const;
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& cfg);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }

  /// Adjusts the FDR threshold for subsequent runs and engine drains. A
  /// filter-time knob: the library, encodings, and backend are untouched.
  /// Must not be called while a QueryEngine is live on this pipeline.
  /// Throws std::invalid_argument naming the value unless it is in (0, 1]
  /// (NaN included), as the constructor does for cfg.fdr_threshold.
  void set_fdr_threshold(double threshold);

  /// The backend registry name this pipeline resolves to (backend_name,
  /// or "ideal-hd" when it is empty).
  [[nodiscard]] std::string backend_name() const;
  /// The same resolution for a configuration with no pipeline built.
  [[nodiscard]] static std::string backend_name(const PipelineConfig& cfg);

  /// Builds the reference side: preprocess targets, synthesize decoys,
  /// encode everything (with optional BER injection), and construct the
  /// search backend through the registry. Must be called before run().
  void set_library(const std::vector<ms::Spectrum>& targets);

  /// Cold-start path: adopts a persistent index::SegmentedLibrary (a
  /// manifest of segments, or a monolithic index opened as one segment)
  /// in place of raw spectra. The library entries and reference
  /// hypervectors come straight from the (typically mmap'd) artifact —
  /// zero encode calls — in the library's global merged order, so search
  /// results are bit-identical to the equivalent monolithic artifact (see
  /// segmented_library.hpp for the tie-order caveat). Throws
  /// std::invalid_argument when the library's fingerprint does not match
  /// this pipeline's preprocess/encoder/encoding configuration. The
  /// pipeline shares ownership, so the mappings outlive it.
  ///
  /// Multi-tenant use (the serve::LibraryCache seam): `shared_backend`,
  /// when non-null, is an externally owned search backend already built
  /// over this same library's hypervectors, adopted instead of
  /// constructing a private one — so N sessions on one library share one
  /// backend instance (and its exact BackendStats counters). It must be
  /// registered under this pipeline's backend_name (std::invalid_argument
  /// otherwise).
  void set_library(std::shared_ptr<const index::SegmentedLibrary> library,
                   std::shared_ptr<SearchBackend> shared_backend = nullptr);

  /// Monolithic-index shorthand for
  /// set_library(SegmentedLibrary::of(index)).
  void set_library(std::shared_ptr<const index::LibraryIndex> index);

  /// The pipeline's search backend, shareable with other pipelines over
  /// the same reference set (null before set_library). The donation path
  /// for serve::LibraryCache: the first session builds, the cache keeps.
  [[nodiscard]] std::shared_ptr<SearchBackend> shared_backend()
      const noexcept {
    return backend_;
  }

  /// The active library: owned (spectra path) or the artifact's (load
  /// path).
  [[nodiscard]] const ms::SpectralLibrary& library() const noexcept;
  /// Encoded reference hypervectors, aligned with library() order. On the
  /// artifact load path these are zero-copy views into the mapped words.
  [[nodiscard]] std::span<const util::BitVec> reference_hvs()
      const noexcept {
    return ref_view_;
  }
  /// Reference spectra encoded by this pipeline so far. Stays 0 on the
  /// index load path — the zero-re-encoding cold-start contract.
  [[nodiscard]] std::size_t reference_encode_count() const noexcept {
    return reference_encodes_;
  }
  /// Accounting snapshot of the search backend (valid after set_library).
  [[nodiscard]] BackendStats backend_stats() const;

  /// Searches all queries and applies the FDR filter. Implemented as a
  /// QueryEngine stream (submit everything, drain); use QueryEngine
  /// directly to admit queries as they arrive or to tune block size and
  /// block concurrency.
  [[nodiscard]] PipelineResult run(const std::vector<ms::Spectrum>& queries);

 private:
  friend class QueryEngine;  ///< The streaming executor behind run().

  [[nodiscard]] std::vector<util::BitVec> encode_spectra(
      const std::vector<ms::BinnedSpectrum>& spectra, std::uint64_t ber_salt);
  /// Query-side IMC encoder when the backend's trait requires it.
  void ensure_imc_encoder();
  /// Alias for library() used by the engine internals.
  [[nodiscard]] const ms::SpectralLibrary& lib() const noexcept {
    return library();
  }

  PipelineConfig cfg_;
  hd::Encoder encoder_;
  ms::SpectralLibrary library_;             ///< Spectra-path storage.
  std::vector<util::BitVec> ref_hvs_;       ///< Spectra-path storage.
  /// Keep-alive for the load path: the mapped artifact must outlive the
  /// backend reading its word blocks. Non-null ⇔ artifact-backed library.
  std::shared_ptr<const index::SegmentedLibrary> artifact_;
  std::span<const util::BitVec> ref_view_;      ///< Active hypervectors.
  std::size_t reference_encodes_ = 0;
  /// shared_ptr so serve-layer sessions can multiplex one backend over a
  /// cached library; exclusively owned on the classic single-run paths.
  std::shared_ptr<SearchBackend> backend_;
  std::unique_ptr<accel::ImcEncoder> imc_encoder_;
};

}  // namespace oms::core
