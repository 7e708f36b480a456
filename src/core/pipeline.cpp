#include "core/pipeline.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/query_engine.hpp"
#include "hd/errors.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "index/segmented_library.hpp"
#include "util/thread_pool.hpp"

namespace oms::core {

std::vector<std::pair<std::uint32_t, std::string>>
PipelineResult::identification_set() const {
  std::vector<std::pair<std::uint32_t, std::string>> ids;
  ids.reserve(accepted.size());
  for (const auto& p : accepted) ids.emplace_back(p.query_id, p.peptide);
  std::sort(ids.begin(), ids.end());
  return ids;
}

namespace {

double checked_fdr_threshold(double threshold) {
  if (!(threshold > 0.0 && threshold <= 1.0)) {
    std::ostringstream msg;
    msg << "Pipeline: fdr_threshold must be in (0, 1], got " << threshold;
    throw std::invalid_argument(msg.str());
  }
  return threshold;
}

}  // namespace

Pipeline::Pipeline(const PipelineConfig& cfg)
    : cfg_(cfg), encoder_(cfg.encoder) {
  (void)checked_fdr_threshold(cfg.fdr_threshold);
}

void Pipeline::set_fdr_threshold(double threshold) {
  cfg_.fdr_threshold = checked_fdr_threshold(threshold);
}

Pipeline::~Pipeline() = default;

std::string Pipeline::backend_name() const { return backend_name(cfg_); }

std::string Pipeline::backend_name(const PipelineConfig& cfg) {
  return cfg.backend_name.empty() ? "ideal-hd" : cfg.backend_name;
}

const ms::SpectralLibrary& Pipeline::library() const noexcept {
  return artifact_ ? artifact_->library() : library_;
}

BackendStats Pipeline::backend_stats() const {
  if (!backend_) {
    throw std::logic_error("Pipeline::backend_stats: set_library() first");
  }
  return backend_->stats();
}

std::vector<util::BitVec> Pipeline::encode_spectra(
    const std::vector<ms::BinnedSpectrum>& spectra, std::uint64_t ber_salt) {
  // Gather sparse vectors; the encoder batches and parallelizes.
  std::vector<std::vector<std::uint32_t>> bin_lists(spectra.size());
  std::vector<std::vector<float>> weight_lists(spectra.size());
  for (std::size_t i = 0; i < spectra.size(); ++i) {
    bin_lists[i] = spectra[i].bins;
    weight_lists[i] = spectra[i].weights;
  }

  // Substrates registered with the imc_encoding trait ("rram-statistical",
  // any runtime-registered device backend) also encode through the
  // statistical IMC error model; the rest take the exact digital encoding.
  const bool imc_encode =
      BackendRegistry::instance().imc_encoding(backend_name());

  reference_encodes_ += spectra.size();
  std::vector<util::BitVec> hvs;
  if (imc_encode) {
    ensure_imc_encoder();
    // Validate and calibrate sigmas up front, then encode in parallel with
    // per-spectrum keyed noise.
    encoder_.validate(bin_lists, weight_lists);
    imc_encoder_->precalibrate(bin_lists);

    hvs.resize(spectra.size());
    util::ThreadPool::global().parallel_for(
        0, spectra.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            hvs[i] = imc_encoder_->encode_keyed(
                bin_lists[i], weight_lists[i],
                util::hash_combine(ber_salt, spectra[i].id));
          }
        });
  } else {
    hvs = encoder_.encode_batch(bin_lists, weight_lists);
  }

  if (cfg_.injected_ber > 0.0) {
    hvs = hd::with_bit_errors(hvs, cfg_.injected_ber,
                              util::hash_combine(cfg_.seed, ber_salt));
  }
  return hvs;
}

void Pipeline::ensure_imc_encoder() {
  // In-memory encoding stores one ID row per peak in a differential pair
  // row, so the preprocessing cap must fit the array.
  const rram::ArrayConfig& array = cfg_.backend_options.array;
  if (cfg_.preprocess.max_peaks > array.pair_rows()) {
    std::ostringstream msg;
    msg << "Pipeline: preprocess.max_peaks = " << cfg_.preprocess.max_peaks
        << " exceeds the " << array.pair_rows()
        << " differential pair rows of an array (array.rows = " << array.rows
        << "), which in-memory encoding of backend '" << backend_name()
        << "' needs one per peak";
    throw std::invalid_argument(msg.str());
  }
  if (!imc_encoder_) {
    imc_encoder_ = std::make_unique<accel::ImcEncoder>(
        encoder_,
        accel::ImcEncoderConfig{cfg_.backend_options.array,
                                accel::Fidelity::kStatistical,
                                cfg_.backend_options.calibration_samples,
                                cfg_.seed});
  }
}

void Pipeline::set_library(const std::vector<ms::Spectrum>& targets) {
  // Fail on a typo'd backend name, or a peak cap the array cannot hold,
  // before the (expensive) encoding work.
  BackendRegistry::instance().require(backend_name());
  if (BackendRegistry::instance().imc_encoding(backend_name())) {
    ensure_imc_encoder();
  }
  reference_encodes_ = 0;  // count this library build only

  std::vector<ms::BinnedSpectrum> entries =
      ms::preprocess_all(targets, cfg_.preprocess);

  if (cfg_.add_decoys) {
    std::vector<ms::Spectrum> decoys;
    decoys.reserve(targets.size());
    const ms::SynthesisParams decoy_params{};  // clean, reference-like
    for (const auto& t : targets) {
      decoys.push_back(ms::make_decoy_spectrum(
          t, decoy_params, util::hash_combine(cfg_.seed, t.id, 0xDECULL)));
    }
    std::vector<ms::BinnedSpectrum> decoy_entries =
        ms::preprocess_all(decoys, cfg_.preprocess);
    entries.insert(entries.end(),
                   std::make_move_iterator(decoy_entries.begin()),
                   std::make_move_iterator(decoy_entries.end()));
  }

  library_ = ms::SpectralLibrary(std::move(entries));

  // Encode in library (mass-sorted) order so hypervector index == library
  // index, which the search relies on.
  std::vector<ms::BinnedSpectrum> ordered(library_.entries().begin(),
                                          library_.entries().end());
  ref_hvs_ = encode_spectra(ordered, 0x5245465345ULL /* "REFSE" salt */);

  // All search paths go through the registry — the pipeline never touches
  // a concrete engine type.
  artifact_.reset();
  ref_view_ = ref_hvs_;
  BackendOptions opts = cfg_.backend_options;
  opts.seed = cfg_.seed;
  backend_.reset();
  backend_ = make_backend(backend_name(), ref_view_, opts);
}

void Pipeline::set_library(std::shared_ptr<const index::LibraryIndex> index) {
  set_library(std::make_shared<const index::SegmentedLibrary>(
      index::SegmentedLibrary::of(std::move(index))));
}

void Pipeline::set_library(
    std::shared_ptr<const index::SegmentedLibrary> library,
    std::shared_ptr<SearchBackend> shared_backend) {
  BackendRegistry::instance().require(backend_name());
  if (!library) {
    throw std::invalid_argument("Pipeline::set_library: null library");
  }
  // Fail loudly on any configuration drift before a single query runs.
  // Every segment carries the manifest's fingerprint (checked at open),
  // so validating the manifest's covers them all.
  oms::index::validate_fingerprint(library->fingerprint(), cfg_);

  // Adopt the artifact: entries and hypervectors come straight from the
  // mapped files; nothing is preprocessed or encoded here (the counter
  // reset keeps the zero-re-encoding contract observable after a warm
  // replica switches to the artifact).
  reference_encodes_ = 0;
  library_ = ms::SpectralLibrary();
  ref_hvs_.clear();
  artifact_ = std::move(library);
  ref_view_ = artifact_->hypervectors();

  // Query-side encoding must still go through the IMC model when the
  // backend's trait demands it (the references already did, per the
  // fingerprint).
  if (BackendRegistry::instance().imc_encoding(backend_name())) {
    ensure_imc_encoder();
  }

  if (shared_backend) {
    // Multi-tenant path: adopt a backend another pipeline (or the
    // serve-layer library cache) already built over this same library's
    // hypervectors. A name mismatch would silently search through the
    // wrong substrate.
    if (shared_backend->name() != backend_name()) {
      throw std::invalid_argument(
          "Pipeline::set_library: shared backend is '" +
          std::string(shared_backend->name()) + "' but this pipeline wants '" +
          backend_name() + "'");
    }
    backend_ = std::move(shared_backend);
    return;
  }
  BackendOptions opts = cfg_.backend_options;
  opts.seed = cfg_.seed;
  backend_.reset();
  backend_ = make_backend(backend_name(), ref_view_, opts);
}

PipelineResult Pipeline::run(const std::vector<ms::Spectrum>& queries) {
  if (lib().empty() || !backend_) {
    throw std::logic_error("Pipeline::run: set_library() first");
  }
  // Thin wrapper over the streaming executor: submit everything, drain.
  // The engine's keyed-noise contract makes the result independent of
  // block size and worker count.
  QueryEngineConfig ecfg;
  ecfg.stage_threads = std::clamp<std::size_t>(
      util::ThreadPool::global().thread_count(), 1, 8);
  QueryEngine engine(*this, ecfg);
  engine.submit_batch(queries);
  return engine.drain();
}

}  // namespace oms::core
