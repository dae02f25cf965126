#pragma once
/// \file search_space.hpp
/// \brief The paper's NAS search space (Figure 2).
///
/// Architecture dimensions (per input-data combination):
///   conv1 kernel {3, 7} x stride {1, 2} x padding {1, 2, 3}
///   x pool_choice {0 = with max-pool, 1 = no pooling}
///   x pool kernel {2, 3} x pool stride {1, 2}
///   x initial output feature (stage width) {32, 48, 64}
/// = 2*2*3 * 2*2*2 * 3 = 288 lattice points, matching §3.2's "288 distinct
/// model configurations for every combination of input data". With the six
/// input combinations (channels {5, 7} x batch {8, 16, 32}) the full
/// lattice is 1,728 trials; the paper reports 1,717 valid outcomes.
///
/// pool_choice semantics: Table 4's latencies identify pool_choice=0 as
/// *with* pooling (fast, extra downsampling) and 1 as *without* (see
/// DESIGN.md §4); when pool_choice=1 the pool kernel/stride are don't-care
/// dimensions, so 144 no-pool lattice points collapse onto 36 unique
/// architectures per combination (180 unique total).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcnas/nn/resnet.hpp"

namespace dcnas::nas {

/// One lattice point: input combination + architecture knobs. Field names
/// follow Table 4's column names.
struct TrialConfig {
  int channels = 5;                 ///< {5, 7}
  int batch = 8;                    ///< {8, 16, 32}
  int kernel_size = 7;              ///< conv1 kernel {3, 7}
  int stride = 2;                   ///< conv1 stride {1, 2}
  int padding = 3;                  ///< conv1 padding {1, 2, 3}
  int pool_choice = 0;              ///< 0 = with max-pool, 1 = no pooling
  int kernel_size_pool = 3;         ///< {2, 3}; don't-care when no pool
  int stride_pool = 2;              ///< {1, 2}; don't-care when no pool
  int initial_output_feature = 64;  ///< {32, 48, 64}
  /// Serving precision {0 = fp32, 1 = int8 post-training quantization}
  /// (QUANTIZATION.md). Orthogonal to the architecture: an int8 trial and
  /// its fp32 twin train the same network — only the compiled serving plan
  /// differs. Off the paper's 1,728-point lattice; NSGA-II explores it when
  /// Nsga2Options::search_precision is set.
  int precision = 0;
  /// BasicBlocks per residual stage {1, 2, 3} — ResNet-10/18/26. 2 is the
  /// paper's ResNet-18 and the only depth on the 1,728-point lattice; the
  /// wide lattice (SearchSpaceSpec::wide) explores the other levels. Keys
  /// and encode() are unchanged at the default so every pre-existing
  /// store/CSV artifact stays valid.
  int depth = 2;

  bool with_pool() const { return pool_choice == 0; }
  bool int8() const { return precision == 1; }

  /// True when the stem geometry can pass graph verification (the
  /// sem.geometry pass rejects conv padding > kernel: window columns made
  /// entirely of padding). The wide lattice's independent axes generate
  /// such points (kernel 1 with padding 2/3); enumerate() and
  /// LatticeStream skip them symmetrically, so serial and streamed sweeps
  /// agree on the evaluated set. Every paper-lattice point passes.
  bool geometry_ok() const { return padding <= kernel_size; }

  /// Stem downsampling factor: conv1 stride x (pool stride when pooled).
  int stem_downsample() const {
    return stride * (with_pool() ? stride_pool : 1);
  }

  /// Converts to the model-builder config (classes fixed at 2).
  nn::ResNetConfig to_resnet_config() const;

  /// Stock ResNet-18 for a given input combination (Table 5 rows).
  static TrialConfig baseline(int channels, int batch);

  /// Throws InvalidArgument when any field is outside the paper's Figure 2
  /// search space (depth fixed at 2, fp32/int8 precision only).
  void validate() const;

  /// Throws InvalidArgument when any field is outside the *widest* lattice
  /// any SearchSpaceSpec may span (the universe the builders, oracle, and
  /// persistence layers must accept). validate() ⊂ validate_universe().
  void validate_universe() const;

  /// Unique key of the *architecture* (pool don't-cares canonicalized,
  /// batch and precision excluded): lattice points sharing this key train
  /// the same net.
  std::string canonical_arch_key() const;

  /// Unique key of the lattice point itself (all fields; "_q8" suffix when
  /// precision == int8, so quantized trials cache separately).
  std::string lattice_key() const;

  /// Deterministic 64-bit encoding of the lattice point (oracle noise key).
  /// Deliberately precision-free: an int8 trial shares its fp32 twin's
  /// training-noise draws, so the oracle's quantization drop is the *only*
  /// accuracy difference between the twins.
  std::uint64_t encode() const;

  std::string to_string() const;
};

/// A concrete lattice: one option list per TrialConfig dimension. The
/// paper's Figure 2 space and the HW-NAS-Bench-style wide lattice are both
/// instances, so every consumer (streams, stores, schedulers) works against
/// one description instead of hard-coded enumerations.
///
/// Configurations are addressable by index: at(i) decodes a mixed-radix
/// index (most-significant dimension first, matching the paper lattice's
/// historical enumeration order) in O(#dims) without materializing the
/// lattice — the piece that lets a 10^5–10^6-point sweep stream rather than
/// hold every TrialConfig in memory.
struct SearchSpaceSpec {
  std::vector<int> channels, batches, kernels, strides, paddings,
      pool_choices, pool_kernels, pool_strides, widths, precisions, depths;

  /// The paper's 1,728-point lattice (depth {2}, precision {0}). at()
  /// enumerates in exactly SearchSpace::enumerate_all() order.
  static SearchSpaceSpec paper();

  /// The widened lattice: kernels {1,3,5,7}, paddings {0..3}, widths
  /// {16,24,32,48,64,96}, batches {4,8,16,32,64}, pool kernels {2,3,4},
  /// depths {1,2,3}, both precisions — 138,240 lattice points, of which
  /// 120,960 are buildable (geometry_ok skips kernel-1/padding>1 corners).
  static SearchSpaceSpec wide();

  std::int64_t size() const;  ///< product of the option-list sizes

  /// Decodes lattice index \p i (0 <= i < size()) to its configuration.
  TrialConfig at(std::int64_t i) const;

  /// True when \p config is a lattice point of this spec.
  bool contains(const TrialConfig& config) const;

  /// Stable identity of the lattice (dimension values + size), hashed into
  /// every TrialStore's control file so a store can refuse records from a
  /// different search space.
  std::string describe() const;
  std::uint64_t fingerprint() const;  ///< fnv1a64(describe())

  /// Materializes the whole lattice (small specs / tests only).
  std::vector<TrialConfig> enumerate() const;

  void validate() const;  ///< non-empty option lists, universe-legal values
};

/// Pull-based candidate source for streamed scheduling: next() yields
/// configurations until exhausted. Implementations need not be thread-safe;
/// the scheduler's admission loop is the only caller.
class CandidateStream {
 public:
  virtual ~CandidateStream() = default;
  virtual std::optional<TrialConfig> next() = 0;
  /// Total candidates this stream will yield (for progress accounting).
  virtual std::int64_t total() const = 0;
};

/// Streams a spec's lattice by index: [start, spec.size()) stepping by
/// \p stride — stride N with offsets 0..N-1 shards one lattice across N
/// workers with no shared state and no materialization.
class LatticeStream : public CandidateStream {
 public:
  explicit LatticeStream(const SearchSpaceSpec& spec, std::int64_t start = 0,
                         std::int64_t stride = 1);
  std::optional<TrialConfig> next() override;
  std::int64_t total() const override;

 private:
  SearchSpaceSpec spec_;
  std::int64_t next_index_;
  std::int64_t stride_;
  std::int64_t size_;
};

/// Streams an in-memory config list (adapter for the vector-based callers).
class VectorStream : public CandidateStream {
 public:
  explicit VectorStream(std::vector<TrialConfig> configs)
      : configs_(std::move(configs)) {}
  std::optional<TrialConfig> next() override {
    if (next_ >= configs_.size()) return std::nullopt;
    return configs_[next_++];
  }
  std::int64_t total() const override {
    return static_cast<std::int64_t>(configs_.size());
  }

 private:
  std::vector<TrialConfig> configs_;
  std::size_t next_ = 0;
};

/// Enumeration helpers over the Figure 2 space.
class SearchSpace {
 public:
  static const std::vector<int>& channel_options();
  static const std::vector<int>& batch_options();
  static const std::vector<int>& kernel_options();
  static const std::vector<int>& stride_options();
  static const std::vector<int>& padding_options();
  static const std::vector<int>& pool_choice_options();
  static const std::vector<int>& pool_kernel_options();
  static const std::vector<int>& pool_stride_options();
  static const std::vector<int>& width_options();
  static const std::vector<int>& precision_options();  ///< {0, 1}

  /// The 288 architecture lattice points for one (channels, batch) combo.
  static std::vector<TrialConfig> enumerate_architectures(int channels,
                                                          int batch);

  /// All 1,728 lattice points (6 input combinations x 288).
  static std::vector<TrialConfig> enumerate_all();

  static std::int64_t lattice_size();            ///< 1728
  static std::int64_t architectures_per_combo(); ///< 288

  /// Number of distinct architectures after no-pool canonicalization
  /// (per combo: 144 pooled + 36 unpooled = 180).
  static std::int64_t unique_architectures_per_combo();

  /// Uniformly samples one lattice point.
  static TrialConfig sample(Rng& rng, int channels, int batch);
};

}  // namespace dcnas::nas
