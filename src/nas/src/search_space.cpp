#include "dcnas/nas/search_space.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "dcnas/common/error.hpp"
#include "dcnas/common/strings.hpp"

namespace dcnas::nas {

namespace {
bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

nn::ResNetConfig TrialConfig::to_resnet_config() const {
  validate_universe();
  nn::ResNetConfig cfg;
  cfg.in_channels = channels;
  cfg.conv1_kernel = kernel_size;
  cfg.conv1_stride = stride;
  cfg.conv1_padding = padding;
  cfg.with_pool = with_pool();
  cfg.pool_kernel = kernel_size_pool;
  cfg.pool_stride = stride_pool;
  cfg.init_width = initial_output_feature;
  cfg.blocks_per_stage = depth;
  cfg.num_classes = 2;
  return cfg;
}

TrialConfig TrialConfig::baseline(int channels, int batch) {
  TrialConfig c;
  c.channels = channels;
  c.batch = batch;
  c.validate();
  return c;
}

void TrialConfig::validate() const {
  DCNAS_CHECK(contains(SearchSpace::channel_options(), channels),
              "channels outside search space");
  DCNAS_CHECK(contains(SearchSpace::batch_options(), batch),
              "batch outside search space");
  DCNAS_CHECK(contains(SearchSpace::kernel_options(), kernel_size),
              "kernel_size outside search space");
  DCNAS_CHECK(contains(SearchSpace::stride_options(), stride),
              "stride outside search space");
  DCNAS_CHECK(contains(SearchSpace::padding_options(), padding),
              "padding outside search space");
  DCNAS_CHECK(contains(SearchSpace::pool_choice_options(), pool_choice),
              "pool_choice outside search space");
  DCNAS_CHECK(contains(SearchSpace::pool_kernel_options(), kernel_size_pool),
              "kernel_size_pool outside search space");
  DCNAS_CHECK(contains(SearchSpace::pool_stride_options(), stride_pool),
              "stride_pool outside search space");
  DCNAS_CHECK(contains(SearchSpace::width_options(), initial_output_feature),
              "initial_output_feature outside search space");
  DCNAS_CHECK(contains(SearchSpace::precision_options(), precision),
              "precision outside search space");
  DCNAS_CHECK(depth == 2, "depth outside the paper search space");
}

void TrialConfig::validate_universe() const {
  const SearchSpaceSpec u = SearchSpaceSpec::wide();
  DCNAS_CHECK(contains(u.channels, channels), "channels outside universe");
  DCNAS_CHECK(contains(u.batches, batch), "batch outside universe");
  DCNAS_CHECK(contains(u.kernels, kernel_size), "kernel_size outside universe");
  DCNAS_CHECK(contains(u.strides, stride), "stride outside universe");
  DCNAS_CHECK(contains(u.paddings, padding), "padding outside universe");
  DCNAS_CHECK(contains(u.pool_choices, pool_choice),
              "pool_choice outside universe");
  DCNAS_CHECK(contains(u.pool_kernels, kernel_size_pool),
              "kernel_size_pool outside universe");
  DCNAS_CHECK(contains(u.pool_strides, stride_pool),
              "stride_pool outside universe");
  DCNAS_CHECK(contains(u.widths, initial_output_feature),
              "initial_output_feature outside universe");
  DCNAS_CHECK(contains(u.precisions, precision), "precision outside universe");
  DCNAS_CHECK(contains(u.depths, depth), "depth outside universe");
}

std::string TrialConfig::canonical_arch_key() const {
  std::ostringstream os;
  os << "ch" << channels << "_k" << kernel_size << "_s" << stride << "_p"
     << padding << "_w" << initial_output_feature;
  if (with_pool()) {
    os << "_pool" << kernel_size_pool << "x" << stride_pool;
  } else {
    os << "_nopool";
  }
  // Suffix only off the default so every pre-depth-axis key is unchanged.
  if (depth != 2) os << "_d" << depth;
  return os.str();
}

std::string TrialConfig::lattice_key() const {
  std::ostringstream os;
  os << canonical_arch_key() << "_b" << batch << "_pc" << pool_choice << "_pk"
     << kernel_size_pool << "_ps" << stride_pool;
  // Suffix only when quantized: every pre-existing fp32 key is unchanged,
  // so stores and CSVs written before the precision axis stay valid.
  if (int8()) os << "_q8";
  return os.str();
}

std::uint64_t TrialConfig::encode() const {
  std::uint64_t code = 0;
  for (int v : {channels, batch, kernel_size, stride, padding, pool_choice,
                kernel_size_pool, stride_pool, initial_output_feature}) {
    code = code * 97 + static_cast<std::uint64_t>(v);
  }
  // Folded in only off the default (like the key suffixes) so every
  // pre-depth-axis encoding — and the oracle noise keyed on it — is stable.
  if (depth != 2) {
    code = splitmix64(code ^ (0xd00dULL + static_cast<std::uint64_t>(depth)));
  }
  return code;
}

std::string TrialConfig::to_string() const {
  std::ostringstream os;
  os << "TrialConfig{ch=" << channels << ", b=" << batch
     << ", k=" << kernel_size << ", s=" << stride << ", p=" << padding
     << ", pool_choice=" << pool_choice << " (k=" << kernel_size_pool
     << ", s=" << stride_pool << "), w=" << initial_output_feature
     << ", d=" << depth << (int8() ? ", int8" : "") << "}";
  return os.str();
}

const std::vector<int>& SearchSpace::channel_options() {
  static const std::vector<int> v = {5, 7};
  return v;
}
const std::vector<int>& SearchSpace::batch_options() {
  static const std::vector<int> v = {8, 16, 32};
  return v;
}
const std::vector<int>& SearchSpace::kernel_options() {
  static const std::vector<int> v = {3, 7};
  return v;
}
const std::vector<int>& SearchSpace::stride_options() {
  static const std::vector<int> v = {1, 2};
  return v;
}
const std::vector<int>& SearchSpace::padding_options() {
  static const std::vector<int> v = {1, 2, 3};
  return v;
}
const std::vector<int>& SearchSpace::pool_choice_options() {
  static const std::vector<int> v = {0, 1};
  return v;
}
const std::vector<int>& SearchSpace::pool_kernel_options() {
  static const std::vector<int> v = {2, 3};
  return v;
}
const std::vector<int>& SearchSpace::pool_stride_options() {
  static const std::vector<int> v = {1, 2};
  return v;
}
const std::vector<int>& SearchSpace::width_options() {
  static const std::vector<int> v = {32, 48, 64};
  return v;
}
const std::vector<int>& SearchSpace::precision_options() {
  static const std::vector<int> v = {0, 1};
  return v;
}

std::vector<TrialConfig> SearchSpace::enumerate_architectures(int channels,
                                                              int batch) {
  std::vector<TrialConfig> out;
  out.reserve(static_cast<std::size_t>(architectures_per_combo()));
  for (int k : kernel_options()) {
    for (int s : stride_options()) {
      for (int p : padding_options()) {
        for (int pc : pool_choice_options()) {
          for (int pk : pool_kernel_options()) {
            for (int ps : pool_stride_options()) {
              for (int w : width_options()) {
                TrialConfig c;
                c.channels = channels;
                c.batch = batch;
                c.kernel_size = k;
                c.stride = s;
                c.padding = p;
                c.pool_choice = pc;
                c.kernel_size_pool = pk;
                c.stride_pool = ps;
                c.initial_output_feature = w;
                c.validate();
                out.push_back(c);
              }
            }
          }
        }
      }
    }
  }
  DCNAS_ASSERT(static_cast<std::int64_t>(out.size()) ==
                   architectures_per_combo(),
               "architecture enumeration count mismatch");
  return out;
}

std::vector<TrialConfig> SearchSpace::enumerate_all() {
  std::vector<TrialConfig> out;
  out.reserve(static_cast<std::size_t>(lattice_size()));
  for (int ch : channel_options()) {
    for (int b : batch_options()) {
      const auto combo = enumerate_architectures(ch, b);
      out.insert(out.end(), combo.begin(), combo.end());
    }
  }
  return out;
}

std::int64_t SearchSpace::architectures_per_combo() {
  return static_cast<std::int64_t>(
      kernel_options().size() * stride_options().size() *
      padding_options().size() * pool_choice_options().size() *
      pool_kernel_options().size() * pool_stride_options().size() *
      width_options().size());
}

std::int64_t SearchSpace::lattice_size() {
  return architectures_per_combo() *
         static_cast<std::int64_t>(channel_options().size() *
                                   batch_options().size());
}

std::int64_t SearchSpace::unique_architectures_per_combo() {
  const auto combo = enumerate_architectures(5, 8);
  std::set<std::string> keys;
  for (const auto& c : combo) keys.insert(c.canonical_arch_key());
  return static_cast<std::int64_t>(keys.size());
}

SearchSpaceSpec SearchSpaceSpec::paper() {
  SearchSpaceSpec s;
  s.channels = SearchSpace::channel_options();
  s.batches = SearchSpace::batch_options();
  s.kernels = SearchSpace::kernel_options();
  s.strides = SearchSpace::stride_options();
  s.paddings = SearchSpace::padding_options();
  s.pool_choices = SearchSpace::pool_choice_options();
  s.pool_kernels = SearchSpace::pool_kernel_options();
  s.pool_strides = SearchSpace::pool_stride_options();
  s.widths = SearchSpace::width_options();
  s.precisions = {0};
  s.depths = {2};
  return s;
}

SearchSpaceSpec SearchSpaceSpec::wide() {
  SearchSpaceSpec s;
  s.channels = {5, 7};
  s.batches = {4, 8, 16, 32, 64};
  s.kernels = {1, 3, 5, 7};
  s.strides = {1, 2};
  s.paddings = {0, 1, 2, 3};
  s.pool_choices = {0, 1};
  s.pool_kernels = {2, 3, 4};
  s.pool_strides = {1, 2};
  s.widths = {16, 24, 32, 48, 64, 96};
  s.precisions = {0, 1};
  s.depths = {1, 2, 3};
  return s;
}

std::int64_t SearchSpaceSpec::size() const {
  std::int64_t n = 1;
  for (const auto* dim :
       {&channels, &batches, &kernels, &strides, &paddings, &pool_choices,
        &pool_kernels, &pool_strides, &widths, &precisions, &depths}) {
    n *= static_cast<std::int64_t>(dim->size());
  }
  return n;
}

TrialConfig SearchSpaceSpec::at(std::int64_t i) const {
  DCNAS_CHECK(i >= 0 && i < size(), "lattice index out of range");
  TrialConfig c;
  // Mixed-radix decode, least-significant dimension last — the same nesting
  // order as SearchSpace::enumerate_all, so paper().at(i) reproduces the
  // historical enumeration exactly.
  int* fields[] = {&c.channels,        &c.batch,
                   &c.kernel_size,     &c.stride,
                   &c.padding,         &c.pool_choice,
                   &c.kernel_size_pool, &c.stride_pool,
                   &c.initial_output_feature, &c.precision, &c.depth};
  const std::vector<int>* dims[] = {
      &channels,     &batches,      &kernels, &strides,    &paddings,
      &pool_choices, &pool_kernels, &pool_strides, &widths, &precisions,
      &depths};
  for (int d = 10; d >= 0; --d) {
    const auto radix = static_cast<std::int64_t>(dims[d]->size());
    *fields[d] = (*dims[d])[static_cast<std::size_t>(i % radix)];
    i /= radix;
  }
  return c;
}

bool SearchSpaceSpec::contains(const TrialConfig& c) const {
  const auto in = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  return in(channels, c.channels) && in(batches, c.batch) &&
         in(kernels, c.kernel_size) && in(strides, c.stride) &&
         in(paddings, c.padding) && in(pool_choices, c.pool_choice) &&
         in(pool_kernels, c.kernel_size_pool) &&
         in(pool_strides, c.stride_pool) &&
         in(widths, c.initial_output_feature) &&
         in(precisions, c.precision) && in(depths, c.depth);
}

std::string SearchSpaceSpec::describe() const {
  std::ostringstream os;
  os << "dcnas-lattice v1";
  const char* names[] = {"ch", "b",  "k", "s", "p", "pc",
                         "pk", "ps", "w", "q", "d"};
  const std::vector<int>* dims[] = {
      &channels,     &batches,      &kernels, &strides,    &paddings,
      &pool_choices, &pool_kernels, &pool_strides, &widths, &precisions,
      &depths};
  for (int d = 0; d < 11; ++d) {
    os << ';' << names[d] << '=';
    for (std::size_t j = 0; j < dims[d]->size(); ++j) {
      if (j) os << ',';
      os << (*dims[d])[j];
    }
  }
  os << ";n=" << size();
  return os.str();
}

std::uint64_t SearchSpaceSpec::fingerprint() const {
  return fnv1a64(describe());
}

std::vector<TrialConfig> SearchSpaceSpec::enumerate() const {
  const std::int64_t n = size();
  std::vector<TrialConfig> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    TrialConfig c = at(i);
    if (!c.geometry_ok()) continue;  // same skip rule as LatticeStream
    out.push_back(std::move(c));
  }
  return out;
}

void SearchSpaceSpec::validate() const {
  for (const auto* dim :
       {&channels, &batches, &kernels, &strides, &paddings, &pool_choices,
        &pool_kernels, &pool_strides, &widths, &precisions, &depths}) {
    DCNAS_CHECK(!dim->empty(), "search space dimension has no options");
  }
  // Every lattice corner must be universe-legal; checking the per-dimension
  // extremes is equivalent because validate_universe is per-field.
  at(0).validate_universe();
  at(size() - 1).validate_universe();
}

LatticeStream::LatticeStream(const SearchSpaceSpec& spec, std::int64_t start,
                             std::int64_t stride)
    : spec_(spec), next_index_(start), stride_(stride), size_(spec.size()) {
  DCNAS_CHECK(start >= 0, "lattice stream start must be >= 0");
  DCNAS_CHECK(stride >= 1, "lattice stream stride must be >= 1");
  spec_.validate();
}

std::optional<TrialConfig> LatticeStream::next() {
  // Unbuildable lattice points (see TrialConfig::geometry_ok) are skipped,
  // not yielded — the same rule enumerate() applies, so a streamed sweep
  // and a serial sweep evaluate exactly the same set.
  while (next_index_ < size_) {
    TrialConfig c = spec_.at(next_index_);
    next_index_ += stride_;
    if (c.geometry_ok()) return c;
  }
  return std::nullopt;
}

std::int64_t LatticeStream::total() const {
  // Upper bound: geometry-skipped points still count (progress accounting
  // only; exact filtering would cost a full lattice walk).
  const std::int64_t start =
      next_index_;  // call before consuming for the full count
  if (start >= size_) return 0;
  return (size_ - start + stride_ - 1) / stride_;
}

TrialConfig SearchSpace::sample(Rng& rng, int channels, int batch) {
  auto pick = [&rng](const std::vector<int>& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  TrialConfig c;
  c.channels = channels;
  c.batch = batch;
  c.kernel_size = pick(kernel_options());
  c.stride = pick(stride_options());
  c.padding = pick(padding_options());
  c.pool_choice = pick(pool_choice_options());
  c.kernel_size_pool = pick(pool_kernel_options());
  c.stride_pool = pick(pool_stride_options());
  c.initial_output_feature = pick(width_options());
  return c;
}

}  // namespace dcnas::nas
