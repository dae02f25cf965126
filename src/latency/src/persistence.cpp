#include "dcnas/latency/persistence.hpp"

#include <cstring>
#include <fstream>

namespace dcnas::latency {

namespace {

constexpr char kMagic[4] = {'D', 'C', 'L', 'P'};
// v1: fp32-only. v2 adds DeviceSpec::int8_peak_gops and a second forest
// block for int8 conv kernels; v1 files stay loadable (int8 fields default
// to "no fast path" and int8 kernels fall back to the fp32 forests).
constexpr std::uint32_t kVersion = 2;

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}
void put_i32(std::vector<unsigned char>& out, std::int32_t v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}
void put_f64(std::vector<unsigned char>& out, double v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}
void put_str(std::vector<unsigned char>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class Cursor {
 public:
  explicit Cursor(const std::vector<unsigned char>& in) : in_(in) {}
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  double f64() { return get<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    DCNAS_CHECK(pos_ + n <= in_.size(), "truncated predictor file");
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  bool exhausted() const { return pos_ == in_.size(); }

 private:
  template <typename T>
  T get() {
    DCNAS_CHECK(pos_ + sizeof(T) <= in_.size(), "truncated predictor file");
    T v;
    std::memcpy(&v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  const std::vector<unsigned char>& in_;
  std::size_t pos_ = 0;
};

void put_device(std::vector<unsigned char>& out, const DeviceSpec& d) {
  put_str(out, d.name);
  put_str(out, d.device_label);
  put_str(out, d.framework);
  put_str(out, d.processor);
  put_f64(out, d.peak_gflops);
  put_f64(out, d.int8_peak_gops);  // v2 field
  put_f64(out, d.mem_bw_gbps);
  put_f64(out, d.launch_overhead_ms);
  put_f64(out, d.util_small);
  put_f64(out, d.util_large);
  put_f64(out, d.flops_half_util);
  put_i32(out, d.simd_lanes);
  put_f64(out, d.jitter_amp);
  put_i32(out, d.vpu_mode_switches ? 1 : 0);
}

DeviceSpec read_device(Cursor& c, std::uint32_t version) {
  DeviceSpec d;
  d.name = c.str();
  d.device_label = c.str();
  d.framework = c.str();
  d.processor = c.str();
  d.peak_gflops = c.f64();
  d.int8_peak_gops = version >= 2 ? c.f64() : 0.0;
  d.mem_bw_gbps = c.f64();
  d.launch_overhead_ms = c.f64();
  d.util_small = c.f64();
  d.util_large = c.f64();
  d.flops_half_util = c.f64();
  d.simd_lanes = c.i32();
  d.jitter_amp = c.f64();
  d.vpu_mode_switches = c.i32() != 0;
  return d;
}

void put_forests(std::vector<unsigned char>& out,
                 const std::map<graph::KernelKind, RandomForest>& forests) {
  put_u32(out, static_cast<std::uint32_t>(forests.size()));
  for (const auto& [kind, forest] : forests) {
    put_i32(out, static_cast<std::int32_t>(kind));
    put_u32(out, static_cast<std::uint32_t>(forest.trees().size()));
    for (const auto& tree : forest.trees()) {
      put_u32(out, static_cast<std::uint32_t>(tree.nodes().size()));
      for (const auto& node : tree.nodes()) {
        put_i32(out, node.feature);
        put_f64(out, node.threshold);
        put_i32(out, node.left);
        put_i32(out, node.right);
        put_f64(out, node.value);
      }
    }
  }
}

std::map<graph::KernelKind, RandomForest> read_forests(Cursor& c) {
  const std::uint32_t num_forests = c.u32();
  std::map<graph::KernelKind, RandomForest> forests;
  for (std::uint32_t f = 0; f < num_forests; ++f) {
    const std::int32_t kind = c.i32();
    DCNAS_CHECK(kind >= 0 && kind < graph::kNumKernelKinds,
                "invalid kernel kind in predictor file");
    const std::uint32_t num_trees = c.u32();
    DCNAS_CHECK(num_trees > 0, "empty forest in predictor file");
    std::vector<RegressionTree> trees;
    for (std::uint32_t t = 0; t < num_trees; ++t) {
      const std::uint32_t num_nodes = c.u32();
      std::vector<RegressionTree::Node> nodes;
      nodes.reserve(num_nodes);
      for (std::uint32_t n = 0; n < num_nodes; ++n) {
        RegressionTree::Node node;
        node.feature = c.i32();
        node.threshold = c.f64();
        node.left = c.i32();
        node.right = c.i32();
        node.value = c.f64();
        nodes.push_back(node);
      }
      trees.push_back(RegressionTree::from_nodes(std::move(nodes)));
    }
    const bool inserted =
        forests
            .emplace(static_cast<graph::KernelKind>(kind),
                     RandomForest::from_trees(std::move(trees)))
            .second;
    DCNAS_CHECK(inserted, "duplicate kernel kind in predictor file");
  }
  return forests;
}

}  // namespace

std::vector<unsigned char> serialize_predictor(
    const LatencyPredictor& predictor) {
  DCNAS_CHECK(predictor.trained(), "cannot serialize an untrained predictor");
  // Magic and version in one fixed header: GCC 12 misreads appends to a
  // vector it can see is tiny as out-of-bounds writes.
  unsigned char header[8];
  const std::uint32_t version = kVersion;
  std::memcpy(header, kMagic, 4);
  std::memcpy(header + 4, &version, 4);
  std::vector<unsigned char> out(header, header + sizeof header);
  put_device(out, predictor.device());
  put_forests(out, predictor.forests());
  put_forests(out, predictor.int8_forests());  // v2 block (may be empty)
  return out;
}

LatencyPredictor parse_predictor(const std::vector<unsigned char>& bytes) {
  DCNAS_CHECK(bytes.size() >= 8 && std::memcmp(bytes.data(), kMagic, 4) == 0,
              "not a DCLP predictor file");
  Cursor c(bytes);
  c.u32();  // magic (validated)
  const std::uint32_t version = c.u32();
  DCNAS_CHECK(version == 1 || version == kVersion,
              "unsupported predictor file version");
  DeviceSpec device = read_device(c, version);
  std::map<graph::KernelKind, RandomForest> forests = read_forests(c);
  std::map<graph::KernelKind, RandomForest> int8_forests;
  if (version >= 2) int8_forests = read_forests(c);
  DCNAS_CHECK(c.exhausted(), "trailing bytes in predictor file");
  return LatencyPredictor::from_forests(std::move(device), std::move(forests),
                                        std::move(int8_forests));
}

std::int64_t save_predictor(const LatencyPredictor& predictor,
                            const std::string& path) {
  const auto bytes = serialize_predictor(predictor);
  std::ofstream out(path, std::ios::binary);
  DCNAS_CHECK(out.good(), "cannot open predictor file for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  DCNAS_CHECK(out.good(), "predictor file write failed: " + path);
  return static_cast<std::int64_t>(bytes.size());
}

LatencyPredictor load_predictor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DCNAS_CHECK(in.good(), "cannot open predictor file: " + path);
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return parse_predictor(bytes);
}

}  // namespace dcnas::latency
