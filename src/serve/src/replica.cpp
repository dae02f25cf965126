#include "dcnas/serve/replica.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <thread>

#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"

namespace dcnas::serve {

namespace {

obs::Counter& routed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.replica.route.count");
  return c;
}

obs::Counter& spill_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.replica.spill.count");
  return c;
}

/// Cheap per-thread xorshift for routing draws — routing quality needs
/// uniformity, not cryptographic strength, and must not contend on a
/// shared generator.
std::uint64_t route_draw() {
  static thread_local std::uint64_t state =
      0x9E3779B97F4A7C15ull ^
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id()));
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

std::string model_metric(std::string_view family, std::string_view model) {
  std::string name(family);
  name += "{model=";
  name += model;
  name += '}';
  return name;
}

Replica::Replica(std::shared_ptr<ModelRegistry> registry,
                 const BatchPolicy& policy, std::size_t num_workers,
                 obs::MetricsRegistry* metrics)
    : registry_(std::move(registry)),
      metrics_(metrics),
      batcher_(policy),
      pool_(num_workers) {
  DCNAS_CHECK(registry_ != nullptr, "Replica requires a ModelRegistry");
  DCNAS_CHECK(metrics_ != nullptr, "Replica requires a MetricsRegistry");
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_.submit(std::function<void()>([this] { worker_loop(); }));
  }
}

Replica::~Replica() {
  close();
  drain();
}

std::future<Tensor> Replica::enqueue(const std::string& model,
                                     const Tensor& input,
                                     std::chrono::microseconds deadline) {
  return batcher_.enqueue(model, input, deadline);
}

void Replica::drain() { pool_.wait_idle(); }

void Replica::worker_loop() noexcept {
  // noexcept drain: next_batch answers merge failures through futures and
  // handle_batch answers execution failures the same way, so nothing here
  // can leak into the pool's fire-and-forget error slot (which wait_idle
  // would rethrow from a destructor -> std::terminate).
  try {
    while (auto batch = batcher_.next_batch()) {
      handle_batch(std::move(*batch));
    }
  } catch (...) {
    // Unreachable by contract; swallowing is still safer than terminating
    // the process mid-serve.
  }
}

void Replica::handle_batch(Batch&& batch) noexcept {
  const std::int64_t n = batch.size();
  obs::Span span("serve", "serve.batch.execute");
  if (span.armed()) {
    span.arg("model", batch.model);
    span.arg("rows", n);
  }
  // The model's whole family registers together, once per batch, so every
  // model that reached a replica exports the same four names.
  obs::Counter& requests =
      metrics_->counter(model_metric("serve.request.count", batch.model));
  obs::Counter& errors =
      metrics_->counter(model_metric("serve.error.count", batch.model));
  obs::Summary& latency_ms =
      metrics_->summary(model_metric("serve.request.latency_ms", batch.model));
  obs::Summary& batch_size =
      metrics_->summary(model_metric("serve.batch.size", batch.model));
  std::vector<Tensor> rows;
  try {
    // One locked read hands back a coherent {executor, plan, version}
    // triple, so a concurrent hot-swap can never pair this batch with a
    // stale plan.
    const ModelSnapshot snap = registry_->snapshot(batch.model);
    const Tensor out = snap.plan->run(batch.input);
    DCNAS_ASSERT(out.ndim() >= 1 && out.dim(0) == n,
                 "batched output row count mismatch");
    const std::int64_t per = out.numel() / n;
    Shape row_shape = out.shape();
    row_shape[0] = 1;
    rows.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      Tensor row(row_shape);
      std::memcpy(row.data(), out.data() + i * per,
                  static_cast<std::size_t>(per) * sizeof(float));
      rows.push_back(std::move(row));
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    errors.add(static_cast<std::int64_t>(batch.requests.size()));
    for (PendingRequest& req : batch.requests) req.promise.set_exception(error);
    return;
  }
  batch_size.observe(static_cast<double>(n));
  requests.add(n);
  const auto done = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    PendingRequest& req = batch.requests[static_cast<std::size_t>(i)];
    latency_ms.observe(
        std::chrono::duration<double, std::milli>(done - req.admitted).count());
    req.promise.set_value(std::move(rows[static_cast<std::size_t>(i)]));
  }
}

ReplicaGroup::ReplicaGroup(std::shared_ptr<ModelRegistry> registry,
                           std::size_t num_replicas,
                           std::size_t workers_per_replica,
                           const BatchPolicy& policy,
                           obs::MetricsRegistry* metrics) {
  num_replicas = std::max<std::size_t>(num_replicas, 1);
  workers_per_replica = std::max<std::size_t>(workers_per_replica, 1);
  replicas_.reserve(num_replicas);
  for (std::size_t i = 0; i < num_replicas; ++i) {
    replicas_.push_back(std::make_unique<Replica>(
        registry, policy, workers_per_replica, metrics));
  }
}

std::future<Tensor> ReplicaGroup::submit(const std::string& model,
                                         const Tensor& input,
                                         std::chrono::microseconds deadline) {
  routed_counter().add(1);
  const std::size_t n = replicas_.size();
  if (n == 1) return replicas_[0]->enqueue(model, input, deadline);

  // Power of two choices on pending depth.
  const std::size_t a = static_cast<std::size_t>(route_draw() % n);
  std::size_t b = static_cast<std::size_t>(route_draw() % (n - 1));
  if (b >= a) ++b;
  std::size_t first = a, second = b;
  if (replicas_[b]->pending() < replicas_[a]->pending()) {
    first = b;
    second = a;
  }
  try {
    return replicas_[first]->enqueue(model, input, deadline);
  } catch (const RejectedError& e) {
    // Spill a full replica's overflow to the other sampled choice; any
    // other rejection (shutdown) is final.
    if (e.reason() != RejectReason::kQueueFull) throw;
    spill_counter().add(1);
    return replicas_[second]->enqueue(model, input, deadline);
  }
}

std::size_t ReplicaGroup::pending() const {
  std::size_t total = 0;
  for (const auto& r : replicas_) total += r->pending();
  return total;
}

std::vector<std::size_t> ReplicaGroup::pending_per_replica() const {
  std::vector<std::size_t> depths;
  depths.reserve(replicas_.size());
  for (const auto& r : replicas_) depths.push_back(r->pending());
  return depths;
}

void ReplicaGroup::shutdown() {
  if (shut_down_.exchange(true)) return;
  // Close every intake before draining any replica: a drain that overlaps
  // another replica's open intake could strand routed work behind it.
  for (const auto& r : replicas_) r->close();
  for (const auto& r : replicas_) r->drain();
}

}  // namespace dcnas::serve
