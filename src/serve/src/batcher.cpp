#include "dcnas/serve/batcher.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"

namespace dcnas::serve {

namespace {

/// Process-wide admission/flush counters. These complement each Server's
/// private per-model registry: they aggregate across every batcher
/// instance, so a single metrics export shows total serving pressure.
obs::Counter& admitted_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.request.admitted.count");
  return c;
}

obs::Counter& rejected_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.request.rejected.count");
  return c;
}

obs::Counter& rejected_shutdown_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.reject.shutdown.count");
  return c;
}

obs::Counter& rejected_queue_full_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.reject.queue_full.count");
  return c;
}

obs::Counter& shed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.request.shed.count");
  return c;
}

obs::Counter& shed_overload_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.shed.overload.count");
  return c;
}

obs::Counter& shed_expired_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "serve.shed.deadline_expired.count");
  return c;
}

obs::Counter& flushed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.batch.flushed.count");
  return c;
}

obs::Histogram& batch_size_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "serve.batch.size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  return h;
}

/// Normalizes an accepted input to (C, H, W).
Tensor to_chw(const Tensor& input) {
  if (input.ndim() == 3) return input;
  DCNAS_CHECK(input.ndim() == 4 && input.dim(0) == 1,
              "serve request input must be (C,H,W) or (1,C,H,W)");
  return input.reshaped({input.dim(1), input.dim(2), input.dim(3)});
}

/// Fails \p requests' futures with a RejectedError of \p reason. Runs
/// outside the batcher lock: set_exception wakes future waiters.
void shed_requests(std::vector<PendingRequest>&& requests, RejectReason reason,
                   obs::Counter& reason_counter) {
  for (PendingRequest& req : requests) {
    shed_counter().add(1);
    reason_counter.add(1);
    req.promise.set_exception(std::make_exception_ptr(RejectedError(
        reason, std::string("serve: request shed, ") + to_string(reason) +
                    " (model " + req.model + ")")));
  }
  requests.clear();
}

}  // namespace

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShedOverload: return "shed_overload";
    case RejectReason::kDeadlineExpired: return "deadline_expired";
  }
  return "unknown";
}

void BatchPolicy::validate() const {
  DCNAS_CHECK(max_batch >= 1, "BatchPolicy.max_batch must be >= 1");
  DCNAS_CHECK(max_delay.count() >= 0, "BatchPolicy.max_delay must be >= 0");
  DCNAS_CHECK(queue_capacity >= 1, "BatchPolicy.queue_capacity must be >= 1");
}

DynamicBatcher::DynamicBatcher(BatchPolicy policy) : policy_(policy) {
  policy_.validate();
}

std::future<Tensor> DynamicBatcher::enqueue(const std::string& model,
                                            const Tensor& input,
                                            std::chrono::microseconds deadline) {
  obs::Span span("serve", "serve.admit");
  if (span.armed()) span.arg("model", model);
  DCNAS_CHECK(!model.empty(), "serve request needs a model name");
  PendingRequest req;
  req.model = model;
  req.input = to_chw(input);
  req.admitted = std::chrono::steady_clock::now();
  if (deadline.count() > 0) req.deadline = req.admitted + deadline;
  std::future<Tensor> fut = req.promise.get_future();
  std::optional<PendingRequest> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      rejected_counter().add(1);
      rejected_shutdown_counter().add(1);
      throw RejectedError(RejectReason::kShutdown,
                          "serve: rejected, server shutting down");
    }
    if (total_pending_ >= policy_.queue_capacity) {
      // Shed-oldest-past-deadline: a pending request that has already
      // missed its SLO will never be usefully executed, so its slot goes
      // to the newcomer instead of rejecting the newcomer outright.
      victim = take_oldest_expired_locked(req.admitted);
      if (!victim) {
        rejected_counter().add(1);
        rejected_queue_full_counter().add(1);
        throw RejectedError(
            RejectReason::kQueueFull,
            "serve: rejected, pending queue full (" +
                std::to_string(policy_.queue_capacity) + " requests)");
      }
    }
    queues_[model].push_back(std::move(req));
    ++total_pending_;
  }
  if (victim) {
    std::vector<PendingRequest> shed;
    shed.push_back(std::move(*victim));
    shed_requests(std::move(shed), RejectReason::kShedOverload,
                  shed_overload_counter());
  }
  admitted_counter().add(1);
  // notify_all: a consumer may be sleeping on another model's deadline and
  // this admission could complete a full batch it should pop immediately.
  cv_pending_.notify_all();
  return fut;
}

std::map<std::string, DynamicBatcher::Queue>::iterator
DynamicBatcher::ripest_queue_locked() {
  // A full queue flushes now, no matter how young: executing it cannot be
  // improved by waiting, and waiting starves it behind older sparse queues.
  // Among several full queues the oldest head wins (fairness); with none
  // full, the oldest head overall is the one whose delay deadline is next.
  auto best_full = queues_.end();
  auto best_old = queues_.end();
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    const Queue& q = it->second;
    if (q.empty()) continue;
    if (static_cast<std::int64_t>(q.size()) >= policy_.max_batch &&
        (best_full == queues_.end() ||
         q.front().admitted < best_full->second.front().admitted)) {
      best_full = it;
    }
    if (best_old == queues_.end() ||
        q.front().admitted < best_old->second.front().admitted) {
      best_old = it;
    }
  }
  return best_full != queues_.end() ? best_full : best_old;
}

Batch DynamicBatcher::pop_batch_locked(
    std::map<std::string, Queue>::iterator it) {
  Queue& q = it->second;
  Batch batch;
  batch.model = it->first;
  const Shape shape = q.front().input.shape();  // copy: front is moved from
  while (!q.empty() &&
         batch.size() < policy_.max_batch &&
         q.front().input.shape() == shape) {
    batch.requests.push_back(std::move(q.front()));
    q.pop_front();
    --total_pending_;
  }
  if (q.empty()) queues_.erase(it);
  return batch;
}

void DynamicBatcher::take_expired_locked(TimePoint now,
                                         std::vector<PendingRequest>* out) {
  for (auto it = queues_.begin(); it != queues_.end();) {
    Queue& q = it->second;
    bool any_expired = false;
    for (const PendingRequest& req : q) {
      if (req.deadline <= now) {
        any_expired = true;
        break;
      }
    }
    if (any_expired) {  // rebuild only queues that actually shed something
      Queue kept;
      for (PendingRequest& req : q) {
        if (req.deadline <= now) {
          out->push_back(std::move(req));
          --total_pending_;
        } else {
          kept.push_back(std::move(req));
        }
      }
      q = std::move(kept);
    }
    it = q.empty() ? queues_.erase(it) : std::next(it);
  }
  std::sort(out->begin(), out->end(),
            [](const PendingRequest& a, const PendingRequest& b) {
              return a.admitted < b.admitted;
            });
}

std::optional<PendingRequest> DynamicBatcher::take_oldest_expired_locked(
    TimePoint now) {
  auto best_queue = queues_.end();
  std::size_t best_index = 0;
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    const Queue& q = it->second;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].deadline > now) continue;
      if (best_queue == queues_.end() ||
          q[i].admitted < best_queue->second[best_index].admitted) {
        best_queue = it;
        best_index = i;
      }
    }
  }
  if (best_queue == queues_.end()) return std::nullopt;
  Queue& q = best_queue->second;
  PendingRequest victim = std::move(q[best_index]);
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(best_index));
  --total_pending_;
  if (q.empty()) queues_.erase(best_queue);
  return victim;
}

DynamicBatcher::TimePoint DynamicBatcher::earliest_deadline_locked() const {
  TimePoint earliest = TimePoint::max();
  for (const auto& [model, q] : queues_) {
    for (const PendingRequest& req : q) {
      if (req.deadline < earliest) earliest = req.deadline;
    }
  }
  return earliest;
}

std::optional<Batch> DynamicBatcher::next_batch() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        const auto now = std::chrono::steady_clock::now();
        std::vector<PendingRequest> expired;
        take_expired_locked(now, &expired);
        if (!expired.empty()) {
          lock.unlock();
          shed_requests(std::move(expired), RejectReason::kDeadlineExpired,
                        shed_expired_counter());
          lock.lock();
          continue;  // queues changed under the dropped lock: re-evaluate
        }
        auto it = ripest_queue_locked();
        if (it == queues_.end()) {
          if (closed_) return std::nullopt;
          cv_pending_.wait(lock);
          continue;
        }
        const Queue& q = it->second;
        const auto flush_at = q.front().admitted + policy_.max_delay;
        const bool full =
            static_cast<std::int64_t>(q.size()) >= policy_.max_batch;
        if (closed_ || full || now >= flush_at) {
          batch = pop_batch_locked(it);
          break;
        }
        // Wake for whichever comes first: the oldest head aging out or the
        // earliest SLO expiry (so doomed requests are shed promptly instead
        // of rotting until the flush deadline).
        cv_pending_.wait_until(lock,
                               std::min(flush_at, earliest_deadline_locked()));
      }
    }
    // Merge inputs outside the lock: copying image payloads is the expensive
    // part and needs no shared state. A merge failure (e.g. bad_alloc on the
    // batch tensor) answers the popped requests' futures and keeps draining —
    // it must never escape into a worker loop and terminate the process.
    try {
      obs::Span merge_span("serve", "serve.batch.merge");
      if (merge_span.armed()) {
        merge_span.arg("model", batch.model);
        merge_span.arg("rows", batch.size());
      }
      if (merge_hook_) merge_hook_(batch);
      const Shape& img = batch.requests.front().input.shape();
      Tensor merged({batch.size(), img[0], img[1], img[2]});
      const std::int64_t per = batch.requests.front().input.numel();
      for (std::int64_t i = 0; i < batch.size(); ++i) {
        std::memcpy(merged.data() + i * per,
                    batch.requests[static_cast<std::size_t>(i)].input.data(),
                    static_cast<std::size_t>(per) * sizeof(float));
      }
      batch.input = std::move(merged);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (PendingRequest& req : batch.requests) {
        req.promise.set_exception(error);
      }
      continue;  // this batch is answered (as failed); pop the next one
    }
    flushed_counter().add(1);
    batch_size_histogram().observe(static_cast<double>(batch.size()));
    return batch;
  }
}

void DynamicBatcher::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_pending_.notify_all();
}

bool DynamicBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t DynamicBatcher::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_pending_;
}

}  // namespace dcnas::serve
