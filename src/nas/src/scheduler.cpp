#include "dcnas/nas/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "dcnas/common/logging.hpp"
#include "dcnas/common/stats.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"

namespace dcnas::nas {

namespace {

struct SchedulerMetrics {
  obs::Counter& completed;
  obs::Counter& resumed;
  obs::Counter& pruned;
  obs::Counter& folds_evaluated;
  obs::Counter& folds_skipped;
  obs::Gauge& inflight;
  obs::Gauge& queue_depth;
  obs::Gauge& trials_per_s;
  obs::Summary& trial_ms;

  static SchedulerMetrics& instance() {
    auto& reg = obs::MetricsRegistry::global();
    static SchedulerMetrics m{
        reg.counter("nas.sched.trial.completed.count"),
        reg.counter("nas.sched.trial.resumed.count"),
        reg.counter("nas.sched.trial.pruned.count"),
        reg.counter("nas.sched.fold.evaluated.count"),
        reg.counter("nas.sched.fold.skipped.count"),
        reg.gauge("nas.sched.trials.inflight"),
        reg.gauge("nas.sched.queue_depth"),
        reg.gauge("nas.sched.trials_per_s"),
        reg.summary("nas.sched.trial.latency_ms"),
    };
    return m;
  }
};

/// Running-mean curve of a completed trial: entry i = mean of folds 0..i.
std::vector<double> running_means(const std::vector<double>& fold_acc) {
  std::vector<double> curve;
  curve.reserve(fold_acc.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < fold_acc.size(); ++i) {
    sum += fold_acc[i];
    curve.push_back(sum / static_cast<double>(i + 1));
  }
  return curve;
}

}  // namespace

MedianStopRule::MedianStopRule(const MedianStopOptions& options)
    : options_(options) {
  DCNAS_CHECK(options_.warmup_trials >= 1,
              "median-stop warmup must be >= 1 trial");
  DCNAS_CHECK(options_.min_folds >= 1, "median-stop min_folds must be >= 1");
  DCNAS_CHECK(options_.margin >= 0.0, "median-stop margin must be >= 0");
}

void MedianStopRule::report_completed(
    const std::vector<double>& running_means) {
  if (running_means.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  curves_.push_back(running_means);
}

bool MedianStopRule::should_prune(double running_mean, int folds_done) const {
  if (!options_.enabled || folds_done < options_.min_folds) return false;
  std::vector<double> peers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (curves_.size() < static_cast<std::size_t>(options_.warmup_trials)) {
      return false;
    }
    const auto step = static_cast<std::size_t>(folds_done) - 1;
    peers.reserve(curves_.size());
    for (const auto& curve : curves_) {
      if (step < curve.size()) peers.push_back(curve[step]);
    }
  }
  if (peers.size() < static_cast<std::size_t>(options_.warmup_trials)) {
    return false;
  }
  // Median of the peers' running means at the same fold step.
  const std::size_t mid = peers.size() / 2;
  std::nth_element(peers.begin(), peers.begin() + static_cast<std::ptrdiff_t>(mid),
                   peers.end());
  double median = peers[mid];
  if (peers.size() % 2 == 0) {
    const double lower =
        *std::max_element(peers.begin(), peers.begin() + static_cast<std::ptrdiff_t>(mid));
    median = 0.5 * (median + lower);
  }
  return running_mean < median - options_.margin;
}

std::size_t MedianStopRule::completed_curves() const {
  std::lock_guard<std::mutex> lock(mu_);
  return curves_.size();
}

/// Book-keeping for one in-flight trial, owned by its fold tasks: the state
/// retires when the last of them finishes, so memory stays O(trials in
/// flight) however long the stream. fold_acc/fold_done are indexed by fold;
/// done_count/remaining_tasks/pruned/failed are guarded by state_mu.
struct TrialScheduler::TrialState {
  TrialConfig config;
  std::size_t index = 0;  ///< submission order — the merge key
  int folds = 0;
  /// run()'s result slot for this config; nullptr in streamed mode, where
  /// the record lives only in the store.
  std::optional<TrialRecord>* slot = nullptr;

  std::mutex state_mu;
  std::vector<double> fold_acc;
  std::vector<char> fold_done;
  int done_count = 0;
  int remaining_tasks = 0;
  bool pruned = false;
  bool failed = false;

  std::chrono::steady_clock::time_point admitted_at;
};

TrialScheduler::TrialScheduler(const Experiment& experiment,
                               const SchedulerOptions& options)
    : experiment_(experiment), options_(options), pool_(options.threads) {}

TrialScheduler::~TrialScheduler() = default;

void TrialScheduler::prepare_run() {
  stats_ = {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    abort_ = false;
    first_error_ = nullptr;
    inflight_ = 0;
  }
  rule_ = std::make_unique<MedianStopRule>(options_.pruner);
  store_.reset();
  if (!options_.store_dir.empty()) {
    TrialStoreOptions sopt;
    sopt.lattice_fingerprint = options_.store_fingerprint;
    sopt.fsync_each = options_.fsync_store;
    store_ = std::make_unique<TrialStore>(options_.store_dir, sopt);
  }
}

bool TrialScheduler::resolve_from_history(TrialState* trial) {
  if (store_ == nullptr) return false;
  // Copy under history_mu_: finalizes append (and thus mutate the store's
  // key index) concurrently with admission lookups.
  std::lock_guard<std::mutex> lock(history_mu_);
  const JournalEntry* entry = store_->find(trial->config.lattice_key());
  if (entry == nullptr) return false;
  if (entry->status == TrialStatus::kOk &&
      entry->record.fold_accuracies.size() ==
          static_cast<std::size_t>(trial->folds)) {
    if (trial->slot != nullptr) *trial->slot = entry->record;
    if (options_.pruner.enabled) {
      rule_->report_completed(running_means(entry->record.fold_accuracies));
    }
    return true;
  }
  // A pruned entry only resolves a run that also prunes; an
  // exact-reproduction (pruner-off) run re-evaluates it in full.
  return entry->status == TrialStatus::kPruned && options_.pruner.enabled;
}

void TrialScheduler::commit_entry(const JournalEntry& entry) {
  std::lock_guard<std::mutex> lock(history_mu_);
  store_->append(entry);
}

TrialDatabase TrialScheduler::run(const std::vector<TrialConfig>& configs) {
  obs::Span run_span("nas", "nas.sched.run");
  if (run_span.armed()) {
    run_span.arg("trials", static_cast<std::int64_t>(configs.size()));
    run_span.arg("threads", static_cast<std::int64_t>(pool_.size()));
  }
  VectorStream stream(configs);
  std::vector<std::optional<TrialRecord>> kept(configs.size());
  drive(stream, &kept);

  // Deterministic merge: submission order, kept slots only.
  TrialDatabase db;
  for (auto& record : kept) {
    if (record) db.add(std::move(*record));
  }
  return db;
}

SchedulerStats TrialScheduler::run_streamed(CandidateStream& stream) {
  DCNAS_CHECK(!options_.store_dir.empty(),
              "run_streamed requires SchedulerOptions::store_dir — streamed "
              "results live in the store, not a returned database");
  obs::Span run_span("nas", "nas.sched.run_streamed");
  if (run_span.armed()) {
    run_span.arg("trials", static_cast<std::int64_t>(stream.total()));
    run_span.arg("threads", static_cast<std::int64_t>(pool_.size()));
  }
  drive(stream, nullptr);
  return stats_;
}

void TrialScheduler::drive(CandidateStream& stream,
                           std::vector<std::optional<TrialRecord>>* kept) {
  const auto t0 = std::chrono::steady_clock::now();
  auto& metrics = SchedulerMetrics::instance();

  prepare_run();

  const int folds = experiment_.evaluator().fold_count();
  DCNAS_CHECK(folds >= 1, "evaluator must report >= 1 fold");

  // 2x the pool width keeps every worker fed while one trial waits on its
  // last fold.
  const std::size_t max_inflight = 2 * pool_.size();
  const std::int64_t total = stream.total();
  std::int64_t consumed = 0;

  // Admission loop: resolve against the store, verify, and fan the trial's
  // folds out, holding at most max_inflight trials in flight.
  std::shared_ptr<TrialState> admitting;  ///< trial being fanned out now
  int submitted = 0;                      ///< its fold tasks actually enqueued
  try {
    while (std::optional<TrialConfig> config = stream.next()) {
      auto trial = std::make_shared<TrialState>();
      trial->config = std::move(*config);
      trial->index = static_cast<std::size_t>(consumed++);
      trial->folds = folds;
      if (kept != nullptr) trial->slot = &(*kept)[trial->index];
      if (resolve_from_history(trial.get())) {
        ++stats_.resumed;
        metrics.resumed.add(1);
        continue;  // the state frees here; the record is already stored
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return inflight_ < max_inflight || abort_; });
        if (abort_) break;
        ++inflight_;
        metrics.inflight.set(static_cast<double>(inflight_));
      }
      metrics.queue_depth.set(static_cast<double>(total - consumed));
      admitting = trial;
      submitted = 0;
      // The same trust boundary the serial path runs (once per trial, not
      // per fold). Throws before any fold task is queued.
      verify_candidate(trial->config);
      trial->admitted_at = std::chrono::steady_clock::now();
      trial->fold_acc.assign(static_cast<std::size_t>(folds), 0.0);
      trial->fold_done.assign(static_cast<std::size_t>(folds), 0);
      trial->remaining_tasks = folds;
      ++stats_.scheduled;
      for (int f = 0; f < folds; ++f) {
        pool_.submit(std::function<void()>(
            [this, trial, f] { run_fold_task(trial.get(), f); }));
        ++submitted;
      }
      admitting = nullptr;
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      abort_ = true;
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (admitting != nullptr && submitted == 0) {
      // The trial never fanned out (verification threw): its admission
      // slot retires here.
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    } else if (admitting != nullptr) {
      // Partial fan-out (a submit threw mid-loop): account for the fold
      // tasks that never enqueued so the already-queued ones — which see
      // abort_ and skip evaluation — can still drive the trial to
      // finalize and release its slot. If they all ran before this
      // adjustment, finalize here.
      bool finalize_now;
      {
        std::lock_guard<std::mutex> lock(admitting->state_mu);
        admitting->remaining_tasks -= admitting->folds - submitted;
        finalize_now = admitting->remaining_tasks == 0;
      }
      if (finalize_now) finalize_trial(admitting.get());
    }
    cv_.notify_all();
  }

  // Drain: every admitted trial finalizes (fold tasks of aborted runs skip
  // their evaluation but still run their bookkeeping).
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inflight_ == 0; });
  }
  pool_.wait_idle();

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);

  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  metrics.inflight.set(0.0);
  metrics.queue_depth.set(0.0);
  if (stats_.wall_seconds > 0.0) {
    metrics.trials_per_s.set(
        static_cast<double>(stats_.completed + stats_.pruned) /
        stats_.wall_seconds);
  }
  if (options_.log_progress) {
    DCNAS_LOG_INFO << "scheduler run: " << stats_.completed << " completed, "
                   << stats_.resumed << " resumed, " << stats_.pruned
                   << " pruned in " << stats_.wall_seconds << "s on "
                   << pool_.size() << " threads";
  }
}

void TrialScheduler::run_fold_task(TrialState* trial, int fold) {
  bool skip;
  {
    std::lock_guard<std::mutex> lock(trial->state_mu);
    skip = trial->pruned || trial->failed;
  }
  if (!skip) {
    std::lock_guard<std::mutex> lock(mu_);
    skip = abort_;
  }

  double acc = 0.0;
  std::exception_ptr error;
  if (!skip) {
    obs::Span span("nas", "nas.sched.fold");
    if (span.armed()) {
      span.arg("trial", static_cast<std::int64_t>(trial->index));
      span.arg("fold", static_cast<std::int64_t>(fold));
    }
    try {
      // Runs at the pool worker's default kernel budget of 1: T concurrent
      // trials x full GEMM fan-out would thrash the machine.
      acc = experiment_.evaluator().evaluate_fold(trial->config, fold);
    } catch (...) {
      error = std::current_exception();
    }
  }

  if (error) {
    std::lock_guard<std::mutex> lock(mu_);
    abort_ = true;
    if (!first_error_) first_error_ = error;
  }

  bool finalize;
  {
    std::lock_guard<std::mutex> lock(trial->state_mu);
    if (error) {
      trial->failed = true;
    } else if (!skip) {
      trial->fold_acc[static_cast<std::size_t>(fold)] = acc;
      trial->fold_done[static_cast<std::size_t>(fold)] = 1;
      ++trial->done_count;
      if (options_.pruner.enabled && !trial->pruned &&
          trial->done_count < trial->folds) {
        double sum = 0.0;
        for (int f = 0; f < trial->folds; ++f) {
          if (trial->fold_done[static_cast<std::size_t>(f)]) {
            sum += trial->fold_acc[static_cast<std::size_t>(f)];
          }
        }
        const double mean_so_far =
            sum / static_cast<double>(trial->done_count);
        if (rule_->should_prune(mean_so_far, trial->done_count)) {
          trial->pruned = true;
        }
      }
    }
    finalize = (--trial->remaining_tasks == 0);
  }
  if (finalize) finalize_trial(trial);
}

void TrialScheduler::finalize_trial(TrialState* trial) {
  auto& metrics = SchedulerMetrics::instance();
  bool failed;
  bool pruned;
  int done;
  {
    std::lock_guard<std::mutex> lock(trial->state_mu);
    failed = trial->failed;
    pruned = trial->pruned;
    done = trial->done_count;
  }
  // An aborted run leaves fold tasks skipped on trials that neither failed
  // nor pruned themselves (done < folds). Those are incomplete: a kOk
  // store record would persist zero-filled accuracies that a resume run
  // trusts verbatim, so they get no store record and no result slot — the
  // next run re-evaluates them from scratch.
  const bool complete = !failed && !pruned && done == trial->folds;

  // Nothing below may escape: this runs on a pool worker, and drive() blocks
  // on inflight_ reaching zero — an escaped exception (store append on a
  // full disk, fill_hardware_objectives) would skip the bookkeeping and
  // hang the run forever instead of reporting the error.
  bool finalize_ok = true;
  try {
    if (!failed && pruned) {
      DCNAS_TRACE_SPAN("nas", "nas.sched.trial.pruned");
      if (store_ != nullptr) {
        JournalEntry entry;
        entry.status = TrialStatus::kPruned;
        entry.record.config = trial->config;
        for (int f = 0; f < trial->folds; ++f) {
          if (trial->fold_done[static_cast<std::size_t>(f)]) {
            entry.fold_indices.push_back(f);
            entry.record.fold_accuracies.push_back(
                trial->fold_acc[static_cast<std::size_t>(f)]);
          }
        }
        if (!entry.record.fold_accuracies.empty()) {
          entry.record.accuracy = mean(entry.record.fold_accuracies);
        }
        commit_entry(entry);
      }
    } else if (complete) {
      DCNAS_TRACE_SPAN("nas", "nas.sched.trial.finalize");
      TrialRecord record;
      record.config = trial->config;
      record.fold_accuracies = trial->fold_acc;
      record.accuracy = mean(record.fold_accuracies);
      experiment_.fill_hardware_objectives(record);
      if (options_.pruner.enabled) {
        rule_->report_completed(running_means(record.fold_accuracies));
      }
      if (store_ != nullptr) {
        JournalEntry entry;
        entry.status = TrialStatus::kOk;
        entry.record = record;
        for (int f = 0; f < trial->folds; ++f) entry.fold_indices.push_back(f);
        commit_entry(entry);
      }
      metrics.trial_ms.observe(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - trial->admitted_at)
              .count());
      if (trial->slot != nullptr) *trial->slot = std::move(record);
    }
  } catch (...) {
    finalize_ok = false;
    std::lock_guard<std::mutex> lock(mu_);
    abort_ = true;
    if (!first_error_) first_error_ = std::current_exception();
  }

  std::size_t finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalize_ok && ((!failed && pruned) || complete)) {
      if (pruned) {
        ++stats_.pruned;
        stats_.folds_skipped +=
            static_cast<std::size_t>(trial->folds - done);
        metrics.pruned.add(1);
        metrics.folds_skipped.add(trial->folds - done);
      } else {
        ++stats_.completed;
        metrics.completed.add(1);
      }
      stats_.folds_evaluated += static_cast<std::size_t>(done);
      metrics.folds_evaluated.add(done);
    }
    --inflight_;
    metrics.inflight.set(static_cast<double>(inflight_));
    finished = stats_.completed + stats_.pruned;
  }
  cv_.notify_all();
  if (options_.log_progress && finished % 200 == 0 && finished > 0) {
    DCNAS_LOG_INFO << "scheduler progress: " << finished
                   << " trials finished";
  }
}

}  // namespace dcnas::nas
