#pragma once
/// \file scheduler.hpp
/// \brief Parallel NAS trial scheduler: the search loop as a two-level job
/// graph with a deterministic merge, crash-safe resume, and optional
/// NNI-style median-stop fold pruning.
///
/// The paper's NNI harness dispatched trials concurrently and relied on
/// assessors to kill doomed trials early; DPP-Net and HW-NAS-Bench both
/// show that search-loop throughput — not single-model FLOPs — is the
/// binding cost of hardware-aware NAS. This scheduler parallelizes the
/// whole 288-configs x 6-combos x K-fold search:
///
///  - **Level 1 (trials):** configs fan out across a dedicated pool, at
///    most 2x its width in flight so a long lattice never floods the queue.
///  - **Level 2 (folds):** each admitted trial's K cross-validation folds
///    are independent tasks (every (trial, fold) pair is independently
///    seeded — see Evaluator::evaluate_fold). Fold tasks run with the pool
///    worker's default kernel budget of 1, so T concurrent trials cannot
///    multiply into T x full-kernel-fan-out thread thrash.
///
/// `run(configs)` and `run_streamed(stream)` share one admission loop
/// (drive); run() only adds a result slot per config and merges the slots
/// in submission order.
///
/// **Determinism contract.** With pruning off, `run(configs)` returns a
/// TrialDatabase whose CSV is *byte-identical* to the serial
/// `Experiment::run_all(configs)` at any thread count: fold accuracies are
/// merged in fold-index order, records in submission order, and the PR-4
/// kernels are bitwise thread-count-independent. The parity is enforced by
/// tests, with the oracle and with real training underneath.
///
/// **Resume.** With a `store_dir`, every finished trial is committed (and
/// fsynced) to the crash-safe TrialStore keyed by lattice_key() before the
/// run completes; re-running an interrupted search — in this process or
/// another — evaluates only the configs the store does not hold (see
/// store/trial_store.hpp).
///
/// **Median-stop pruner.** Off by default so exact-reproduction paths are
/// untouched. When enabled, a trial whose running mean accuracy after n
/// completed folds falls below the median of completed trials' same-step
/// running means (minus `margin`) skips its remaining folds and is
/// committed as pruned; pruned trials are excluded from the returned
/// database. Pruning decisions depend on completion timing and are the one
/// intentionally nondeterministic feature — surviving trials' recorded
/// fold accuracies are still exactly the serial values.

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dcnas/common/thread_pool.hpp"
#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/store/trial_store.hpp"

namespace dcnas::nas {

/// NNI median-stop assessor, per fold instead of per epoch: compare a
/// running mean against the median of completed trials at the same step.
struct MedianStopOptions {
  bool enabled = false;
  /// Completed trials required before any pruning decision fires.
  int warmup_trials = 5;
  /// Folds a trial must finish before it can be pruned.
  int min_folds = 1;
  /// Accuracy slack (percent): prune only below median - margin.
  double margin = 0.0;
};

/// Thread-safe median-stop decision state. Kept public for direct unit
/// testing; the scheduler owns one per run.
class MedianStopRule {
 public:
  explicit MedianStopRule(const MedianStopOptions& options);

  /// Registers a completed trial's running-mean curve: entry i is the mean
  /// accuracy of folds 0..i, in fold-index order.
  void report_completed(const std::vector<double>& running_means);

  /// True when a trial whose mean accuracy over \p folds_done completed
  /// folds is \p running_mean should stop: running_mean < median of
  /// completed trials' running means at the same step, minus margin.
  /// Always false before warmup_trials curves are registered or below
  /// min_folds.
  bool should_prune(double running_mean, int folds_done) const;

  std::size_t completed_curves() const;

 private:
  MedianStopOptions options_;
  mutable std::mutex mu_;
  std::vector<std::vector<double>> curves_;
};

struct SchedulerOptions {
  /// Dedicated scheduler pool width; 0 means hardware_concurrency.
  std::size_t threads = 0;
  /// Memory-mapped TrialStore directory; empty disables the store. When
  /// set, finished trials commit to the store (so an interrupted run
  /// resumes, across threads and processes) and run_streamed becomes
  /// available.
  std::string store_dir;
  /// fsync every store commit (crash safety; benches may disable).
  bool fsync_store = true;
  /// Expected lattice fingerprint for the store (0 = accept any); see
  /// TrialStoreOptions::lattice_fingerprint.
  std::uint64_t store_fingerprint = 0;
  MedianStopOptions pruner;
  bool log_progress = false;
};

struct SchedulerStats {
  std::size_t scheduled = 0;        ///< configs evaluated this run
  std::size_t resumed = 0;          ///< configs satisfied by the store
  std::size_t completed = 0;        ///< trials fully evaluated this run
  std::size_t pruned = 0;           ///< trials median-stopped this run
  std::size_t folds_evaluated = 0;  ///< fold tasks that ran to completion
  std::size_t folds_skipped = 0;    ///< folds saved by pruning
  double wall_seconds = 0.0;        ///< run() wall time
};

/// Runs a trial list as the two-level job graph described above. One
/// scheduler owns one dedicated pool; run() may be called repeatedly
/// (stats are per-run). Not itself thread-safe: one run() at a time.
class TrialScheduler {
 public:
  TrialScheduler(const Experiment& experiment,
                 const SchedulerOptions& options = {});
  ~TrialScheduler();

  TrialScheduler(const TrialScheduler&) = delete;
  TrialScheduler& operator=(const TrialScheduler&) = delete;

  /// Evaluates every config (store hits excepted) and returns the merged
  /// database — byte-identical CSV to Experiment::run_all(configs) when
  /// pruning is off. The first evaluator/verifier exception aborts the run
  /// (in-flight folds drain, remaining trials are skipped) and is rethrown.
  TrialDatabase run(const std::vector<TrialConfig>& configs);

  /// Streaming mode for lattices too wide to materialize: pulls candidates
  /// from \p stream one at a time, commits every finished trial to the
  /// store (SchedulerOptions::store_dir is required). As in run(), each
  /// trial's in-memory state retires with its last fold task, so peak
  /// memory is O(trials in flight), not O(lattice). Trials already
  /// complete in the store are skipped (counted as resumed), which is also
  /// what lets N worker processes share one store: each streams its own
  /// shard. Read views come from the store afterwards
  /// (TrialStore::assemble for the serial-parity ordering).
  SchedulerStats run_streamed(CandidateStream& stream);

  const SchedulerStats& stats() const { return stats_; }
  const SchedulerOptions& options() const { return options_; }
  std::size_t threads() const { return pool_.size(); }

  /// The store opened by the last run (nullptr when store_dir is empty).
  TrialStore* store() const { return store_.get(); }

 private:
  struct TrialState;

  void prepare_run();
  /// The one admission loop behind run() and run_streamed(): pulls
  /// candidates from \p stream, resolves each against the store, verifies
  /// it and fans its folds out, at most 2x pool width trials in flight;
  /// drains, rethrows the first error, and publishes stats and metrics.
  /// With \p kept, each kept record lands in (*kept)[submission index].
  void drive(CandidateStream& stream,
             std::vector<std::optional<TrialRecord>>* kept);
  bool resolve_from_history(TrialState* trial);
  void commit_entry(const JournalEntry& entry);
  void run_fold_task(TrialState* trial, int fold);
  void finalize_trial(TrialState* trial);

  const Experiment& experiment_;
  SchedulerOptions options_;
  ThreadPool pool_;
  SchedulerStats stats_;

  // Per-run state (guarded by mu_ unless noted).
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t inflight_ = 0;
  bool abort_ = false;
  std::exception_ptr first_error_;
  std::unique_ptr<MedianStopRule> rule_;
  /// Serializes store commits and history lookups (the store's in-handle
  /// key index is not MT-safe).
  std::mutex history_mu_;
  std::unique_ptr<TrialStore> store_;
};

}  // namespace dcnas::nas
