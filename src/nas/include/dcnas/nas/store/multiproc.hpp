#pragma once
/// \file multiproc.hpp
/// \brief Multi-process NAS sweep driver: N forked workers, one store.
///
/// Each worker process streams a stride-sharded slice of the lattice
/// (LatticeStream(spec, worker, workers)) through its own TrialScheduler
/// and commits results to the shared store directory; the store's fcntl
/// lock + write→fsync→publish protocol make concurrent appends safe with
/// no shared memory. Because every (trial, fold) evaluation is a pure
/// function of (config, fold, seed) and doubles travel as bit patterns,
/// the assembled database is byte-identical to the serial run — the PR 5
/// parity contract extended across process boundaries.
///
/// fork() is used directly (not posix_spawn): workers need the caller's
/// evaluator/meter/experiment objects, which are cheap to inherit through
/// fork and expensive to rebuild behind an exec. Call before creating
/// threads (the driver itself is single-threaded; each worker's scheduler
/// pool spawns *after* the fork).

#include <cstdint>
#include <string>

#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nas/store/trial_store.hpp"

namespace dcnas::nas {

struct MultiProcSweepOptions {
  /// Worker processes to fork (>= 1; 1 degenerates to an in-process
  /// streamed run, still through the store).
  int workers = 2;
  /// Per-worker scheduler options. store_dir/store_fingerprint are set by
  /// run_multiprocess_sweep.
  SchedulerOptions scheduler;
};

struct MultiProcSweepStats {
  int workers = 0;
  std::int64_t lattice_size = 0;
  std::uint64_t store_records = 0;  ///< committed records after the sweep
  double wall_seconds = 0.0;
};

/// Sweeps \p spec's whole lattice across \p options.workers forked
/// processes sharing \p store_dir. Returns once every worker has exited;
/// throws InternalError if any worker failed (its stderr tells why), after
/// the surviving workers finished. The store is left complete; use
/// TrialStore::assemble(spec.enumerate()) — or to_database() — for the
/// read view. Safe to re-run over a partial store: workers skip committed
/// trials (crash resume for free).
MultiProcSweepStats run_multiprocess_sweep(const Experiment& experiment,
                                           const SearchSpaceSpec& spec,
                                           const std::string& store_dir,
                                           const MultiProcSweepOptions& options);

}  // namespace dcnas::nas
