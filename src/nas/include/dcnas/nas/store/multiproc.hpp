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

#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nas/search_space.hpp"

namespace dcnas::nas {

/// Sweeps \p spec's whole lattice across \p workers (>= 1) forked
/// processes, each running a TrialScheduler with \p scheduler, sharing the
/// store at \p scheduler.store_dir (which must be set). Returns once every
/// worker has exited; throws InternalError if any worker failed (its
/// stderr tells why), after the surviving workers finished. The store is
/// left complete; use TrialStore::assemble(spec.enumerate()) — or
/// to_database() — for the read view. Safe to re-run over a partial store:
/// workers skip committed trials (crash resume for free).
void run_multiprocess_sweep(const Experiment& experiment,
                            const SearchSpaceSpec& spec, int workers,
                            const SchedulerOptions& scheduler);

}  // namespace dcnas::nas
