#include "dcnas/nas/store/multiproc.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "dcnas/common/error.hpp"
#include "dcnas/nas/store/trial_store.hpp"

namespace dcnas::nas {

namespace {

/// Worker body, run inside the forked child. Never returns: exits 0 on
/// success, 1 on any exception (after printing it — the child's stderr is
/// the parent's stderr).
[[noreturn]] void worker_main(const Experiment& experiment,
                              const SearchSpaceSpec& spec, int worker,
                              int workers, const SchedulerOptions& options) {
  try {
    SchedulerOptions sched = options;
    sched.store_fingerprint = spec.fingerprint();
    TrialScheduler scheduler(experiment, sched);
    LatticeStream shard(spec, worker, workers);
    scheduler.run_streamed(shard);
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nas store worker %d failed: %s\n", worker, e.what());
  } catch (...) {
    std::fprintf(stderr, "nas store worker %d failed: unknown exception\n",
                 worker);
  }
  std::_Exit(1);
}

}  // namespace

void run_multiprocess_sweep(const Experiment& experiment,
                            const SearchSpaceSpec& spec, int workers,
                            const SchedulerOptions& scheduler) {
  DCNAS_CHECK(workers >= 1, "multi-process sweep needs >= 1 worker");
  DCNAS_CHECK(!scheduler.store_dir.empty(),
              "multi-process sweep needs SchedulerOptions::store_dir");
  spec.validate();

  // Create (or recover) the store before forking so workers race on
  // appends, never on initialization/recovery.
  {
    TrialStoreOptions sopt;
    sopt.lattice_fingerprint = spec.fingerprint();
    sopt.fsync_each = scheduler.fsync_store;
    TrialStore store(scheduler.store_dir, sopt);
  }

  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    DCNAS_CHECK(pid >= 0, "fork failed for store worker");
    if (pid == 0) {
      worker_main(experiment, spec, w, workers, scheduler);  // never returns
    }
    pids.push_back(pid);
  }

  int failures = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(pid, &status, 0);
    } while (rc < 0 && errno == EINTR);
    DCNAS_CHECK(rc == pid, "waitpid failed for store worker");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
  }
  DCNAS_ASSERT(failures == 0,
               std::to_string(failures) + " store worker(s) failed");
}

}  // namespace dcnas::nas
