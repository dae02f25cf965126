#pragma once
/// \file trial_store.hpp
/// \brief Chunked, memory-mapped, multi-process trial store — the on-disk
/// source of truth for NAS sweeps (DESIGN.md §14).
///
/// The CSV TrialDatabase materializes every record in memory and rewrites
/// the whole file per save, so it neither survives a 10^5–10^6-point
/// lattice nor lets two *processes* share one sweep. The TrialStore does
/// both, and it is the one resume mechanism TrialScheduler has:
///
///  - fixed-size binary records in preallocated, mmap'd chunk files, so a
///    reader touches only the pages it needs and an appender never rewrites
///    existing bytes;
///  - a 256-byte CRC'd control block as the single commit point, advanced
///    only after record + string bytes are fsynced (write → fsync →
///    publish), so a crash at any instant loses at most the record being
///    written — never a committed one;
///  - an fcntl whole-file lock serializing commits across processes, which
///    makes N workers appending to one store directory safe without any
///    shared memory;
///  - doubles stored as IEEE-754 bit patterns, so a database assembled from
///    the store is *byte-identical* (CSV and FNV-1a hash) to the serial
///    in-memory run — the parity contract the scheduler already enforces,
///    extended across process boundaries.
///
/// TrialDatabase remains the read view for downstream consumers (NSGA-II,
/// bench_fig3, reports): to_database()/assemble() convert on demand.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/store/format.hpp"

namespace dcnas::nas {

/// Outcome a store record holds for one trial.
enum class TrialStatus { kOk, kPruned };

/// One committed trial: the unit TrialStore::append writes and find/read
/// hand back.
struct JournalEntry {
  TrialStatus status = TrialStatus::kOk;
  TrialRecord record;  ///< fold_accuracies is partial when pruned
  /// Fold indices actually evaluated, aligned with record.fold_accuracies
  /// (0..K-1 in order for kOk; the completed subset for kPruned).
  std::vector<int> fold_indices;
};

struct TrialStoreOptions {
  /// Expected SearchSpaceSpec::fingerprint(). Creating a store stamps it
  /// into the control block; opening an existing store with a non-zero
  /// expectation that differs from the stamp throws (a store must not mix
  /// records from different lattices). 0 = accept whatever is stamped.
  std::uint64_t lattice_fingerprint = 0;
  /// Records per chunk file (fixed at creation; reopening with a different
  /// value keeps the stored one).
  std::uint32_t chunk_capacity = store::kDefaultChunkCapacity;
  /// fsync record/pool/control writes on every commit. Keep on outside
  /// tests and benches — it is the crash-safety half of the protocol.
  bool fsync_each = true;
};

/// What open() had to repair (all zero for a cleanly closed store).
struct StoreRecovery {
  std::uint64_t torn_string_bytes = 0;  ///< pool bytes truncated
  std::uint64_t torn_records = 0;       ///< uncommitted slots zeroed
  bool control_rebuilt = false;  ///< counters rebuilt by chunk scan
};

class TrialStore {
 public:
  /// Opens (creating if absent) the store directory, running recovery under
  /// the store lock. Throws InvalidArgument on format/fingerprint mismatch
  /// or unreadable store files.
  explicit TrialStore(std::string dir, const TrialStoreOptions& options = {});
  ~TrialStore();

  TrialStore(const TrialStore&) = delete;
  TrialStore& operator=(const TrialStore&) = delete;

  /// Committed records visible to this handle (call refresh() to see other
  /// processes' commits).
  std::uint64_t size() const { return committed_; }

  /// Records committed by *other* handles since open/last refresh are
  /// loaded into the key index; returns the number of new records seen.
  std::uint64_t refresh();

  /// Decodes committed record \p i. Throws InvalidArgument on out-of-range
  /// or on a corrupt committed slot (which recovery can never legitimately
  /// leave behind); the message names the store directory and \p i. Open
  /// decodes every committed record, so such a store refuses to open.
  JournalEntry read(std::uint64_t i) const;

  /// Latest committed entry for a lattice key, or nullptr. Last write wins.
  const JournalEntry* find(const std::string& lattice_key) const;

  /// Commits one entry: strings + record + control publish under the store
  /// lock. Safe to call concurrently from multiple processes; within one
  /// process the caller serializes (the scheduler's commit lock).
  void append(const JournalEntry& entry);

  /// All kOk records, deduplicated by key (last wins, first-commit order) —
  /// the TrialDatabase read view for Nsga2 / reports.
  TrialDatabase to_database() const;

  /// Database in \p configs order — the serial-parity view: record i is the
  /// store's entry for configs[i]. Throws when a config is missing; pruned
  /// entries are skipped (matching the scheduler's database contract).
  TrialDatabase assemble(const std::vector<TrialConfig>& configs) const;

  /// Bulk-imports a CSV database (every record committed as kOk with folds
  /// 0..K-1). Existing keys are overwritten by the last-wins find rule.
  void import_database(const TrialDatabase& db);

  const std::string& dir() const { return dir_; }
  const StoreRecovery& recovery() const { return recovery_; }
  std::uint64_t lattice_fingerprint() const { return ctrl_.lattice_fingerprint; }
  std::uint32_t chunk_capacity() const { return ctrl_.chunk_capacity; }
  std::uint64_t string_bytes() const { return ctrl_.committed_string_bytes; }

  /// Serializes an entry into its fixed slot + the string bytes it would
  /// append — exposed for tests that corrupt stores deliberately.
  static store::TrialSlot encode_slot(const JournalEntry& entry,
                                      std::uint64_t string_base,
                                      std::string* string_bytes);

 private:
  struct Chunk;  // mmap'd chunk file

  void lock_file() const;
  void unlock_file() const;
  void load_or_create_control();
  void recover_locked();
  void rebuild_control_locked();
  Chunk& chunk_for(std::uint64_t record_index) const;
  const store::TrialSlot* slot_ptr(std::uint64_t record_index) const;
  JournalEntry decode_slot(const store::TrialSlot& slot) const;
  std::string read_pool(std::uint64_t off, std::uint32_t len) const;
  void write_control();
  void index_records(std::uint64_t from, std::uint64_t to);

  std::string dir_;
  TrialStoreOptions options_;
  StoreRecovery recovery_;
  store::ControlBlock ctrl_;
  std::uint64_t committed_ = 0;  ///< cached ctrl_.committed_records
  int lock_fd_ = -1;
  int ctrl_fd_ = -1;
  int pool_fd_ = -1;
  mutable std::vector<Chunk> chunks_;
  /// lattice_key -> latest committed record index, plus its decoded entry
  /// (find() returns stable pointers into this map).
  std::map<std::string, JournalEntry> by_key_;
};

}  // namespace dcnas::nas
