#include "dcnas/nas/store/trial_store.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dcnas/common/error.hpp"
#include "dcnas/common/rng.hpp"
#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nas/store/format.hpp"

namespace dcnas::nas {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("dcnas_store_test_" + name))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::vector<TrialConfig> sample_configs(std::size_t n, std::uint64_t seed) {
  auto configs = SearchSpace::enumerate_all();
  Rng rng(seed);
  rng.shuffle(configs);
  configs.resize(n);
  return configs;
}

JournalEntry make_entry(const Experiment& exp, const TrialConfig& config) {
  JournalEntry entry;
  entry.record = exp.run_trial(config);
  for (std::size_t f = 0; f < entry.record.fold_accuracies.size(); ++f) {
    entry.fold_indices.push_back(static_cast<int>(f));
  }
  return entry;
}

std::string csv_text(const TrialDatabase& db) { return db.to_csv().to_string(); }

TrialStoreOptions fast_options() {
  TrialStoreOptions opt;
  opt.fsync_each = false;  // crash-safety paths are tested explicitly below
  return opt;
}

// ---- basic commit / read / reopen ------------------------------------------

TEST(TrialStoreTest, AppendReadFindReopenRoundTrip) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(6, 11);
  const TempDir dir("roundtrip");
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
    EXPECT_EQ(store.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const JournalEntry got = store.read(i);
      EXPECT_EQ(got.record.config.lattice_key(), configs[i].lattice_key());
    }
    const JournalEntry* hit = store.find(configs[2].lattice_key());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->record.config.lattice_key(), configs[2].lattice_key());
    EXPECT_EQ(store.find("no-such-key"), nullptr);
  }
  // Reopen: everything committed is still there, nothing to repair.
  TrialStore store(dir.str(), fast_options());
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(store.recovery().torn_records, 0u);
  EXPECT_EQ(store.recovery().torn_string_bytes, 0u);
  EXPECT_FALSE(store.recovery().control_rebuilt);
  // Bit-exact doubles through the store: the assembled database's CSV is
  // byte-identical to a direct serial run over the same configs.
  EXPECT_EQ(csv_text(store.assemble(configs)), csv_text(exp.run_all(configs)));
}

TEST(TrialStoreTest, RecordsSpanMultipleChunkFiles) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(10, 13);
  const TempDir dir("chunks");
  TrialStoreOptions opt = fast_options();
  opt.chunk_capacity = 4;  // 10 records -> 3 chunk files
  {
    TrialStore store(dir.str(), opt);
    for (const auto& c : configs) store.append(make_entry(exp, c));
  }
  int chunk_files = 0;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    if (e.path().extension() == ".chunk") ++chunk_files;
  }
  EXPECT_EQ(chunk_files, 3);
  TrialStore store(dir.str(), opt);
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(store.chunk_capacity(), 4u);
  EXPECT_EQ(csv_text(store.assemble(configs)), csv_text(exp.run_all(configs)));
}

TEST(TrialStoreTest, LastWriteWinsOnDuplicateKeys) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const TempDir dir("dupes");
  TrialStore store(dir.str(), fast_options());
  JournalEntry first = make_entry(exp, TrialConfig::baseline(5, 8));
  store.append(first);
  JournalEntry second = first;
  second.record.accuracy += 1.0;
  store.append(second);
  EXPECT_EQ(store.size(), 2u);
  const JournalEntry* hit = store.find(first.record.config.lattice_key());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->record.accuracy, second.record.accuracy);
  // to_database dedups to one record per key.
  EXPECT_EQ(store.to_database().size(), 1u);
}

TEST(TrialStoreTest, EntryRoundTripsBitExactlyIncludingPrecisionAndDepth) {
  // A wide-lattice point off the paper's axes: int8 serving, ResNet-26.
  const SearchSpaceSpec wide = SearchSpaceSpec::wide();
  TrialConfig config;
  for (std::int64_t i = 0; i < wide.size(); ++i) {
    config = wide.at(i);
    if (config.precision == 1 && config.depth == 3 && config.geometry_ok()) {
      break;
    }
  }
  ASSERT_EQ(config.precision, 1);
  ASSERT_EQ(config.depth, 3);

  JournalEntry entry;
  entry.record.config = config;
  entry.record.accuracy = 87.123456789012345;
  entry.record.latency_ms = 415.73415977261743;
  entry.record.lat_std = 285.0203368304029;
  entry.record.memory_mb = 44.804802;
  entry.record.fold_accuracies = {86.3766644856339, 85.95641759017106,
                                  86.38652171093284, 89.46831624538649,
                                  86.88766613705032};
  entry.record.per_device_ms = {{"cortexA76cpu", 325.48614348128393},
                                {"myriadvpu", 838.5355983578854}};
  entry.fold_indices = {0, 1, 2, 3, 4};

  const TempDir dir("bitexact");
  { TrialStore(dir.str(), fast_options()).append(entry); }
  const TrialStore store(dir.str(), fast_options());
  ASSERT_EQ(store.size(), 1u);
  const JournalEntry got = store.read(0);
  EXPECT_EQ(got.status, TrialStatus::kOk);
  EXPECT_EQ(got.record.config.lattice_key(), config.lattice_key());
  EXPECT_EQ(got.record.config.precision, 1);
  EXPECT_EQ(got.record.config.depth, 3);
  EXPECT_EQ(got.record.accuracy, entry.record.accuracy);
  EXPECT_EQ(got.record.latency_ms, entry.record.latency_ms);
  EXPECT_EQ(got.record.lat_std, entry.record.lat_std);
  EXPECT_EQ(got.record.memory_mb, entry.record.memory_mb);
  EXPECT_EQ(got.record.fold_accuracies, entry.record.fold_accuracies);
  EXPECT_EQ(got.record.per_device_ms, entry.record.per_device_ms);
  EXPECT_EQ(got.fold_indices, entry.fold_indices);
}

TEST(TrialStoreTest, PrunedEntryRoundTripsPartialFolds) {
  JournalEntry entry;
  entry.status = TrialStatus::kPruned;
  entry.record.config = TrialConfig::baseline(5, 8);
  entry.record.fold_accuracies = {81.5, 80.25};
  entry.record.accuracy = 80.875;
  entry.fold_indices = {0, 2};

  const TempDir dir("pruned");
  { TrialStore(dir.str(), fast_options()).append(entry); }
  const TrialStore store(dir.str(), fast_options());
  const JournalEntry* got = store.find(entry.record.config.lattice_key());
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->status, TrialStatus::kPruned);
  EXPECT_EQ(got->fold_indices, (std::vector<int>{0, 2}));
  EXPECT_EQ(got->record.fold_accuracies, (std::vector<double>{81.5, 80.25}));
  EXPECT_EQ(got->record.accuracy, 80.875);
}

TEST(TrialStoreTest, NonStoreControlFileIsRefused) {
  const TempDir dir("notastore");
  fs::create_directories(dir.str());
  {
    std::ofstream out(fs::path(dir.str()) / "store.ctrl");
    out << "channels,batch,accuracy\n5,8,90.0\n";
  }
  try {
    TrialStore store(dir.str(), fast_options());
    FAIL() << "a directory holding a CSV as store.ctrl opened as a store";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("not a v1 trial store"),
              std::string::npos)
        << e.what();
  }
}

TEST(TrialStoreTest, LatticeFingerprintMismatchThrows) {
  const TempDir dir("fingerprint");
  TrialStoreOptions create = fast_options();
  create.lattice_fingerprint = SearchSpaceSpec::paper().fingerprint();
  { TrialStore store(dir.str(), create); }
  TrialStoreOptions wrong = fast_options();
  wrong.lattice_fingerprint = SearchSpaceSpec::wide().fingerprint();
  EXPECT_THROW(TrialStore(dir.str(), wrong), InvalidArgument);
  // 0 = accept whatever is stamped; the stamp survives.
  TrialStore reopen(dir.str(), fast_options());
  EXPECT_EQ(reopen.lattice_fingerprint(), create.lattice_fingerprint);
}

// ---- crash recovery ---------------------------------------------------------

TEST(TrialStoreTest, TornTailBeyondCommitPointIsDiscarded) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(5, 17);
  const TempDir dir("torn");
  std::string expected_csv;
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
    expected_csv = csv_text(store.assemble(configs));
  }
  // Simulate a crash mid-commit: string bytes and a partial slot landed on
  // disk but the control block was never advanced.
  const JournalEntry torn = make_entry(exp, TrialConfig::baseline(7, 16));
  std::string pool_bytes;
  store::TrialSlot slot = TrialStore::encode_slot(torn, 0, &pool_bytes);
  {
    std::ofstream pool(fs::path(dir.str()) / "strings.pool",
                       std::ios::binary | std::ios::app);
    pool.write(pool_bytes.data(),
               static_cast<std::streamsize>(pool_bytes.size()));
  }
  {
    std::fstream chunk(fs::path(dir.str()) / "trials-00000.chunk",
                       std::ios::binary | std::ios::in | std::ios::out);
    chunk.seekp(static_cast<std::streamoff>(configs.size() *
                                            sizeof(store::TrialSlot)));
    // Half the slot: a torn record whose CRC cannot validate.
    chunk.write(reinterpret_cast<const char*>(&slot), sizeof(slot) / 2);
  }
  TrialStore store(dir.str(), fast_options());
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(store.recovery().torn_string_bytes, pool_bytes.size());
  EXPECT_EQ(store.recovery().torn_records, 1u);
  EXPECT_FALSE(store.recovery().control_rebuilt);
  EXPECT_EQ(csv_text(store.assemble(configs)), expected_csv);
  // The store accepts fresh appends after the repair.
  store.append(torn);
  EXPECT_EQ(store.size(), configs.size() + 1);
  EXPECT_NE(store.find(torn.record.config.lattice_key()), nullptr);
}

TEST(TrialStoreTest, CorruptControlBlockIsRebuiltFromChunkScan) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(7, 19);
  const TempDir dir("rebuild");
  std::string expected_csv;
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
    expected_csv = csv_text(store.assemble(configs));
  }
  // Simulate a crash during the control pwrite: flip a counter byte so the
  // control CRC no longer validates.
  {
    std::fstream ctrl(fs::path(dir.str()) / "store.ctrl",
                      std::ios::binary | std::ios::in | std::ios::out);
    ctrl.seekp(static_cast<std::streamoff>(
        offsetof(store::ControlBlock, committed_records)));
    const char garbage = '\x5a';
    ctrl.write(&garbage, 1);
  }
  TrialStore store(dir.str(), fast_options());
  EXPECT_TRUE(store.recovery().control_rebuilt);
  EXPECT_EQ(store.size(), configs.size());
  EXPECT_EQ(csv_text(store.assemble(configs)), expected_csv);
}

TEST(TrialStoreTest, CorruptControlWithNoChunksThrows) {
  const TempDir dir("headless");
  { TrialStore store(dir.str(), fast_options()); }  // empty store, no chunks
  {
    std::fstream ctrl(fs::path(dir.str()) / "store.ctrl",
                      std::ios::binary | std::ios::in | std::ios::out);
    const char garbage = '\x5a';
    ctrl.write(&garbage, 1);  // break the magic (and the CRC with it)
  }
  // Nothing to rebuild from — refuse rather than silently recreate (the
  // caller may be pointing at the wrong directory).
  EXPECT_THROW(TrialStore(dir.str(), fast_options()), InvalidArgument);
}

TEST(TrialStoreTest, CorruptCommittedRecordRefusesToOpenNamingIt) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(5, 23);
  const TempDir dir("badrecord");
  {
    TrialStore store(dir.str(), fast_options());
    for (const auto& c : configs) store.append(make_entry(exp, c));
  }
  // Flip one byte inside committed record 2. Unlike a torn tail, this is
  // not crash damage recovery may discard: the control block vouches for
  // the record, so the store must refuse to open and say where it broke.
  {
    std::fstream chunk(fs::path(dir.str()) / "trials-00000.chunk",
                       std::ios::binary | std::ios::in | std::ios::out);
    const auto off = static_cast<std::streamoff>(
        2 * sizeof(store::TrialSlot) + offsetof(store::TrialSlot, folds));
    chunk.seekg(off);
    char byte = 0;
    chunk.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    chunk.seekp(off);
    chunk.write(&byte, 1);
  }
  try {
    TrialStore store(dir.str(), fast_options());
    FAIL() << "a store with a corrupt committed record opened";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("committed store record 2 "), std::string::npos)
        << what;
    EXPECT_NE(what.find(dir.str()), std::string::npos) << what;
  }
}

TEST(TrialStoreTest, TornSlotOfEveryLengthIsDiscarded) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(3, 29);
  const TempDir dir("tearsweep");
  TrialStoreOptions opt = fast_options();
  opt.chunk_capacity = 8;  // keeps each reopen's tail scan short
  std::string expected_csv;
  std::uint64_t string_bytes = 0;
  {
    TrialStore store(dir.str(), opt);
    for (const auto& c : configs) store.append(make_entry(exp, c));
    expected_csv = csv_text(store.assemble(configs));
    string_bytes = store.string_bytes();
  }
  const JournalEntry torn = make_entry(exp, TrialConfig::baseline(7, 16));
  std::string pool_bytes;
  const store::TrialSlot slot =
      TrialStore::encode_slot(torn, string_bytes, &pool_bytes);
  const char* slot_bytes = reinterpret_cast<const char*>(&slot);

  // A crash can stop the slot pwrite after any byte. Tear it at every
  // length short of a whole slot; each reopen must discard exactly what
  // lies past the commit point and leave the committed records intact.
  for (std::size_t len = 1; len < sizeof(slot); ++len) {
    {
      std::ofstream pool(fs::path(dir.str()) / "strings.pool",
                         std::ios::binary | std::ios::app);
      pool.write(pool_bytes.data(),
                 static_cast<std::streamsize>(pool_bytes.size()));
    }
    {
      std::fstream chunk(fs::path(dir.str()) / "trials-00000.chunk",
                         std::ios::binary | std::ios::in | std::ios::out);
      chunk.seekp(static_cast<std::streamoff>(configs.size() *
                                              sizeof(store::TrialSlot)));
      chunk.write(slot_bytes, static_cast<std::streamsize>(len));
    }
    // An all-zero prefix is indistinguishable from a never-written slot.
    const bool visible = std::any_of(slot_bytes, slot_bytes + len,
                                     [](char b) { return b != 0; });
    const TrialStore store(dir.str(), opt);
    ASSERT_EQ(store.size(), configs.size()) << "tear at byte " << len;
    ASSERT_EQ(store.recovery().torn_records, visible ? 1u : 0u)
        << "tear at byte " << len;
    ASSERT_EQ(store.recovery().torn_string_bytes, pool_bytes.size())
        << "tear at byte " << len;
    ASSERT_EQ(store.find(torn.record.config.lattice_key()), nullptr)
        << "tear at byte " << len;
  }
  TrialStore store(dir.str(), opt);
  EXPECT_EQ(store.recovery().torn_records, 0u);
  EXPECT_EQ(csv_text(store.assemble(configs)), expected_csv);
  store.append(torn);
  EXPECT_EQ(store.size(), configs.size() + 1);
}

TEST(TrialStoreTest, CorruptRecordInLaterChunkIsNamedByItsGlobalIndex) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(7, 31);
  const TempDir dir("badchunk");
  TrialStoreOptions opt = fast_options();
  opt.chunk_capacity = 4;  // records 4..6 live in the second chunk file
  {
    TrialStore store(dir.str(), opt);
    for (const auto& c : configs) store.append(make_entry(exp, c));
  }
  // Record 5 is slot 1 of trials-00001.chunk; the error must give the
  // store-wide index, not the slot within its chunk.
  {
    std::fstream chunk(fs::path(dir.str()) / "trials-00001.chunk",
                       std::ios::binary | std::ios::in | std::ios::out);
    const auto off = static_cast<std::streamoff>(
        sizeof(store::TrialSlot) + offsetof(store::TrialSlot, accuracy_bits));
    chunk.seekg(off);
    char byte = 0;
    chunk.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    chunk.seekp(off);
    chunk.write(&byte, 1);
  }
  try {
    TrialStore store(dir.str(), opt);
    FAIL() << "a store with a corrupt committed record opened";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("committed store record 5 "), std::string::npos)
        << what;
    EXPECT_NE(what.find(dir.str()), std::string::npos) << what;
  }
}

// ---- multi-process ----------------------------------------------------------

TEST(TrialStoreTest, TwoProcessWritersProduceOneConsistentStore) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(12, 23);
  const TempDir dir("multiproc");
  // Parent pre-creates the store so children race only on appends.
  { TrialStore store(dir.str(), fast_options()); }

  std::vector<pid_t> pids;
  for (int w = 0; w < 2; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: append a stride-sharded half of the configs. fsync stays on
      // here — the locked write->fsync->publish path is what's under test.
      try {
        TrialStore store(dir.str());
        for (std::size_t i = static_cast<std::size_t>(w); i < configs.size();
             i += 2) {
          store.append(make_entry(exp, configs[i]));
        }
        std::_Exit(0);
      } catch (...) {
        std::_Exit(1);
      }
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  TrialStore store(dir.str(), fast_options());
  EXPECT_EQ(store.size(), configs.size());
  // Interleaving across processes is nondeterministic, but the assembled
  // (lattice-ordered) view is byte-identical to the serial run regardless.
  EXPECT_EQ(csv_text(store.assemble(configs)), csv_text(exp.run_all(configs)));
}

TEST(TrialStoreTest, RefreshSeesOtherHandlesCommits) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const TempDir dir("refresh");
  TrialStore reader(dir.str(), fast_options());
  TrialStore writer(dir.str(), fast_options());
  const JournalEntry entry = make_entry(exp, TrialConfig::baseline(5, 8));
  writer.append(entry);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.refresh(), 1u);
  EXPECT_EQ(reader.size(), 1u);
  EXPECT_NE(reader.find(entry.record.config.lattice_key()), nullptr);
}

// ---- migration paths --------------------------------------------------------

TEST(TrialStoreTest, CsvStoreCsvRoundTripOnFullPaperDatabase) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const TrialDatabase db = exp.run_all(SearchSpace::enumerate_all());
  ASSERT_EQ(db.size(), 1728u);
  const TempDir dir("csvtrip");
  TrialStore store(dir.str(), fast_options());
  store.import_database(db);
  EXPECT_EQ(store.size(), db.size());
  // CSV -> store -> CSV is the identity, byte for byte: every double
  // travels as its IEEE-754 bit pattern.
  EXPECT_EQ(csv_text(store.assemble(SearchSpace::enumerate_all())),
            csv_text(db));
  EXPECT_EQ(csv_text(store.to_database()), csv_text(db));
}

}  // namespace
}  // namespace dcnas::nas
