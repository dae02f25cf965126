#include "dcnas/nas/store/trial_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "dcnas/common/error.hpp"
#include "dcnas/common/strings.hpp"

namespace dcnas::nas {

namespace {

using store::ControlBlock;
using store::TrialSlot;

std::uint64_t bytes_crc(const void* data, std::size_t len) {
  return fnv1a64(
      std::string_view(static_cast<const char*>(data), len));
}

std::uint64_t slot_crc(const TrialSlot& slot) {
  TrialSlot copy = slot;
  copy.crc = 0;
  return bytes_crc(&copy, sizeof(copy));
}

std::uint64_t control_crc(const ControlBlock& ctrl) {
  ControlBlock copy = ctrl;
  copy.crc = 0;
  return bytes_crc(&copy, sizeof(copy));
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void pwrite_all(int fd, const void* buf, std::size_t len, std::uint64_t off,
                const char* what) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    DCNAS_CHECK(n > 0, errno_text(what));
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

bool pread_all(int fd, void* buf, std::size_t len, std::uint64_t off) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // error or short file
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void fsync_checked(int fd, const char* what) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  DCNAS_CHECK(rc == 0, errno_text(what));
}

std::string chunk_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "trials-%05llu.chunk",
                static_cast<unsigned long long>(index));
  return buf;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t file_size(int fd, const char* what) {
  struct stat st {};
  DCNAS_CHECK(::fstat(fd, &st) == 0, errno_text(what));
  return static_cast<std::uint64_t>(st.st_size);
}

TrialStatus status_from_disk(std::uint32_t status) {
  DCNAS_CHECK(status == store::kStatusOk || status == store::kStatusPruned,
              "store record has unknown status value");
  return status == store::kStatusOk ? TrialStatus::kOk : TrialStatus::kPruned;
}

/// Bounds a slot's string references against the pool's committed bytes —
/// shared by decode (corruption detection) and control rebuild (prefix
/// acceptance).
bool strings_in_bounds(const TrialSlot& slot, std::uint64_t pool_bytes) {
  if (slot.key_off + slot.key_len > pool_bytes) return false;
  if (slot.device_count > store::kMaxDevices) return false;
  for (std::uint32_t d = 0; d < slot.device_count; ++d) {
    const auto& dev = slot.devices[d];
    if (dev.name_off + dev.name_len > pool_bytes) return false;
  }
  return true;
}

}  // namespace

struct TrialStore::Chunk {
  int fd = -1;
  void* map = nullptr;
  std::size_t map_len = 0;
};

TrialStore::TrialStore(std::string dir, const TrialStoreOptions& options)
    : dir_(std::move(dir)), options_(options) {
  DCNAS_CHECK(!dir_.empty(), "store directory path is empty");
  if (options_.chunk_capacity == 0) {
    options_.chunk_capacity = store::kDefaultChunkCapacity;
  }
  ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine; stat below is the check
  struct stat st {};
  DCNAS_CHECK(::stat(dir_.c_str(), &st) == 0 && S_ISDIR(st.st_mode),
              "store path is not a directory: " + dir_);
  try {
    lock_fd_ = ::open((dir_ + "/store.lock").c_str(),
                      O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    DCNAS_CHECK(lock_fd_ >= 0, errno_text("open store.lock"));
    pool_fd_ = ::open((dir_ + "/strings.pool").c_str(),
                      O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    DCNAS_CHECK(pool_fd_ >= 0, errno_text("open strings.pool"));
    ctrl_fd_ = ::open((dir_ + "/store.ctrl").c_str(),
                      O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    DCNAS_CHECK(ctrl_fd_ >= 0, errno_text("open store.ctrl"));

    lock_file();
    try {
      load_or_create_control();
      recover_locked();
    } catch (...) {
      unlock_file();
      throw;
    }
    unlock_file();

    committed_ = ctrl_.committed_records;
    index_records(0, committed_);
  } catch (...) {
    // The destructor does not run for a partially constructed object.
    for (auto& c : chunks_) {
      if (c.map != nullptr) ::munmap(c.map, c.map_len);
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ctrl_fd_ >= 0) ::close(ctrl_fd_);
    if (pool_fd_ >= 0) ::close(pool_fd_);
    if (lock_fd_ >= 0) ::close(lock_fd_);
    throw;
  }
}

TrialStore::~TrialStore() {
  for (auto& c : chunks_) {
    if (c.map != nullptr) ::munmap(c.map, c.map_len);
    if (c.fd >= 0) ::close(c.fd);
  }
  if (ctrl_fd_ >= 0) ::close(ctrl_fd_);
  if (pool_fd_ >= 0) ::close(pool_fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

void TrialStore::lock_file() const {
  struct flock fl {};
  fl.l_type = F_WRLCK;
  fl.l_whence = SEEK_SET;
  fl.l_start = 0;
  fl.l_len = 0;  // whole file
  int rc;
  do {
    rc = ::fcntl(lock_fd_, F_SETLKW, &fl);
  } while (rc != 0 && errno == EINTR);
  DCNAS_CHECK(rc == 0, errno_text("store lock"));
}

void TrialStore::unlock_file() const {
  struct flock fl {};
  fl.l_type = F_UNLCK;
  fl.l_whence = SEEK_SET;
  fl.l_start = 0;
  fl.l_len = 0;
  ::fcntl(lock_fd_, F_SETLK, &fl);
}

void TrialStore::load_or_create_control() {
  const std::uint64_t size = file_size(ctrl_fd_, "stat store.ctrl");
  if (size == 0) {
    std::memcpy(ctrl_.magic, store::kControlMagic, sizeof(ctrl_.magic));
    ctrl_.version = store::kFormatVersion;
    ctrl_.record_size = sizeof(TrialSlot);
    ctrl_.lattice_fingerprint = options_.lattice_fingerprint;
    ctrl_.chunk_capacity = options_.chunk_capacity;
    ctrl_.committed_records = 0;
    ctrl_.committed_string_bytes = 0;
    write_control();
    return;
  }
  DCNAS_CHECK(size == sizeof(ControlBlock),
              "store.ctrl has unexpected size (not a v1 trial store)");
  DCNAS_CHECK(pread_all(ctrl_fd_, &ctrl_, sizeof(ctrl_), 0),
              errno_text("read store.ctrl"));
  const bool header_ok =
      std::memcmp(ctrl_.magic, store::kControlMagic, sizeof(ctrl_.magic)) ==
          0 &&
      ctrl_.version == store::kFormatVersion &&
      ctrl_.record_size == sizeof(TrialSlot);
  if (ctrl_.crc != control_crc(ctrl_) || !header_ok) {
    // A crash mid-publish (or a flipped bit) leaves a bad control block.
    // If the directory holds chunk data this is a recoverable store —
    // rebuild the counters from the records' own CRCs. A directory with a
    // garbage control file and no chunks is simply not a store.
    DCNAS_CHECK(file_exists(dir_ + "/" + chunk_name(0)),
                "store.ctrl is corrupt and no chunk files exist to rebuild "
                "from: " + dir_);
    rebuild_control_locked();
    recovery_.control_rebuilt = true;
  }
  if (options_.lattice_fingerprint != 0 && ctrl_.lattice_fingerprint != 0) {
    DCNAS_CHECK(options_.lattice_fingerprint == ctrl_.lattice_fingerprint,
                "store was created for a different search-space lattice");
  }
  if (options_.lattice_fingerprint != 0 && ctrl_.lattice_fingerprint == 0) {
    ctrl_.lattice_fingerprint = options_.lattice_fingerprint;
    write_control();
  }
}

void TrialStore::rebuild_control_locked() {
  // Infer the chunk capacity from chunk 0's preallocated size; a store
  // always ftruncates chunks to capacity * record_size at creation.
  std::uint32_t capacity = options_.chunk_capacity;
  {
    const int fd = ::open((dir_ + "/" + chunk_name(0)).c_str(),
                          O_RDONLY | O_CLOEXEC);
    DCNAS_CHECK(fd >= 0, errno_text("open chunk 0 for rebuild"));
    const std::uint64_t size = file_size(fd, "stat chunk 0");
    ::close(fd);
    DCNAS_CHECK(size > 0 && size % sizeof(TrialSlot) == 0,
                "chunk 0 size is not a multiple of the record size");
    capacity = static_cast<std::uint32_t>(size / sizeof(TrialSlot));
  }
  const std::uint64_t pool_bytes = file_size(pool_fd_, "stat strings.pool");

  // Accept the longest valid record prefix (each record carries its CRC;
  // the first invalid slot ends the committed region).
  std::uint64_t records = 0;
  std::uint64_t string_end = 0;
  bool done = false;
  for (std::uint64_t ci = 0; !done; ++ci) {
    const std::string path = dir_ + "/" + chunk_name(ci);
    if (!file_exists(path)) break;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    DCNAS_CHECK(fd >= 0, errno_text("open chunk for rebuild"));
    for (std::uint32_t s = 0; s < capacity; ++s) {
      TrialSlot slot;
      if (!pread_all(fd, &slot, sizeof(slot),
                     static_cast<std::uint64_t>(s) * sizeof(TrialSlot))) {
        done = true;
        break;
      }
      if (slot.crc != slot_crc(slot) || !strings_in_bounds(slot, pool_bytes)) {
        done = true;
        break;
      }
      ++records;
      string_end = std::max(string_end, slot.key_off + slot.key_len);
      for (std::uint32_t d = 0; d < slot.device_count; ++d) {
        string_end = std::max(
            string_end, slot.devices[d].name_off + slot.devices[d].name_len);
      }
    }
    ::close(fd);
  }

  ControlBlock fresh{};
  std::memcpy(fresh.magic, store::kControlMagic, sizeof(fresh.magic));
  fresh.version = store::kFormatVersion;
  fresh.record_size = sizeof(TrialSlot);
  fresh.lattice_fingerprint = ctrl_.lattice_fingerprint;  // best effort
  fresh.chunk_capacity = capacity;
  fresh.committed_records = records;
  fresh.committed_string_bytes = string_end;
  ctrl_ = fresh;
  write_control();
}

void TrialStore::recover_locked() {
  // Torn pool tail: bytes past the committed counter were never published.
  const std::uint64_t pool_bytes = file_size(pool_fd_, "stat strings.pool");
  if (pool_bytes > ctrl_.committed_string_bytes) {
    recovery_.torn_string_bytes = pool_bytes - ctrl_.committed_string_bytes;
    DCNAS_CHECK(::ftruncate(pool_fd_, static_cast<off_t>(
                                          ctrl_.committed_string_bytes)) == 0,
                errno_text("truncate strings.pool torn tail"));
    fsync_checked(pool_fd_, "fsync strings.pool");
  }

  // Torn record slots: zero everything past the committed counter so the
  // chunk files never accumulate garbage mid-stream.
  static const TrialSlot kZeroSlot{};
  bool wrote = false;
  for (std::uint64_t ci = 0;; ++ci) {
    if (!file_exists(dir_ + "/" + chunk_name(ci))) break;
    Chunk& chunk = chunk_for(ci * ctrl_.chunk_capacity);
    for (std::uint32_t s = 0; s < ctrl_.chunk_capacity; ++s) {
      const std::uint64_t g = ci * ctrl_.chunk_capacity + s;
      if (g < ctrl_.committed_records) continue;
      TrialSlot slot;
      const std::uint64_t off =
          static_cast<std::uint64_t>(s) * sizeof(TrialSlot);
      if (!pread_all(chunk.fd, &slot, sizeof(slot), off)) break;
      if (std::memcmp(&slot, &kZeroSlot, sizeof(slot)) == 0) continue;
      ++recovery_.torn_records;
      pwrite_all(chunk.fd, &kZeroSlot, sizeof(kZeroSlot), off,
                 "zero torn record slot");
      wrote = true;
    }
  }
  if (wrote && options_.fsync_each) {
    for (auto& c : chunks_) fsync_checked(c.fd, "fsync chunk");
  }
}

TrialStore::Chunk& TrialStore::chunk_for(std::uint64_t record_index) const {
  const std::uint64_t ci = record_index / ctrl_.chunk_capacity;
  while (chunks_.size() <= ci) {
    const std::uint64_t new_index = chunks_.size();
    const std::string path = dir_ + "/" + chunk_name(new_index);
    Chunk c;
    c.fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    DCNAS_CHECK(c.fd >= 0, errno_text("open chunk file"));
    const std::size_t len =
        static_cast<std::size_t>(ctrl_.chunk_capacity) * sizeof(TrialSlot);
    if (file_size(c.fd, "stat chunk") < len) {
      // Preallocate to full capacity so the mmap below never outgrows the
      // file (appends land inside the mapping; no remap churn).
      DCNAS_CHECK(::ftruncate(c.fd, static_cast<off_t>(len)) == 0,
                  errno_text("preallocate chunk file"));
    }
    c.map = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, c.fd, 0);
    DCNAS_CHECK(c.map != MAP_FAILED, errno_text("mmap chunk file"));
    c.map_len = len;
    chunks_.push_back(c);
  }
  return chunks_[ci];
}

const TrialSlot* TrialStore::slot_ptr(std::uint64_t record_index) const {
  const Chunk& chunk = chunk_for(record_index);
  const std::uint64_t s = record_index % ctrl_.chunk_capacity;
  return reinterpret_cast<const TrialSlot*>(
      static_cast<const char*>(chunk.map) + s * sizeof(TrialSlot));
}

std::string TrialStore::read_pool(std::uint64_t off, std::uint32_t len) const {
  std::string out(len, '\0');
  if (len == 0) return out;
  DCNAS_CHECK(pread_all(pool_fd_, out.data(), len, off),
              "store string pool read out of bounds");
  return out;
}

store::TrialSlot TrialStore::encode_slot(const JournalEntry& entry,
                                         std::uint64_t string_base,
                                         std::string* string_bytes) {
  const TrialRecord& r = entry.record;
  DCNAS_CHECK(entry.fold_indices.size() == r.fold_accuracies.size(),
              "fold_indices and fold_accuracies must align");
  DCNAS_CHECK(entry.fold_indices.size() <= store::kMaxFolds,
              "trial has more folds than the store record holds");
  DCNAS_CHECK(r.per_device_ms.size() <= store::kMaxDevices,
              "trial has more devices than the store record holds");
  TrialSlot slot{};
  slot.status = entry.status == TrialStatus::kOk ? store::kStatusOk
                                                 : store::kStatusPruned;
  const TrialConfig& c = r.config;
  slot.config[0] = c.channels;
  slot.config[1] = c.batch;
  slot.config[2] = c.kernel_size;
  slot.config[3] = c.stride;
  slot.config[4] = c.padding;
  slot.config[5] = c.pool_choice;
  slot.config[6] = c.kernel_size_pool;
  slot.config[7] = c.stride_pool;
  slot.config[8] = c.initial_output_feature;
  slot.config[9] = c.precision;
  slot.config[10] = c.depth;
  slot.accuracy_bits = double_bits(r.accuracy);
  slot.latency_bits = double_bits(r.latency_ms);
  slot.lat_std_bits = double_bits(r.lat_std);
  slot.memory_bits = double_bits(r.memory_mb);
  const std::string key = c.lattice_key();
  slot.key_off = string_base + string_bytes->size();
  slot.key_len = static_cast<std::uint32_t>(key.size());
  string_bytes->append(key);
  slot.fold_count = static_cast<std::uint32_t>(entry.fold_indices.size());
  for (std::uint32_t f = 0; f < slot.fold_count; ++f) {
    slot.folds[f].index = entry.fold_indices[f];
    slot.folds[f].accuracy_bits = double_bits(r.fold_accuracies[f]);
  }
  slot.device_count = static_cast<std::uint32_t>(r.per_device_ms.size());
  for (std::uint32_t d = 0; d < slot.device_count; ++d) {
    slot.devices[d].name_off = string_base + string_bytes->size();
    slot.devices[d].name_len =
        static_cast<std::uint32_t>(r.per_device_ms[d].first.size());
    string_bytes->append(r.per_device_ms[d].first);
    slot.devices[d].ms_bits = double_bits(r.per_device_ms[d].second);
  }
  slot.crc = slot_crc(slot);
  return slot;
}

JournalEntry TrialStore::decode_slot(const TrialSlot& slot) const {
  JournalEntry entry;
  entry.status = status_from_disk(slot.status);
  TrialRecord& r = entry.record;
  TrialConfig& c = r.config;
  c.channels = slot.config[0];
  c.batch = slot.config[1];
  c.kernel_size = slot.config[2];
  c.stride = slot.config[3];
  c.padding = slot.config[4];
  c.pool_choice = slot.config[5];
  c.kernel_size_pool = slot.config[6];
  c.stride_pool = slot.config[7];
  c.initial_output_feature = slot.config[8];
  c.precision = slot.config[9];
  c.depth = slot.config[10];
  c.validate_universe();
  DCNAS_CHECK(read_pool(slot.key_off, slot.key_len) == c.lattice_key(),
              "store record key does not match its config");
  r.accuracy = bits_double(slot.accuracy_bits);
  r.latency_ms = bits_double(slot.latency_bits);
  r.lat_std = bits_double(slot.lat_std_bits);
  r.memory_mb = bits_double(slot.memory_bits);
  DCNAS_CHECK(slot.fold_count <= store::kMaxFolds,
              "store record fold count out of range");
  for (std::uint32_t f = 0; f < slot.fold_count; ++f) {
    entry.fold_indices.push_back(slot.folds[f].index);
    r.fold_accuracies.push_back(bits_double(slot.folds[f].accuracy_bits));
  }
  DCNAS_CHECK(slot.device_count <= store::kMaxDevices,
              "store record device count out of range");
  for (std::uint32_t d = 0; d < slot.device_count; ++d) {
    r.per_device_ms.emplace_back(
        read_pool(slot.devices[d].name_off, slot.devices[d].name_len),
        bits_double(slot.devices[d].ms_bits));
  }
  return entry;
}

JournalEntry TrialStore::read(std::uint64_t i) const {
  DCNAS_CHECK(i < committed_, "store record index out of range");
  TrialSlot slot;
  std::memcpy(&slot, slot_ptr(i), sizeof(slot));
  DCNAS_CHECK(slot.crc == slot_crc(slot),
              "committed store record " + std::to_string(i) + " in " + dir_ +
                  " failed its CRC (corrupt store)");
  return decode_slot(slot);
}

const JournalEntry* TrialStore::find(const std::string& lattice_key) const {
  const auto it = by_key_.find(lattice_key);
  return it == by_key_.end() ? nullptr : &it->second;
}

void TrialStore::index_records(std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t i = from; i < to; ++i) {
    JournalEntry entry = read(i);
    const std::string key = entry.record.config.lattice_key();
    by_key_.insert_or_assign(key, std::move(entry));
  }
}

void TrialStore::write_control() {
  ctrl_.crc = control_crc(ctrl_);
  pwrite_all(ctrl_fd_, &ctrl_, sizeof(ctrl_), 0, "write store.ctrl");
  if (options_.fsync_each) fsync_checked(ctrl_fd_, "fsync store.ctrl");
}

void TrialStore::append(const JournalEntry& entry) {
  entry.record.config.validate_universe();
  lock_file();
  try {
    // Another process may have advanced the store since our last look:
    // re-read the control block so the append lands after *its* commits.
    ControlBlock latest{};
    DCNAS_CHECK(pread_all(ctrl_fd_, &latest, sizeof(latest), 0),
                errno_text("re-read store.ctrl"));
    DCNAS_CHECK(latest.crc == control_crc(latest),
                "store.ctrl failed its CRC mid-run (corrupt store)");
    const std::uint64_t previously_committed = ctrl_.committed_records;
    ctrl_ = latest;

    std::string string_bytes;
    const TrialSlot slot =
        encode_slot(entry, ctrl_.committed_string_bytes, &string_bytes);
    if (!string_bytes.empty()) {
      pwrite_all(pool_fd_, string_bytes.data(), string_bytes.size(),
                 ctrl_.committed_string_bytes, "append strings.pool");
    }
    Chunk& chunk = chunk_for(ctrl_.committed_records);
    pwrite_all(chunk.fd, &slot, sizeof(slot),
               (ctrl_.committed_records % ctrl_.chunk_capacity) *
                   sizeof(TrialSlot),
               "append trial record");
    if (options_.fsync_each) {
      fsync_checked(pool_fd_, "fsync strings.pool");
      fsync_checked(chunk.fd, "fsync chunk");
    }
    // Publish: only now does the record exist as far as readers (and
    // recovery) are concerned.
    ctrl_.committed_string_bytes += string_bytes.size();
    ctrl_.committed_records += 1;
    write_control();
    committed_ = ctrl_.committed_records;

    // Keep the in-handle index current, including records other processes
    // committed between our appends.
    index_records(previously_committed, committed_);
  } catch (...) {
    unlock_file();
    throw;
  }
  unlock_file();
}

std::uint64_t TrialStore::refresh() {
  lock_file();
  ControlBlock latest{};
  const bool read_ok = pread_all(ctrl_fd_, &latest, sizeof(latest), 0);
  unlock_file();
  DCNAS_CHECK(read_ok, errno_text("re-read store.ctrl"));
  DCNAS_CHECK(latest.crc == control_crc(latest),
              "store.ctrl failed its CRC on refresh (corrupt store)");
  const std::uint64_t before = committed_;
  ctrl_ = latest;
  committed_ = ctrl_.committed_records;
  if (committed_ > before) index_records(before, committed_);
  return committed_ - before;
}

TrialDatabase TrialStore::to_database() const {
  std::vector<TrialRecord> out;
  std::map<std::string, std::size_t> position;
  for (std::uint64_t i = 0; i < committed_; ++i) {
    JournalEntry entry = read(i);
    if (entry.status != TrialStatus::kOk) continue;
    const std::string key = entry.record.config.lattice_key();
    const auto it = position.find(key);
    if (it == position.end()) {
      position.emplace(key, out.size());
      out.push_back(std::move(entry.record));
    } else {
      out[it->second] = std::move(entry.record);  // last write wins
    }
  }
  TrialDatabase db;
  for (auto& r : out) db.add(std::move(r));
  return db;
}

TrialDatabase TrialStore::assemble(
    const std::vector<TrialConfig>& configs) const {
  TrialDatabase db;
  for (const auto& config : configs) {
    const JournalEntry* entry = find(config.lattice_key());
    DCNAS_CHECK(entry != nullptr,
                "store has no record for " + config.lattice_key());
    if (entry->status != TrialStatus::kOk) continue;
    db.add(entry->record);
  }
  return db;
}

void TrialStore::import_database(const TrialDatabase& db) {
  for (const auto& r : db.records()) {
    JournalEntry entry;
    entry.status = TrialStatus::kOk;
    entry.record = r;
    entry.fold_indices.resize(r.fold_accuracies.size());
    for (std::size_t f = 0; f < entry.fold_indices.size(); ++f) {
      entry.fold_indices[f] = static_cast<int>(f);
    }
    append(entry);
  }
}

}  // namespace dcnas::nas
