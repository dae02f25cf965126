#pragma once
/// \file format.hpp
/// \brief On-disk layout of the memory-mapped trial store (DESIGN.md §14).
///
/// A store is a directory:
///
///   store.lock         empty file; fcntl(F_SETLKW) whole-file lock taken
///                      around every commit and every recovery pass
///   store.ctrl         one 256-byte ControlBlock (the commit point)
///   strings.pool       append-only UTF-8 bytes (lattice keys, device names)
///   trials-NNNNN.chunk fixed-size TrialSlot records, chunk_capacity per
///                      file, preallocated with ftruncate and mmap'd
///
/// Every multi-byte field is little-endian host order (the store is a
/// single-host artifact); every CRC is the repo's FNV-1a 64 over the struct
/// bytes with the crc field zeroed.
///
/// **Commit protocol** (holding the store.lock exclusive region lock):
///   1. pread + validate the ControlBlock (recover first if its CRC fails)
///   2. pwrite the record's strings at committed_string_bytes
///   3. pwrite the TrialSlot at record index committed_records
///   4. fsync the pool and chunk fds
///   5. pwrite + fsync the updated ControlBlock (counters + new CRC)
/// A crash before step 5 leaves a torn tail *beyond* the committed
/// counters; the next open truncates the pool back to
/// committed_string_bytes and zeroes slots past committed_records. A crash
/// *during* step 5 leaves a bad control CRC; the next open rebuilds the
/// counters by scanning chunk records (each slot carries its own CRC) and
/// accepting the longest valid prefix.

#include <cstdint>

namespace dcnas::nas::store {

inline constexpr char kControlMagic[8] = {'D', 'C', 'N', 'S',
                                          'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kDefaultChunkCapacity = 4096;

/// Inline capacity of one record. The paper protocol is 5-fold CV; 16
/// leaves room for deeper CV without a format bump. Devices: the nn-Meter
/// predictor set is 4; 8 leaves headroom.
inline constexpr std::uint32_t kMaxFolds = 16;
inline constexpr std::uint32_t kMaxDevices = 8;

/// Number of config ints a slot stores (TrialConfig's fields in declaration
/// order: channels, batch, kernel_size, stride, padding, pool_choice,
/// kernel_size_pool, stride_pool, initial_output_feature, precision, depth;
/// slot 11 is reserved, always 0).
inline constexpr std::uint32_t kConfigInts = 12;

/// One completed fold: index + the accuracy's IEEE-754 bit pattern
/// (doubles round-trip exactly, which is what keeps store-replayed CSVs
/// byte-identical to serial runs).
struct FoldSlot {
  std::int32_t index = 0;
  std::uint32_t reserved = 0;
  std::uint64_t accuracy_bits = 0;
};
static_assert(sizeof(FoldSlot) == 16, "FoldSlot layout drifted");

/// One per-device latency: the device name lives in strings.pool.
struct DeviceSlot {
  std::uint64_t name_off = 0;
  std::uint32_t name_len = 0;
  std::uint32_t reserved = 0;
  std::uint64_t ms_bits = 0;
};
static_assert(sizeof(DeviceSlot) == 24, "DeviceSlot layout drifted");

/// Trial status values stored on disk (mirrors nas::TrialStatus).
inline constexpr std::uint32_t kStatusOk = 0;
inline constexpr std::uint32_t kStatusPruned = 1;

/// One fixed-size trial record. Records are append-only: a slot is either
/// all zeroes (never written), torn (CRC fails; only ever beyond the
/// committed counter), or valid.
struct TrialSlot {
  std::uint32_t status = 0;
  std::uint32_t flags = 0;  ///< reserved, always 0
  std::int32_t config[kConfigInts] = {};
  std::uint64_t accuracy_bits = 0;
  std::uint64_t latency_bits = 0;
  std::uint64_t lat_std_bits = 0;
  std::uint64_t memory_bits = 0;
  std::uint64_t key_off = 0;  ///< lattice_key() bytes in strings.pool
  std::uint32_t key_len = 0;
  std::uint32_t fold_count = 0;
  FoldSlot folds[kMaxFolds] = {};
  std::uint32_t device_count = 0;
  std::uint32_t reserved = 0;
  DeviceSlot devices[kMaxDevices] = {};
  std::uint64_t crc = 0;  ///< fnv1a64 of this struct with crc zeroed
};
static_assert(sizeof(TrialSlot) == 568, "TrialSlot layout drifted");

/// The store's single commit point. Fixed 256 bytes so a control update is
/// one sector-aligned pwrite.
struct ControlBlock {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t record_size = 0;       ///< sizeof(TrialSlot) at write time
  std::uint64_t lattice_fingerprint = 0;  ///< SearchSpaceSpec::fingerprint()
  std::uint32_t chunk_capacity = 0;    ///< records per chunk file
  std::uint32_t reserved0 = 0;
  std::uint64_t committed_records = 0;
  std::uint64_t committed_string_bytes = 0;
  std::uint8_t reserved[200] = {};
  std::uint64_t crc = 0;  ///< fnv1a64 of this struct with crc zeroed
};
static_assert(sizeof(ControlBlock) == 256, "ControlBlock layout drifted");

}  // namespace dcnas::nas::store
