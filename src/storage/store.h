#ifndef TSVIZ_STORAGE_STORE_H_
#define TSVIZ_STORAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_range.h"
#include "common/types.h"
#include "storage/delete_record.h"
#include "storage/file_reader.h"
#include "storage/file_writer.h"
#include "storage/memtable.h"
#include "storage/options.h"
#include "storage/wal.h"

namespace tsviz {

class TsStore;

// A chunk on disk: its metadata plus the file it lives in.
struct ChunkHandle {
  std::shared_ptr<FileReader> file;
  const ChunkMetadata* meta = nullptr;  // owned by `file`
};

// Index of the legacy (unpartitioned) file group: files at the root of
// data_dir, written before the store had a partition interval. It sorts
// before every real index, so the legacy group is always partitions[0].
inline constexpr int64_t kLegacyPartitionIndex =
    std::numeric_limits<int64_t>::min();

// One time partition's file group. For a store with partition interval W,
// partition `index` holds exactly the points with floor(t / W) == index, so
// distinct partitions never overlap in time — that disjointness is what
// lets the read path prune whole groups and merge them independently.
struct StorePartition {
  int64_t index = kLegacyPartitionIndex;
  // Time bounds used for pruning. Indexed partitions carry their fixed
  // nominal interval [index*W, index*W + W - 1]; the legacy group carries
  // the union of its files' data intervals (empty when it has no data).
  TimeRange interval{1, 0};
  std::vector<std::shared_ptr<FileReader>> files;  // ascending file id
  std::vector<ChunkHandle> chunks;                 // per file, file order
  bool legacy() const { return index == kLegacyPartitionIndex; }
};

// One immutable version of the store's on-disk state. Mutations
// (flush/delete/compaction) publish a fresh StoreState; readers that took a
// snapshot before the swap keep the old one — the shared_ptr<FileReader>
// entries pin the files they need, so a concurrent compaction can drop a
// file from the store without pulling it out from under a running query.
struct StoreState {
  // Partition-scoped file groups: the legacy group first (when present),
  // then ascending partition index. A flat store keeps everything in the
  // legacy group.
  std::vector<StorePartition> partitions;
  // Flat concatenations of the partition members in partition order —
  // derived from `partitions` at every publish, kept so call sites that do
  // not care about partitioning keep working unchanged.
  std::vector<std::shared_ptr<FileReader>> files;
  std::vector<ChunkHandle> chunks;
  std::vector<DeleteRecord> deletes;
  uint64_t state_version = 0;
  // Process-unique id of the owning TsStore, for result-cache keying. Never
  // reused, unlike the store's address: a series dropped and re-created can
  // get the old address back with a restarted state_version.
  uint64_t store_id = 0;
};

// A consistent point-in-time view of one store, cheap to copy (one
// shared_ptr). The whole read path — chunk selection, delete selection,
// M4-LSM, M4-UDF, merge scans — operates on a StoreView, so a query sees
// exactly one state no matter what background maintenance does meanwhile.
// The implicit constructor snapshots the store's current state, which keeps
// `RunM4Lsm(*store, ...)` call sites working unchanged.
class StoreView {
 public:
  StoreView(const TsStore& store);  // NOLINT(google-explicit-constructor)
  explicit StoreView(std::shared_ptr<const StoreState> state)
      : state_(std::move(state)) {}

  const std::vector<ChunkHandle>& chunks() const { return state_->chunks; }
  const std::vector<std::shared_ptr<FileReader>>& files() const {
    return state_->files;
  }
  const std::vector<StorePartition>& partitions() const {
    return state_->partitions;
  }
  const std::vector<DeleteRecord>& deletes() const { return state_->deletes; }
  uint64_t state_version() const { return state_->state_version; }
  uint64_t store_id() const { return state_->store_id; }

  // Union time interval across chunk metadata; empty range when no chunks.
  TimeRange DataInterval() const;

 private:
  std::shared_ptr<const StoreState> state_;
};

// Single-series LSM store (Section 2.2): writes buffer in a memtable and
// flush to immutable chunks on disk; deletes are append-only range
// tombstones; every chunk and delete carries a global version number.
// Compaction merges every chunk and delete into disjoint latest-only chunks
// (the paper's evaluation keeps it off, Table 4); the maintenance subsystem
// (src/bg/) may run it in the background.
//
// Thread safety: all public methods are safe to call concurrently.
// Mutations serialize internally; reads take a copy-on-write snapshot and
// never block behind a flush or compaction. Flush/Compact/ExpireTtl
// additionally serialize against each other (at most one maintenance
// operation per store at a time), and only their short swap phases hold the
// write lock — encoding and merging run outside it.
class TsStore {
 public:
  // Opens (or creates) the store in config.data_dir, recovering chunks,
  // deletes and the version counter from existing files.
  static Result<std::unique_ptr<TsStore>> Open(StoreConfig config);

  TsStore(const TsStore&) = delete;
  TsStore& operator=(const TsStore&) = delete;

  // Buffers one point; flushes automatically when the memtable reaches
  // config.memtable_flush_threshold points. Non-finite values are rejected
  // (they would poison the value-ordered chunk statistics).
  Status Write(Timestamp t, Value v);

  // Writes points in the given (possibly out-of-order) arrival order.
  Status WriteAll(const std::vector<Point>& points);

  // Batched ingest: validates every point up front, then applies the whole
  // batch under ONE store-lock acquisition and ONE physical WAL write
  // (WalWriter::AppendPuts), versus N of each for N single Writes. The
  // memtable-size flush trigger is evaluated once after the batch, so the
  // memtable may transiently overshoot the threshold by the batch size.
  // Rejects the whole batch (writing nothing) if any value is non-finite.
  Status WriteBatch(const std::vector<Point>& points);

  // Appends a range tombstone with the next version number.
  Status DeleteRange(const TimeRange& range);

  // Flushes the memtable to a new data file (no-op when empty). The file
  // holds ceil(n / points_per_chunk) chunks, each with its own version.
  // Safe against concurrent writes: the memtable and WAL segment rotate
  // under the lock, the chunk encoding runs outside it.
  Status Flush();

  // Full compaction: merges every partition's chunks (with the deletes)
  // into one fresh file of disjoint latest-only chunks per partition —
  // never across a partition boundary — and drops the covered tombstones.
  // Reads and merges from a snapshot outside the lock; tombstones appended
  // while the merge runs survive the swap untouched (flushes are excluded
  // by the maintenance mutex).
  Status Compact();

  // Compacts a single partition's files into one latest-only file, leaving
  // every other partition (and the mods file) untouched. No-op when the
  // partition does not exist. Unlike Compact() this does not flush first —
  // it only reorganizes what is already on disk.
  Status CompactPartition(int64_t index);

  // TTL expiry: appends a range tombstone covering every point older than
  // `ttl` time units behind the newest flushed point (watermark =
  // data_end - ttl; points with t < watermark expire), then unlinks every
  // partition whose whole interval lies below the watermark — an O(1)
  // state swap instead of a reclaim compaction. The tombstone path is
  // watermark-guarded as before and remains what covers the partial
  // boundary partition and the memtable. *expired (optional) reports
  // whether a tombstone was appended.
  Status ExpireTtl(int64_t ttl, bool* expired = nullptr);

  // Number of data files whose whole interval lies below the TTL watermark
  // — fully dead weight that only a compaction can reclaim (legacy flat
  // stores; partitioned stores drop whole partitions instead).
  size_t CountFullyExpiredFiles(int64_t ttl) const;

  // Number of partitions whose whole nominal interval lies below the TTL
  // watermark — candidates for the O(1) drop in ExpireTtl. The legacy
  // group is never counted (it has no upper bound).
  size_t CountFullyExpiredPartitions(int64_t ttl) const;

  // The store's effective partition interval: the manifest-pinned value
  // when one exists, else the configured one. 0 = unpartitioned.
  int64_t partition_interval() const { return partition_interval_; }

  // floor(t / partition_interval); kLegacyPartitionIndex when the store is
  // unpartitioned.
  int64_t PartitionIndexFor(Timestamp t) const;

  size_t NumPartitions() const { return SnapshotState()->partitions.size(); }

  const StoreConfig& config() const { return config_; }

  // Runtime toggle for the fsync policy (the `SET durable_fsync` knob);
  // applies to every flush/compaction/rotation from this point on.
  void set_durable_fsync(bool durable);
  bool durable_fsync() const {
    return durable_.load(std::memory_order_relaxed);
  }

  // A consistent snapshot of the current on-disk state.
  StoreView CurrentView() const { return StoreView(SnapshotState()); }

  // Convenience copies of the current snapshot's members. Each call takes
  // its own snapshot; use CurrentView() when several must be consistent.
  std::vector<ChunkHandle> chunks() const { return SnapshotState()->chunks; }
  std::vector<std::shared_ptr<FileReader>> files() const {
    return SnapshotState()->files;
  }
  std::vector<DeleteRecord> deletes() const { return SnapshotState()->deletes; }

  size_t memtable_size() const;

  // Approximate heap footprint of the memtable, the size-trigger input of
  // the background auto-flush policy.
  size_t memtable_bytes() const;

  // Monotonic counter bumped by every state change visible to queries
  // (flush, delete, compaction); result caches key on it.
  uint64_t state_version() const { return SnapshotState()->state_version; }

  // Total points across all chunks (including overwritten ones).
  uint64_t TotalStoredPoints() const;

  // Union time interval across chunk metadata; empty range when no chunks.
  TimeRange DataInterval() const { return CurrentView().DataInterval(); }

  // Fraction of chunks whose time interval overlaps at least one other
  // chunk's (the x-axis of Figure 12).
  double OverlapFraction() const;

  // Number of data files written out of time order — files whose earliest
  // point is not later than everything flushed before them. These are
  // IoTDB's "unsequence" TsFiles (Appendix A.5.1), the product of
  // out-of-order arrivals.
  size_t CountUnsequenceFiles() const;

  size_t NumFiles() const { return SnapshotState()->files.size(); }

 private:
  friend class StoreView;

  explicit TsStore(StoreConfig config)
      : config_(std::move(config)), durable_(config_.durable_fsync) {}

  Status Recover();
  Status AppendModsRecordLocked(const DeleteRecord& del);
  Status RewriteModsLocked(const std::vector<DeleteRecord>& deletes);
  // The flush body; caller holds maintenance_mutex_.
  Status FlushHoldingMaintenance();
  std::shared_ptr<const StoreState> SnapshotState() const;
  // Publishes `next` as the current state with a bumped version, rebuilding
  // the derived flat vectors from the partitions. Caller holds mutex_.
  void PublishLocked(std::shared_ptr<StoreState> next);
  // Nominal time bounds of partition `index` (unbounded for the legacy
  // group).
  TimeRange PartitionBounds(int64_t index) const;
  std::string PartitionDirPath(int64_t index) const;
  std::string FilePath(uint64_t file_id, int64_t partition_index) const;
  std::string ManifestPath() const;
  std::string ModsPath() const;
  std::string WalPath() const;
  std::string OldWalPath() const;

  StoreConfig config_;

  // Live fsync policy, seeded from config_.durable_fsync and adjustable at
  // runtime via set_durable_fsync.
  std::atomic<bool> durable_;

  // Effective partition interval, fixed at Open (manifest wins over
  // config); immutable afterwards, so reads need no lock.
  int64_t partition_interval_ = 0;

  // Serializes Flush/Compact/ExpireTtl against each other. Always acquired
  // before mutex_ (never the other way around).
  std::mutex maintenance_mutex_;
  Timestamp ttl_watermark_ = kMinTimestamp;  // guarded by maintenance_mutex_

  // Guards everything below: the memtable, the WAL, the version/file-id
  // counters, the mods file, and the state_ pointer swap.
  mutable std::mutex mutex_;
  MemTable memtable_;
  std::unique_ptr<WalWriter> wal_;
  std::shared_ptr<const StoreState> state_;
  Version next_version_ = 1;
  uint64_t next_file_id_ = 1;
};

}  // namespace tsviz

#endif  // TSVIZ_STORAGE_STORE_H_
