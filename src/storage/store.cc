#include "storage/store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>

#include "common/env.h"
#include "common/logging.h"
#include "common/stats.h"
#include "encoding/varint.h"
#include "obs/metrics.h"
#include "storage/file_format.h"
#include "storage/quarantine.h"

namespace tsviz {

namespace fs = std::filesystem;

namespace {

// Data files are named f<id>.tsdat; ids increase with creation order.
constexpr char kDataSuffix[] = ".tsdat";

uint64_t NextStoreId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<uint64_t> ParseFileId(const std::string& name) {
  if (name.size() < 2 || name[0] != 'f') {
    return Status::InvalidArgument("not a data file: " + name);
  }
  uint64_t id = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return Status::InvalidArgument("not a data file: " + name);
    }
    id = id * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return id;
}

// Partition directories are named p<index> (index may be negative for
// pre-epoch timestamps).
Result<int64_t> ParsePartitionDirIndex(const std::string& name) {
  if (name.size() < 2 || name[0] != 'p') {
    return Status::InvalidArgument("not a partition dir: " + name);
  }
  size_t i = 1;
  bool negative = false;
  if (name[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= name.size()) {
    return Status::InvalidArgument("not a partition dir: " + name);
  }
  int64_t index = 0;
  for (; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return Status::InvalidArgument("not a partition dir: " + name);
    }
    index = index * 10 + (name[i] - '0');
  }
  return negative ? -index : index;
}

// The manifest pins the store's partition interval at creation time. v2
// appends an FNV-1a checksum of the interval digits so a torn or bit-flipped
// manifest is detected instead of silently repartitioning the store; v1
// manifests (no checksum) stay readable.
constexpr char kManifestPrefixV1[] = "tsviz.partition.v1 ";
constexpr char kManifestPrefixV2[] = "tsviz.partition.v2 ";

std::string FormatManifest(int64_t interval) {
  const std::string digits = std::to_string(interval);
  return std::string(kManifestPrefixV2) + digits + " " +
         std::to_string(Fnv1a64(digits)) + "\n";
}

// Parses either manifest version; any structural problem (wrong prefix,
// non-positive interval, checksum mismatch) is a Corruption.
Result<int64_t> ParseManifest(const std::string& content,
                              const std::string& path) {
  const Status corrupt = Status::Corruption("bad partition manifest: " + path);
  const size_t prefix_len = strlen(kManifestPrefixV2);
  static_assert(sizeof(kManifestPrefixV1) == sizeof(kManifestPrefixV2));
  const bool v2 = content.compare(0, prefix_len, kManifestPrefixV2) == 0;
  if (!v2 && content.compare(0, prefix_len, kManifestPrefixV1) != 0) {
    return corrupt;
  }
  char* end = nullptr;
  const int64_t value = std::strtoll(content.c_str() + prefix_len, &end, 10);
  if (value <= 0) return corrupt;
  if (v2) {
    const char* digits_begin = content.c_str() + prefix_len;
    const std::string digits(digits_begin,
                             static_cast<size_t>(end - digits_begin));
    char* checksum_end = nullptr;
    const uint64_t checksum = std::strtoull(end, &checksum_end, 10);
    if (checksum_end == end || checksum != Fnv1a64(digits)) return corrupt;
  }
  return value;
}

// Rebuilds the derived flat file/chunk vectors from the partitions (in
// partition order) and refreshes the legacy group's pruning interval from
// its files' data bounds. Indexed partitions keep their fixed interval.
void RebuildDerived(StoreState* state) {
  state->files.clear();
  state->chunks.clear();
  for (StorePartition& part : state->partitions) {
    if (part.legacy()) {
      Timestamp lo = kMaxTimestamp;
      Timestamp hi = kMinTimestamp;
      bool any = false;
      for (const auto& file : part.files) {
        if (file->chunks().empty()) continue;
        any = true;
        lo = std::min(lo, file->interval().start);
        hi = std::max(hi, file->interval().end);
      }
      part.interval = any ? TimeRange(lo, hi) : TimeRange(1, 0);
    }
    state->files.insert(state->files.end(), part.files.begin(),
                        part.files.end());
    state->chunks.insert(state->chunks.end(), part.chunks.begin(),
                         part.chunks.end());
  }
}

// Finds the partition with the given index in `state`, inserting an empty
// one (with the given nominal bounds) at its sorted position if missing.
StorePartition* FindOrAddPartition(StoreState* state, int64_t index,
                                   const TimeRange& bounds) {
  auto it = std::lower_bound(
      state->partitions.begin(), state->partitions.end(), index,
      [](const StorePartition& p, int64_t idx) { return p.index < idx; });
  if (it != state->partitions.end() && it->index == index) return &*it;
  StorePartition part;
  part.index = index;
  part.interval = bounds;
  it = state->partitions.insert(it, std::move(part));
  return &*it;
}

}  // namespace

StoreView::StoreView(const TsStore& store) : state_(store.SnapshotState()) {}

TimeRange StoreView::DataInterval() const {
  if (state_->chunks.empty()) return TimeRange(1, 0);  // empty
  Timestamp lo = kMaxTimestamp;
  Timestamp hi = kMinTimestamp;
  for (const ChunkHandle& chunk : state_->chunks) {
    lo = std::min(lo, chunk.meta->stats.first.t);
    hi = std::max(hi, chunk.meta->stats.last.t);
  }
  return TimeRange(lo, hi);
}

std::shared_ptr<const StoreState> TsStore::SnapshotState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void TsStore::PublishLocked(std::shared_ptr<StoreState> next) {
  RebuildDerived(next.get());
  next->store_id = state_->store_id;
  next->state_version = state_->state_version + 1;
  state_ = std::move(next);
}

Result<std::unique_ptr<TsStore>> TsStore::Open(StoreConfig config) {
  if (config.data_dir.empty()) {
    return Status::InvalidArgument("data_dir must be set");
  }
  if (config.points_per_chunk == 0 || config.memtable_flush_threshold == 0) {
    return Status::InvalidArgument("chunk/flush sizes must be positive");
  }
  if (config.partition_interval_ms < 0) {
    return Status::InvalidArgument("partition_interval_ms must be >= 0");
  }
  TSVIZ_RETURN_IF_ERROR(GetEnv()->CreateDirs(config.data_dir));
  auto store = std::unique_ptr<TsStore>(new TsStore(std::move(config)));
  TSVIZ_RETURN_IF_ERROR(store->Recover());
  return store;
}

Status TsStore::Recover() {
  // Resolve the partition interval first: the partition.meta manifest
  // (written when a partitioned store is created) wins over the config —
  // a store cannot change its partition width after the fact, or existing
  // files would sit in the wrong directories.
  {
    Env* env = GetEnv();
    auto manifest = env->ReadFileToString(ManifestPath());
    if (manifest.ok()) {
      TSVIZ_ASSIGN_OR_RETURN(int64_t value,
                             ParseManifest(*manifest, ManifestPath()));
      if (config_.partition_interval_ms != 0 &&
          config_.partition_interval_ms != value) {
        TSVIZ_WARN << "partition.meta overrides configured interval"
                   << Field("manifest", value)
                   << Field("config", config_.partition_interval_ms);
      }
      partition_interval_ = value;
    } else if (manifest.status().code() == StatusCode::kNotFound) {
      partition_interval_ = config_.partition_interval_ms;
      if (partition_interval_ > 0) {
        TSVIZ_RETURN_IF_ERROR(WriteFileAtomic(
            ManifestPath(), FormatManifest(partition_interval_),
            durable_fsync()));
      }
    } else {
      return manifest.status();
    }
  }

  auto state = std::make_shared<StoreState>();
  state->store_id = NextStoreId();

  // Collect data files per partition: root-level files form the legacy
  // (pre-partitioning) group, p<index>/ directories the indexed groups.
  // Within a group files are ordered by id so chunk versions replay in
  // creation order; across groups order does not matter for the version
  // counter (we take the max).
  std::map<int64_t, std::vector<std::pair<uint64_t, std::string>>> found;
  // The error_code overloads keep a concurrently dropped directory (another
  // thread's DropSeries removing files, which runs outside catalog locks)
  // from escalating into an uncaught filesystem_error.
  std::error_code scan_ec;
  fs::directory_iterator dir_it(config_.data_dir, scan_ec);
  if (scan_ec) {
    return Status::IoError("cannot scan data dir " + config_.data_dir + ": " +
                           scan_ec.message());
  }
  for (const auto& entry : dir_it) {
    std::string name = entry.path().filename().string();
    std::error_code type_ec;
    if (entry.is_regular_file(type_ec)) {
      if (name.ends_with(".tmp")) {
        // A write (data file, manifest, mods rewrite) that died before its
        // commit rename; the finished artifact either exists under its
        // final name or never happened.
        (void)GetEnv()->RemoveFile(entry.path().string());
        continue;
      }
      if (name.size() > sizeof(kDataSuffix) && name.ends_with(kDataSuffix)) {
        std::string stem = name.substr(0, name.size() - strlen(kDataSuffix));
        auto id = ParseFileId(stem);
        if (id.ok()) {
          found[kLegacyPartitionIndex].emplace_back(*id, entry.path().string());
        }
      }
    } else if (entry.is_directory(type_ec)) {
      auto index = ParsePartitionDirIndex(name);
      if (!index.ok()) continue;
      std::error_code sub_ec;
      fs::directory_iterator sub_it(entry.path(), sub_ec);
      if (sub_ec) continue;  // Partition dir vanished between list and open.
      for (const auto& sub : sub_it) {
        std::error_code sub_type_ec;
        if (!sub.is_regular_file(sub_type_ec)) continue;
        std::string sub_name = sub.path().filename().string();
        if (sub_name.ends_with(".tmp")) {
          (void)GetEnv()->RemoveFile(sub.path().string());
          continue;
        }
        if (sub_name.size() > sizeof(kDataSuffix) &&
            sub_name.ends_with(kDataSuffix)) {
          std::string stem =
              sub_name.substr(0, sub_name.size() - strlen(kDataSuffix));
          auto id = ParseFileId(stem);
          if (id.ok()) found[*index].emplace_back(*id, sub.path().string());
        }
      }
    }
  }

  for (auto& [part_index, data_files] : found) {
    std::sort(data_files.begin(), data_files.end());
    StorePartition part;
    part.index = part_index;
    part.interval = PartitionBounds(part_index);
    for (const auto& [id, path] : data_files) {
      auto reader_or = FileReader::Open(path);
      if (!reader_or.ok()) {
        // Its id stays burned so a future flush cannot rename over the
        // evidence.
        next_file_id_ = std::max(next_file_id_, id + 1);
        const Status& status = reader_or.status();
        if (GetReadTolerance() == ReadTolerance::kDegrade &&
            (status.code() == StatusCode::kCorruption ||
             status.code() == StatusCode::kIoError)) {
          static obs::Counter& corruption_events =
              obs::GetCounter("corruption_events");
          corruption_events.Inc();
          TSVIZ_WARN << "skipping unreadable data file" << Field("file", path)
                     << Field("cause", status.ToString());
          continue;
        }
        return status;
      }
      std::shared_ptr<FileReader> reader = std::move(reader_or).value();
      for (const ChunkMetadata& meta : reader->chunks()) {
        part.chunks.push_back(ChunkHandle{reader, &meta});
        next_version_ = std::max(next_version_, meta.version + 1);
      }
      part.files.push_back(std::move(reader));
      next_file_id_ = std::max(next_file_id_, id + 1);
    }
    if (!part.legacy() && partition_interval_ <= 0) {
      // Partition directories without a usable interval (manifest deleted
      // by hand): fall back to the files' data bounds, which are a subset
      // of the nominal interval and prune just as correctly.
      Timestamp lo = kMaxTimestamp;
      Timestamp hi = kMinTimestamp;
      bool any = false;
      for (const auto& file : part.files) {
        if (file->chunks().empty()) continue;
        any = true;
        lo = std::min(lo, file->interval().start);
        hi = std::max(hi, file->interval().end);
      }
      part.interval = any ? TimeRange(lo, hi) : TimeRange(1, 0);
    }
    state->partitions.push_back(std::move(part));
  }
  RebuildDerived(state.get());

  // Replay delete tombstones.
  auto mods = GetEnv()->ReadFileToString(ModsPath());
  if (!mods.ok() && mods.status().code() != StatusCode::kNotFound) {
    return mods.status();
  }
  if (mods.ok()) {
    const std::string content = std::move(mods).value();
    std::string_view cursor = content;
    if (cursor.size() < kModsMagic.size() ||
        cursor.substr(0, kModsMagic.size()) != kModsMagic) {
      return Status::Corruption("bad mods file magic");
    }
    cursor.remove_prefix(kModsMagic.size());
    while (!cursor.empty()) {
      TSVIZ_ASSIGN_OR_RETURN(DeleteRecord del, ParseDeleteRecord(&cursor));
      state->deletes.push_back(del);
      next_version_ = std::max(next_version_, del.version + 1);
    }
  }

  state_ = std::move(state);

  // Replay the WAL into the memtable (deletes there are the memtable
  // purges; their versioned tombstones were already restored from mods). A
  // crash between a flush's segment rotation and its completion leaves the
  // pinned old segment behind; it replays first, before the active log.
  if (config_.enable_wal) {
    const bool had_old_segment = GetEnv()->FileExists(OldWalPath());
    std::vector<WalRecord> records;
    bool truncated = false;
    if (had_old_segment) {
      bool old_truncated = false;
      TSVIZ_ASSIGN_OR_RETURN(records, ReadWal(OldWalPath(), &old_truncated));
      truncated = old_truncated;
    }
    {
      bool active_truncated = false;
      TSVIZ_ASSIGN_OR_RETURN(std::vector<WalRecord> active,
                             ReadWal(WalPath(), &active_truncated));
      truncated = truncated || active_truncated;
      records.insert(records.end(), active.begin(), active.end());
    }
    for (const WalRecord& record : records) {
      if (record.type == WalRecord::Type::kPut) {
        memtable_.Put(record.point.t, record.point.v);
      } else {
        memtable_.EraseRange(record.range);
      }
    }
    TSVIZ_ASSIGN_OR_RETURN(wal_, WalWriter::Open(WalPath(), durable_fsync()));
    if (truncated || had_old_segment) {
      // Consolidate everything into the active log so the old segment can
      // be dropped (and a torn tail rewritten).
      if (truncated) {
        TSVIZ_WARN << "wal had a torn tail; rewriting the log"
                   << Field("replayed", records.size());
      }
      TSVIZ_RETURN_IF_ERROR(wal_->Reset());
      for (const WalRecord& record : records) {
        TSVIZ_RETURN_IF_ERROR(
            record.type == WalRecord::Type::kPut
                ? wal_->AppendPut(record.point)
                : wal_->AppendDelete(record.range));
      }
      TSVIZ_RETURN_IF_ERROR(GetEnv()->RemoveFile(OldWalPath()));
    }
  }
  return Status::OK();
}

int64_t TsStore::PartitionIndexFor(Timestamp t) const {
  if (partition_interval_ <= 0) return kLegacyPartitionIndex;
  // Floor division: negative timestamps round toward -inf, so every
  // partition covers exactly partition_interval_ time units.
  int64_t index = t / partition_interval_;
  if (t % partition_interval_ != 0 && t < 0) --index;
  return index;
}

TimeRange TsStore::PartitionBounds(int64_t index) const {
  if (index == kLegacyPartitionIndex || partition_interval_ <= 0) {
    return TimeRange(kMinTimestamp, kMaxTimestamp);
  }
  const int64_t w = partition_interval_;
  const Timestamp start = static_cast<Timestamp>(index) * w;
  const Timestamp end =
      start > kMaxTimestamp - (w - 1) ? kMaxTimestamp : start + (w - 1);
  return TimeRange(start, end);
}

std::string TsStore::PartitionDirPath(int64_t index) const {
  return config_.data_dir + "/p" + std::to_string(index);
}

std::string TsStore::FilePath(uint64_t file_id, int64_t partition_index) const {
  const std::string name = "f" + std::to_string(file_id) + kDataSuffix;
  if (partition_index == kLegacyPartitionIndex) {
    return config_.data_dir + "/" + name;
  }
  return PartitionDirPath(partition_index) + "/" + name;
}

std::string TsStore::ManifestPath() const {
  return config_.data_dir + "/partition.meta";
}

std::string TsStore::ModsPath() const {
  return config_.data_dir + "/deletes.mods";
}

std::string TsStore::WalPath() const { return config_.data_dir + "/wal.log"; }

std::string TsStore::OldWalPath() const {
  return config_.data_dir + "/wal.old.log";
}

void TsStore::set_durable_fsync(bool durable) {
  durable_.store(durable, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (wal_ != nullptr) wal_->set_durable(durable);
}

size_t TsStore::memtable_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memtable_.size();
}

size_t TsStore::memtable_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memtable_.ApproxBytes();
}

namespace {

// The write-path lock cost the batch API amortizes: one Inc per mutex_
// acquisition taken to apply writes (one per single-point Write, one per
// WriteBatch however many points it carries).
obs::Counter& WriteLockAcquisitionsTotal() {
  static obs::Counter& c = obs::GetCounter(
      "store_write_lock_acquisitions_total",
      "Store-lock acquisitions taken by the write path (one per single "
      "Write; one per whole WriteBatch)");
  return c;
}
obs::Counter& BatchWritesTotal() {
  static obs::Counter& c = obs::GetCounter(
      "batch_writes_total", "WriteBatch calls applied to a store");
  return c;
}
obs::Counter& BatchPointsTotal() {
  static obs::Counter& c = obs::GetCounter(
      "batch_points_total", "Points ingested through WriteBatch");
  return c;
}

}  // namespace

Status TsStore::Write(Timestamp t, Value v) {
  if (!std::isfinite(v)) {
    // NaN/Inf would poison the value-ordered chunk statistics (BP/TP) and
    // the merge semantics; reject at the door like IoTDB does.
    return Status::InvalidArgument("value must be finite");
  }
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    WriteLockAcquisitionsTotal().Inc();
    if (wal_ != nullptr) {
      TSVIZ_RETURN_IF_ERROR(wal_->AppendPut(Point{t, v}));
    }
    memtable_.Put(t, v);
    flush_now = memtable_.size() >= config_.memtable_flush_threshold;
  }
  // The inline (foreground) flush of the size threshold; taken outside the
  // lock so Flush can acquire the maintenance mutex first.
  if (flush_now) return Flush();
  return Status::OK();
}

Status TsStore::WriteAll(const std::vector<Point>& points) {
  for (const Point& p : points) {
    TSVIZ_RETURN_IF_ERROR(Write(p.t, p.v));
  }
  return Status::OK();
}

Status TsStore::WriteBatch(const std::vector<Point>& points) {
  // All-or-nothing validation before any state is touched.
  for (const Point& p : points) {
    if (!std::isfinite(p.v)) {
      return Status::InvalidArgument("value must be finite");
    }
  }
  if (points.empty()) return Status::OK();
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    WriteLockAcquisitionsTotal().Inc();
    if (wal_ != nullptr) {
      TSVIZ_RETURN_IF_ERROR(wal_->AppendPuts(points));
    }
    for (const Point& p : points) memtable_.Put(p.t, p.v);
    flush_now = memtable_.size() >= config_.memtable_flush_threshold;
  }
  BatchWritesTotal().Inc();
  BatchPointsTotal().Inc(points.size());
  if (flush_now) return Flush();
  return Status::OK();
}

Status TsStore::DeleteRange(const TimeRange& range) {
  if (range.Empty()) {
    return Status::InvalidArgument("empty delete range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  DeleteRecord del{range, next_version_++};
  TSVIZ_RETURN_IF_ERROR(AppendModsRecordLocked(del));
  if (wal_ != nullptr) {
    TSVIZ_RETURN_IF_ERROR(wal_->AppendDelete(range));
  }
  auto next = std::make_shared<StoreState>(*state_);
  next->deletes.push_back(del);
  PublishLocked(std::move(next));
  // Deletes apply to unflushed data immediately; flushed chunks are
  // filtered at read time via the versioned tombstone.
  memtable_.EraseRange(range);
  static obs::Counter& deletes_total = obs::GetCounter(
      "storage_deletes_total", "Range tombstones appended");
  deletes_total.Inc();
  return Status::OK();
}

Status TsStore::AppendModsRecordLocked(const DeleteRecord& del) {
  const std::string path = ModsPath();
  TSVIZ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> mods,
                         GetEnv()->NewAppendableFile(path));
  std::string record;
  if (mods->size() == 0) record.append(kModsMagic);
  SerializeDeleteRecord(del, &record);
  const uint64_t size_before = mods->size();
  if (Status status = mods->Append(record); !status.ok()) {
    // Erase the torn record so the file stays parseable end to end (mods
    // replay has no torn-tail tolerance — every byte must decode).
    (void)mods->Truncate(size_before);
    return status;
  }
  if (durable_fsync()) {
    TSVIZ_RETURN_IF_ERROR(mods->Sync());
  }
  return mods->Close();
}

Status TsStore::RewriteModsLocked(const std::vector<DeleteRecord>& deletes) {
  const std::string path = ModsPath();
  if (deletes.empty()) {
    return GetEnv()->RemoveFile(path);
  }
  std::string content(kModsMagic);
  for (const DeleteRecord& del : deletes) {
    SerializeDeleteRecord(del, &content);
  }
  return WriteFileAtomic(path, content, durable_fsync());
}

Status TsStore::Flush() {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  return FlushHoldingMaintenance();
}

Status TsStore::FlushHoldingMaintenance() {
  Timer timer;
  std::vector<Point> points;
  // One output file per partition the drained points touch; the flat store
  // always produces a single legacy-group file.
  struct FlushGroup {
    int64_t partition = kLegacyPartitionIndex;
    uint64_t file_id = 0;
    Version first_version = 0;
    size_t begin = 0;  // [begin, end) into `points` (drained in time order)
    size_t end = 0;
  };
  std::vector<FlushGroup> groups;
  bool rotated = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (memtable_.empty()) return Status::OK();
    points = memtable_.Drain();
    if (wal_ != nullptr) {
      // Pin the drained points' log records in a side segment; writes that
      // land while the flush encodes go to a fresh active log, so neither
      // the flushed nor the concurrent points can be lost by a crash.
      TSVIZ_RETURN_IF_ERROR(wal_->RotateTo(OldWalPath()));
      rotated = true;
      TSVIZ_CRASHPOINT("flush.after_rotate");
    }
    // Route the (time-ordered) drained points into contiguous per-partition
    // groups. File ids and one version per chunk are reserved here so
    // anything appended later orders after every flushed chunk.
    size_t begin = 0;
    while (begin < points.size()) {
      FlushGroup group;
      group.partition = PartitionIndexFor(points[begin].t);
      const Timestamp bound = PartitionBounds(group.partition).end;
      size_t end = begin + 1;
      while (end < points.size() && points[end].t <= bound) ++end;
      group.begin = begin;
      group.end = end;
      group.file_id = next_file_id_++;
      group.first_version = next_version_;
      next_version_ += (end - begin + config_.points_per_chunk - 1) /
                       config_.points_per_chunk;
      groups.push_back(group);
      begin = end;
    }
  }

  // Undo on failure: the drained points go back to the memtable (without
  // clobbering newer concurrent writes at the same timestamps) and back
  // into the active log; the pinned segment and any partial files drop.
  auto fail = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Point& p : points) {
      memtable_.PutIfAbsent(p.t, p.v);
      if (wal_ != nullptr) (void)wal_->AppendPut(p);
    }
    for (const FlushGroup& group : groups) {
      (void)GetEnv()->RemoveFile(FilePath(group.file_id, group.partition));
    }
    if (rotated) (void)GetEnv()->RemoveFile(OldWalPath());
    return status;
  };

  const bool durable = durable_fsync();
  std::vector<std::shared_ptr<FileReader>> readers(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const FlushGroup& group = groups[g];
    if (group.partition != kLegacyPartitionIndex) {
      const std::string dir = PartitionDirPath(group.partition);
      const bool fresh_dir = !GetEnv()->FileExists(dir);
      if (Status s = GetEnv()->CreateDirs(dir); !s.ok()) return fail(s);
      if (durable && fresh_dir) {
        // Pin the new directory entry itself; the files inside get their
        // own dir fsync from FileWriter::Finish.
        if (Status s = GetEnv()->SyncDir(config_.data_dir); !s.ok()) {
          return fail(s);
        }
      }
    }
    const std::string path = FilePath(group.file_id, group.partition);
    auto writer_or = FileWriter::Create(path, durable);
    if (!writer_or.ok()) return fail(writer_or.status());
    std::unique_ptr<FileWriter> writer = std::move(writer_or).value();
    size_t chunk_index = 0;
    for (size_t begin = group.begin; begin < group.end;
         begin += config_.points_per_chunk) {
      size_t count = std::min(config_.points_per_chunk, group.end - begin);
      std::vector<Point> slice(points.begin() + begin,
                               points.begin() + begin + count);
      Status s = writer->AppendChunk(slice, group.first_version + chunk_index++,
                                     config_.encoding, nullptr);
      if (!s.ok()) return fail(s);
    }
    if (Status s = writer->Finish(); !s.ok()) return fail(s);
    auto reader_or = FileReader::Open(path);
    if (!reader_or.ok()) return fail(reader_or.status());
    readers[g] = std::move(reader_or).value();
  }
  // The data files are complete and named; a crash here replays the pinned
  // WAL segment on top of them (duplicate points resolve by version).
  TSVIZ_CRASHPOINT("flush.after_data");

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto next = std::make_shared<StoreState>(*state_);
    for (size_t g = 0; g < groups.size(); ++g) {
      StorePartition* part = FindOrAddPartition(
          next.get(), groups[g].partition, PartitionBounds(groups[g].partition));
      for (const ChunkMetadata& meta : readers[g]->chunks()) {
        part->chunks.push_back(ChunkHandle{readers[g], &meta});
      }
      part->files.push_back(std::move(readers[g]));
    }
    PublishLocked(std::move(next));
  }
  TSVIZ_CRASHPOINT("flush.after_commit");
  if (rotated) {
    // The flushed files now carry the pinned segment's data.
    (void)GetEnv()->RemoveFile(OldWalPath());
  }
  static obs::Counter& flushes_total = obs::GetCounter(
      "storage_flushes_total", "Memtable flushes to data files");
  static obs::Counter& flush_points_total = obs::GetCounter(
      "storage_flush_points_total", "Points written by memtable flushes");
  static obs::Counter& partition_files = obs::GetCounter(
      "partition_files_created_total",
      "Data files created by flushes (one per touched partition)");
  static obs::Histogram& flush_millis = obs::GetHistogram(
      "storage_flush_millis", "Memtable flush latency (ms)");
  flushes_total.Inc();
  flush_points_total.Inc(points.size());
  partition_files.Inc(groups.size());
  flush_millis.Observe(timer.ElapsedMillis());
  return Status::OK();
}

Status TsStore::ExpireTtl(int64_t ttl, bool* expired) {
  if (expired != nullptr) *expired = false;
  if (ttl <= 0) {
    return Status::InvalidArgument("ttl must be positive");
  }
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  StoreView view = CurrentView();
  TimeRange interval = view.DataInterval();
  if (interval.Empty()) return Status::OK();
  if (interval.end < kMinTimestamp + ttl) return Status::OK();  // underflow
  const Timestamp watermark = interval.end - ttl;

  // Partitions whose whole interval lies below the watermark get unlinked
  // outright — an O(1) state swap instead of tombstone + reclaim
  // compaction. The legacy group has no upper bound and never qualifies.
  std::vector<int64_t> droppable;
  for (const StorePartition& part : view.partitions()) {
    if (!part.legacy() && !part.interval.Empty() &&
        part.interval.end < watermark) {
      droppable.push_back(part.index);
    }
  }
  const bool advance =
      watermark > interval.start && watermark > ttl_watermark_;
  if (!advance && droppable.empty()) return Status::OK();

  // Tombstone first: it covers the partial boundary partition and the
  // memtable, and makes the drop below crash-consistent — if we lose power
  // mid-unlink, the surviving files reopen already deleted by the mods
  // record.
  if (advance) {
    TSVIZ_RETURN_IF_ERROR(
        DeleteRange(TimeRange(interval.start, watermark - 1)));
    TSVIZ_CRASHPOINT("ttl.after_tombstone");
    ttl_watermark_ = watermark;
    if (expired != nullptr) *expired = true;
    static obs::Counter& ttl_expirations = obs::GetCounter(
        "storage_ttl_expirations_total",
        "Range tombstones appended by TTL expiry");
    ttl_expirations.Inc();
  }

  if (!droppable.empty()) {
    std::vector<std::string> dead_paths;
    std::vector<std::string> dead_dirs;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto next = std::make_shared<StoreState>(*state_);
      auto& parts = next->partitions;
      for (auto it = parts.begin(); it != parts.end();) {
        if (!std::binary_search(droppable.begin(), droppable.end(),
                                it->index)) {
          ++it;
          continue;
        }
        for (const auto& file : it->files) dead_paths.push_back(file->path());
        dead_dirs.push_back(PartitionDirPath(it->index));
        it = parts.erase(it);
      }
      PublishLocked(std::move(next));
    }
    // A crash before the unlinks below leaves the dropped partitions on
    // disk, but fully covered by the tombstone just written — they reopen
    // dead and the next expiry pass drops them again.
    TSVIZ_CRASHPOINT("ttl.after_drop");
    // Snapshot readers that pinned these files keep their descriptors; the
    // unlink only drops the directory entries.
    for (const std::string& path : dead_paths) {
      (void)GetEnv()->RemoveFile(path);
    }
    for (const std::string& dir : dead_dirs) {
      (void)GetEnv()->RemoveDir(dir);
    }
    static obs::Counter& partition_drops = obs::GetCounter(
        "partition_drops_total",
        "Fully-expired partitions unlinked by TTL expiry");
    partition_drops.Inc(droppable.size());
  }
  return Status::OK();
}

size_t TsStore::CountFullyExpiredPartitions(int64_t ttl) const {
  if (ttl <= 0) return 0;
  StoreView view = CurrentView();
  TimeRange interval = view.DataInterval();
  if (interval.Empty() || interval.end < kMinTimestamp + ttl) return 0;
  const Timestamp watermark = interval.end - ttl;
  size_t expired = 0;
  for (const StorePartition& part : view.partitions()) {
    if (!part.legacy() && !part.interval.Empty() &&
        part.interval.end < watermark) {
      ++expired;
    }
  }
  return expired;
}

size_t TsStore::CountFullyExpiredFiles(int64_t ttl) const {
  if (ttl <= 0) return 0;
  StoreView view = CurrentView();
  TimeRange interval = view.DataInterval();
  if (interval.Empty() || interval.end < kMinTimestamp + ttl) return 0;
  const Timestamp watermark = interval.end - ttl;
  size_t expired = 0;
  for (const auto& file : view.files()) {
    if (!file->chunks().empty() && file->interval().end < watermark) {
      ++expired;
    }
  }
  return expired;
}

uint64_t TsStore::TotalStoredPoints() const {
  uint64_t total = 0;
  const StoreView view = CurrentView();  // named: range-init temporaries die
  for (const ChunkHandle& chunk : view.chunks()) {
    total += chunk.meta->count;
  }
  return total;
}

size_t TsStore::CountUnsequenceFiles() const {
  size_t unseq = 0;
  Timestamp max_end = kMinTimestamp;
  bool any = false;
  StoreView view = CurrentView();
  for (const auto& file : view.files()) {
    Timestamp file_min = kMaxTimestamp;
    Timestamp file_max = kMinTimestamp;
    for (const ChunkMetadata& meta : file->chunks()) {
      file_min = std::min(file_min, meta.stats.first.t);
      file_max = std::max(file_max, meta.stats.last.t);
    }
    if (file->chunks().empty()) continue;
    if (any && file_min <= max_end) ++unseq;
    max_end = std::max(max_end, file_max);
    any = true;
  }
  return unseq;
}

double TsStore::OverlapFraction() const {
  StoreView view = CurrentView();
  if (view.chunks().size() < 2) return 0.0;
  std::vector<TimeRange> intervals;
  intervals.reserve(view.chunks().size());
  for (const ChunkHandle& chunk : view.chunks()) {
    intervals.push_back(chunk.meta->Interval());
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const TimeRange& a, const TimeRange& b) {
              return a.start < b.start;
            });
  // With intervals sorted by start, interval i overlaps an earlier one iff
  // its start is <= the max end seen so far, and a later one iff the next
  // start is <= its end.
  size_t overlapping = 0;
  Timestamp max_end_before = kMinTimestamp;
  for (size_t i = 0; i < intervals.size(); ++i) {
    bool with_earlier = i > 0 && intervals[i].start <= max_end_before;
    bool with_later =
        i + 1 < intervals.size() && intervals[i + 1].start <= intervals[i].end;
    if (with_earlier || with_later) ++overlapping;
    max_end_before = std::max(max_end_before, intervals[i].end);
  }
  return static_cast<double>(overlapping) /
         static_cast<double>(intervals.size());
}

}  // namespace tsviz
