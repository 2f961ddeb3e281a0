#include "db/database.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "read/series_reader.h"
#include "storage/page_cache.h"
#include "storage/quarantine.h"

namespace tsviz {

namespace fs = std::filesystem;

namespace {

bool IsKnownSetKnob(const std::string& name) {
  for (const char* knob : kSetKnobNames) {
    if (name == knob) return true;
  }
  return false;
}

}  // namespace

bool IsValidSeriesName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  if (name == "." || name == "..") return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseConfig config) {
  if (config.root_dir.empty()) {
    return Status::InvalidArgument("root_dir must be set");
  }
  std::error_code ec;
  fs::create_directories(config.root_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + config.root_dir + ": " +
                           ec.message());
  }
  auto db = std::unique_ptr<Database>(new Database(std::move(config)));
  if (db->config_.query_parallelism < 1) {
    return Status::InvalidArgument("query_parallelism must be positive");
  }
  if (db->config_.page_cache_bytes.has_value()) {
    SharedPageCache::Instance().set_capacity_bytes(
        *db->config_.page_cache_bytes);
  }
  TSVIZ_RETURN_IF_ERROR(db->Discover());
  // The manager always exists (SHOW JOBS / knobs work without a running
  // policy loop); the loop itself starts with StartMaintenance.
  db->maintenance_ = std::make_unique<bg::MaintenanceManager>(
      db.get(), db->config_.maintenance);
  return db;
}

Database::~Database() {
  // Stop maintenance before the catalog is torn down: no job may touch a
  // store while the database destructs.
  if (maintenance_ != nullptr) maintenance_->Stop();
  // Then the replication machinery: the applier writes into the catalog and
  // the relay reads the log, so both must be quiet before teardown.
  if (applier_ != nullptr) applier_->Stop();
  if (relay_ != nullptr) relay_->Stop();
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (repl_log_ != nullptr) {
    NotePrimaryAppliedLocked(primary_applied_seq_, /*force=*/true);
  }
}

Status Database::ApplySetting(const std::string& name, double value) {
  // Membership first: a name outside the X-macro catalog is rejected before
  // any handler can see it, so a knob cannot be handled without being
  // listed. Every rejection names the valid knobs, and fires before any
  // state is touched — a bad SET never half-applies.
  if (!IsKnownSetKnob(name)) {
    return Status::InvalidArgument("unknown setting '" + name +
                                   "'; valid knobs: " + kValidSetKnobs);
  }
  const bool allows_zero =
      name == "durable_fsync" || name.rfind("faultfs_", 0) == 0 ||
      name == "trace_sample_every" || name == "slow_query_millis" ||
      name == "idle_timeout_ms" || name == "max_staleness_ms" ||
      name == "repl_listen_port";
  if ((allows_zero ? !(value >= 0) : !(value > 0)) ||
      value != std::floor(value) || !std::isfinite(value)) {
    return Status::InvalidArgument(
        "setting '" + name + "' requires a " +
        (allows_zero ? "non-negative" : "positive") +
        " integer; valid knobs: " + kValidSetKnobs);
  }
  if (name == "durable_fsync") {
    const bool durable = value != 0;
    durable_fsync_.store(durable, std::memory_order_relaxed);
    for (auto& [series_name, store] : ListStoresForMaintenance()) {
      store->set_durable_fsync(durable);
    }
    std::lock_guard<std::mutex> lock(repl_mutex_);
    if (repl_log_ != nullptr) repl_log_->set_durable(durable);
    return Status::OK();
  }
  if (name.rfind("faultfs_", 0) == 0) {
    // Strips the prefix and forwards to the fault-injection env. The
    // membership check above already guarantees the field name is known.
    return SetFaultKnob(name.substr(8), static_cast<uint64_t>(value));
  }
  if (name == "read_tolerance") {
    return Status::InvalidArgument(
        "setting 'read_tolerance' takes a word (degrade or strict); "
        "valid knobs: " +
        std::string(kValidSetKnobs));
  }
  if (name == "replica_of") {
    return Status::InvalidArgument(
        "setting 'replica_of' takes 'host:port' or off; valid knobs: " +
        std::string(kValidSetKnobs));
  }
  if (name == "idle_timeout_ms") {
    idle_timeout_ms_.store(static_cast<int64_t>(value),
                           std::memory_order_relaxed);
    return Status::OK();
  }
  if (name == "max_staleness_ms") {
    max_staleness_ms_.store(static_cast<int64_t>(value),
                            std::memory_order_relaxed);
    return Status::OK();
  }
  if (name == "repl_listen_port") {
    if (value > 65535) {
      return Status::InvalidArgument("repl_listen_port must be <= 65535");
    }
    return value == 0 ? DisablePrimary()
                      : EnablePrimary(static_cast<int>(value));
  }
  if (name == "parallelism") {
    query_parallelism_.store(static_cast<int>(value),
                             std::memory_order_relaxed);
    return Status::OK();
  }
  if (name == "page_cache_bytes") {
    SharedPageCache::Instance().set_capacity_bytes(
        static_cast<size_t>(value));
    return Status::OK();
  }
  if (name == "result_cache_capacity") {
    result_cache_.set_capacity(static_cast<size_t>(value));
    return Status::OK();
  }
  if (name == "catalog_shards") {
    // Process-wide default, consumed at the next Database::Open; the live
    // catalog keeps its shard count (it cannot re-hash under lookups).
    SetDefaultCatalogShards(static_cast<size_t>(value));
    return Status::OK();
  }
  if (name == "autoflush_bytes") {
    maintenance_->set_memtable_flush_bytes(static_cast<size_t>(value));
    return Status::OK();
  }
  if (name == "compaction_files") {
    maintenance_->set_compaction_files(static_cast<size_t>(value));
    return Status::OK();
  }
  if (name == "ttl_ms") {
    maintenance_->set_ttl(static_cast<int64_t>(value));
    return Status::OK();
  }
  if (name == "max_connections") {
    max_connections_.store(static_cast<int>(value), std::memory_order_relaxed);
    return Status::OK();
  }
  if (name == "listen_backlog") {
    listen_backlog_.store(static_cast<int>(value), std::memory_order_relaxed);
    return Status::OK();
  }
  if (name == "trace_sample_every") {
    obs::FlightRecorder::Instance().set_trace_sample_every(
        static_cast<uint64_t>(value));
    return Status::OK();
  }
  if (name == "slow_query_millis") {
    obs::FlightRecorder::Instance().set_slow_query_millis(value);
    return Status::OK();
  }
  if (name == "recorder_capacity_bytes") {
    obs::FlightRecorder::Instance().set_capacity_bytes(
        static_cast<size_t>(value));
    return Status::OK();
  }
  if (name == "partition_interval_ms") {
    // Applies to series created after this point; an existing series keeps
    // the interval pinned in its partition.meta manifest.
    partition_interval_ms_.store(static_cast<int64_t>(value),
                                 std::memory_order_relaxed);
    return Status::OK();
  }
  // Listed in TSVIZ_SET_KNOBS but not handled above — the drift test
  // exercises every listed knob, so this cannot ship silently.
  return Status::Internal("setting '" + name +
                          "' is listed but has no handler");
}

Status Database::ApplySetting(const std::string& name,
                              const std::string& value) {
  if (name == "read_tolerance") {
    ReadTolerance tolerance;
    Status status = ParseReadTolerance(value, &tolerance);
    if (!status.ok()) {
      return Status::InvalidArgument(
          "setting 'read_tolerance' accepts degrade or strict, got '" +
          value + "'; valid knobs: " + kValidSetKnobs);
    }
    SetReadTolerance(tolerance);
    return Status::OK();
  }
  if (name == "replica_of") {
    if (value == "off" || value == "none") {
      return DisableReplica();
    }
    const size_t colon = value.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= value.size()) {
      return Status::InvalidArgument(
          "setting 'replica_of' accepts 'host:port' or off, got '" + value +
          "'");
    }
    int port = 0;
    for (size_t i = colon + 1; i < value.size(); ++i) {
      char c = value[i];
      if (c < '0' || c > '9' || port > 65535) {
        return Status::InvalidArgument(
            "setting 'replica_of' has a bad port in '" + value + "'");
      }
      port = port * 10 + (c - '0');
    }
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument(
          "setting 'replica_of' has a bad port in '" + value + "'");
    }
    return EnableReplica(value.substr(0, colon), port);
  }
  return Status::InvalidArgument(
      "setting '" + name + "' does not take a word value; valid knobs: " +
      kValidSetKnobs);
}

StoreConfig Database::CurrentSeriesDefaults() const {
  StoreConfig store_config = config_.series_defaults;
  store_config.partition_interval_ms =
      partition_interval_ms_.load(std::memory_order_relaxed);
  store_config.durable_fsync =
      durable_fsync_.load(std::memory_order_relaxed);
  return store_config;
}

Status Database::Discover() {
  for (const auto& entry : fs::directory_iterator(config_.root_dir)) {
    if (!entry.is_directory()) continue;
    std::string name = entry.path().filename().string();
    if (!IsValidSeriesName(name)) continue;
    // root/repl holds replication state (log, watermarks), not a series.
    if (name == "repl") continue;
    StoreConfig store_config = CurrentSeriesDefaults();
    store_config.data_dir = entry.path().string();
    TSVIZ_ASSIGN_OR_RETURN(std::unique_ptr<TsStore> store,
                           TsStore::Open(std::move(store_config)));
    catalog_.Insert(name, std::move(store));
  }
  return Status::OK();
}

Result<TsStore*> Database::GetOrCreateSeries(const std::string& name) {
  if (!IsValidSeriesName(name)) {
    return Status::InvalidArgument("invalid series name: " + name);
  }
  // The replication state directory lives at root/repl; a series by that
  // name would share its directory (and a resync wipe would destroy the
  // follower's watermark), so the name is reserved.
  if (name == "repl") {
    return Status::InvalidArgument(
        "series name 'repl' is reserved for replication state");
  }
  TSVIZ_ASSIGN_OR_RETURN(
      std::shared_ptr<TsStore> store,
      catalog_.FindOrCreate(name, [this, &name] {
        StoreConfig store_config = CurrentSeriesDefaults();
        store_config.data_dir = config_.root_dir + "/" + name;
        return TsStore::Open(std::move(store_config));
      }));
  // The raw pointer stays valid until DropSeries: the catalog keeps its own
  // shared_ptr reference — same contract as before sharding.
  return store.get();
}

Result<TsStore*> Database::GetSeries(const std::string& name) {
  std::shared_ptr<TsStore> store = catalog_.Find(name);
  if (store == nullptr) {
    return Status::NotFound("no such series: " + name);
  }
  return store.get();
}

Result<std::shared_ptr<TsStore>> Database::GetSeriesShared(
    const std::string& name) {
  std::shared_ptr<TsStore> store = catalog_.Find(name);
  if (store == nullptr) {
    return Status::NotFound("no such series: " + name);
  }
  return store;
}

std::vector<std::string> Database::ListSeries() const {
  return catalog_.ListNames();
}

std::vector<std::pair<std::string, std::shared_ptr<TsStore>>>
Database::ListStoresForMaintenance() {
  return catalog_.ListAll();
}

size_t Database::NumMaintenanceShards() const {
  return catalog_.num_shards();
}

std::vector<std::pair<std::string, std::shared_ptr<TsStore>>>
Database::ListShardStoresForMaintenance(size_t shard) {
  return catalog_.ListShard(shard);
}

Status Database::DropSeriesLocal(const std::string& name) {
  std::shared_ptr<TsStore> store = catalog_.Remove(name);
  if (store == nullptr) {
    return Status::NotFound("no such series: " + name);
  }
  // The catalog no longer hands the series out, so no new maintenance job
  // can pick it up. Wait out any job already running against the store,
  // then release the last reference so its files close before the
  // directory is removed.
  if (maintenance_ != nullptr) maintenance_->Quiesce(name);
  result_cache_.EraseStore(StoreView(*store).store_id());
  store.reset();
  std::error_code ec;
  fs::remove_all(config_.root_dir + "/" + name, ec);
  if (ec) {
    return Status::IoError("cannot remove series " + name + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status Database::DropSeries(const std::string& name) {
  if (IsReplica()) {
    return Status::Unavailable(
        "read-only replica: writes must go to the primary");
  }
  if (replication_role() == ReplicationRole::kPrimary) {
    // Validate before logging so a drop of a missing series is an error to
    // the client instead of a poison record in the log.
    if (catalog_.Find(name) == nullptr) {
      return Status::NotFound("no such series: " + name);
    }
    return PrimaryMutate(repl::ReplOp::kDropSeries, name, std::string(),
                         [&] { return DropSeriesLocal(name); });
  }
  return DropSeriesLocal(name);
}

Status Database::FlushAll() {
  for (auto& [name, store] : ListStoresForMaintenance()) {
    TSVIZ_RETURN_IF_ERROR(store->Flush());
  }
  return Status::OK();
}

Status Database::CompactAll() {
  for (auto& [name, store] : ListStoresForMaintenance()) {
    TSVIZ_RETURN_IF_ERROR(store->Compact());
  }
  return Status::OK();
}

Status Database::WriteBatchLocal(const std::string& series,
                                 const std::vector<Point>& points) {
  TSVIZ_ASSIGN_OR_RETURN(TsStore * store, GetOrCreateSeries(series));
  return store->WriteBatch(points);
}

Status Database::DeleteRangeLocal(const std::string& series,
                                  const TimeRange& range) {
  TSVIZ_ASSIGN_OR_RETURN(TsStore * store, GetSeries(series));
  return store->DeleteRange(range);
}

Status Database::Write(const std::string& series, Timestamp t, Value v) {
  if (IsReplica()) {
    return Status::Unavailable(
        "read-only replica: writes must go to the primary");
  }
  if (replication_role() == ReplicationRole::kPrimary) {
    // Validate everything the local apply would reject BEFORE logging, so
    // the log never carries a record that deterministically fails — the
    // follower applies the same checks.
    if (!IsValidSeriesName(series) || series == "repl") {
      return Status::InvalidArgument("invalid series name: " + series);
    }
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("value must be finite");
    }
    Point p;
    p.t = t;
    p.v = v;
    const std::vector<Point> points = {p};
    return PrimaryMutate(repl::ReplOp::kPutBatch, series,
                         repl::EncodePointsPayload(points),
                         [&] { return WriteBatchLocal(series, points); });
  }
  TSVIZ_ASSIGN_OR_RETURN(TsStore * store, GetOrCreateSeries(series));
  return store->Write(t, v);
}

Status Database::WriteBatch(const std::string& series,
                            const std::vector<Point>& points) {
  if (IsReplica()) {
    return Status::Unavailable(
        "read-only replica: writes must go to the primary");
  }
  if (replication_role() == ReplicationRole::kPrimary) {
    if (points.empty()) return Status::OK();
    if (!IsValidSeriesName(series) || series == "repl") {
      return Status::InvalidArgument("invalid series name: " + series);
    }
    for (const Point& p : points) {
      if (!std::isfinite(p.v)) {
        return Status::InvalidArgument("value must be finite");
      }
    }
    return PrimaryMutate(repl::ReplOp::kPutBatch, series,
                         repl::EncodePointsPayload(points),
                         [&] { return WriteBatchLocal(series, points); });
  }
  return WriteBatchLocal(series, points);
}

Status Database::DeleteRange(const std::string& series,
                             const TimeRange& range) {
  if (IsReplica()) {
    return Status::Unavailable(
        "read-only replica: writes must go to the primary");
  }
  if (replication_role() == ReplicationRole::kPrimary) {
    if (catalog_.Find(series) == nullptr) {
      return Status::NotFound("no such series: " + series);
    }
    return PrimaryMutate(repl::ReplOp::kDeleteRange, series,
                         repl::EncodeRangePayload(range),
                         [&] { return DeleteRangeLocal(series, range); });
  }
  return DeleteRangeLocal(series, range);
}

// --- Replication -----------------------------------------------------------

const char* ReplicationRoleName(ReplicationRole role) {
  switch (role) {
    case ReplicationRole::kStandalone:
      return "STANDALONE";
    case ReplicationRole::kPrimary:
      return "PRIMARY";
    case ReplicationRole::kReplica:
      return "REPLICA";
  }
  return "UNKNOWN";
}

Status Database::PrimaryMutate(repl::ReplOp op, const std::string& series,
                               std::string payload,
                               const std::function<Status()>& apply) {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ != ReplicationRole::kPrimary || repl_log_ == nullptr) {
    // Raced with DisablePrimary: fall back to the standalone path.
    return apply();
  }
  uint64_t seq = 0;
  TSVIZ_RETURN_IF_ERROR(repl_log_->Append(op, series, std::move(payload),
                                          &seq));
  // A crash here leaves the record logged but unapplied; EnablePrimary on
  // the restarted process replays past the applied watermark.
  TSVIZ_CRASHPOINT("repl.log.after_append");
  TSVIZ_RETURN_IF_ERROR(apply());
  NotePrimaryAppliedLocked(seq, /*force=*/false);
  return Status::OK();
}

void Database::NotePrimaryAppliedLocked(uint64_t seq, bool force) {
  // Only a dense prefix counts as applied: if seq N's local apply failed
  // (injected I/O error) while N+1 succeeded, the watermark must stay at
  // N-1 so a restart replays N — otherwise a record every follower applied
  // would be missing from the primary forever.
  if (seq != primary_applied_seq_ + 1 && !force) {
    if (seq <= primary_applied_seq_) return;
    // Gap below seq: keep the watermark at the prefix end; still honor a
    // forced persistence of the current value.
    seq = primary_applied_seq_;
  } else if (seq > primary_applied_seq_) {
    primary_applied_seq_ = seq;
  } else {
    seq = primary_applied_seq_;
  }
  // Lazy persistence: the watermark may trail the truth by up to the
  // stride, which only costs re-applying that many records on restart —
  // every logged op is effect-idempotent.
  constexpr uint64_t kPersistStride = 16;
  if (!force && seq < primary_persisted_seq_ + kPersistStride) return;
  std::string content = std::to_string(seq) + "\n";
  if (WriteFileAtomic(ReplDir() + "/applied", content,
                      durable_fsync_.load(std::memory_order_relaxed))
          .ok()) {
    primary_persisted_seq_ = seq;
  }
}

Status Database::ApplyLoggedRecord(const repl::ReplRecord& record) {
  switch (record.op) {
    case repl::ReplOp::kPutBatch: {
      TSVIZ_ASSIGN_OR_RETURN(std::vector<Point> points,
                             repl::DecodePointsPayload(record.payload));
      return WriteBatchLocal(record.series, points);
    }
    case repl::ReplOp::kDeleteRange: {
      TSVIZ_ASSIGN_OR_RETURN(TimeRange range,
                             repl::DecodeRangePayload(record.payload));
      Status status = DeleteRangeLocal(record.series, range);
      if (status.code() == StatusCode::kNotFound) return Status::OK();
      return status;
    }
    case repl::ReplOp::kDropSeries: {
      Status status = DropSeriesLocal(record.series);
      if (status.code() == StatusCode::kNotFound) return Status::OK();
      return status;
    }
  }
  return Status::Corruption("repl record has unknown op");
}

Status Database::EnablePrimary(int port) {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ == ReplicationRole::kReplica) {
    return Status::InvalidArgument(
        "this database is a replica; SET replica_of = off first");
  }
  std::error_code ec;
  fs::create_directories(ReplDir(), ec);
  if (ec) {
    return Status::IoError("cannot create " + ReplDir() + ": " +
                           ec.message());
  }
  const bool durable = durable_fsync_.load(std::memory_order_relaxed);
  if (repl_log_ == nullptr) {
    TSVIZ_ASSIGN_OR_RETURN(repl_log_,
                           repl::ReplLog::Open(ReplDir() + "/log", durable));
    const uint64_t last = repl_log_->last_seq();
    if (last == 0) {
      // First enable. Pre-existing data was written before the log existed,
      // so followers could never replay it — synthesize a baseline: flush
      // everything, then log one put batch per series from the merged
      // on-disk state (WAL-replay-only bootstrap).
      for (auto& [series_name, store] : ListStoresForMaintenance()) {
        TSVIZ_RETURN_IF_ERROR(store->Flush());
        TSVIZ_ASSIGN_OR_RETURN(
            std::vector<Point> points,
            ReadMergedSeries(store->CurrentView(),
                             TimeRange(kMinTimestamp, kMaxTimestamp),
                             nullptr));
        // Chunked so one giant series does not become one giant record.
        constexpr size_t kBaselineChunk = 4096;
        for (size_t i = 0; i < points.size(); i += kBaselineChunk) {
          std::vector<Point> chunk(
              points.begin() + static_cast<ptrdiff_t>(i),
              points.begin() +
                  static_cast<ptrdiff_t>(
                      std::min(points.size(), i + kBaselineChunk)));
          TSVIZ_RETURN_IF_ERROR(repl_log_->Append(
              repl::ReplOp::kPutBatch, series_name,
              repl::EncodePointsPayload(chunk), nullptr));
        }
      }
      primary_applied_seq_ = repl_log_->last_seq();
      NotePrimaryAppliedLocked(primary_applied_seq_, /*force=*/true);
    } else {
      // Restarted primary: records past the durable applied watermark were
      // logged but possibly never applied (crash at repl.log.after_append).
      // Re-apply them; over-replay is harmless (effect-idempotent).
      uint64_t applied = 0;
      if (auto read = GetEnv()->ReadFileToString(ReplDir() + "/applied");
          read.ok()) {
        applied = std::strtoull(read->c_str(), nullptr, 10);
      }
      if (applied > last) applied = last;
      uint64_t next = applied + 1;
      while (next <= last) {
        TSVIZ_ASSIGN_OR_RETURN(std::vector<repl::ReplRecord> records,
                               repl_log_->Read(next, 64));
        if (records.empty()) break;
        for (const repl::ReplRecord& record : records) {
          TSVIZ_RETURN_IF_ERROR(ApplyLoggedRecord(record));
          next = record.seq + 1;
        }
      }
      primary_applied_seq_ = last;
      NotePrimaryAppliedLocked(last, /*force=*/true);
    }
  }
  if (relay_ != nullptr) relay_->Stop();
  repl::RelayOptions relay_options;
  relay_options.port = port;
  relay_options.listen_backlog =
      listen_backlog_.load(std::memory_order_relaxed);
  auto relay = std::make_unique<repl::Relay>(repl_log_.get(), relay_options);
  TSVIZ_RETURN_IF_ERROR(relay->Start());
  relay_ = std::move(relay);
  role_ = ReplicationRole::kPrimary;
  role_cached_.store(static_cast<int>(role_), std::memory_order_relaxed);
  SubmitReplHeartbeatLocked();
  return Status::OK();
}

Status Database::DisablePrimary() {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ != ReplicationRole::kPrimary) return Status::OK();
  if (relay_ != nullptr) {
    relay_->Stop();
    relay_.reset();
  }
  NotePrimaryAppliedLocked(primary_applied_seq_, /*force=*/true);
  // The log stays on disk (and open): re-enabling resumes the same
  // sequence, and followers resume from their watermarks.
  role_ = ReplicationRole::kStandalone;
  role_cached_.store(static_cast<int>(role_), std::memory_order_relaxed);
  return Status::OK();
}

Status Database::EnableReplica(const std::string& host, int port) {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ == ReplicationRole::kPrimary) {
    return Status::InvalidArgument(
        "this database is a primary; SET repl_listen_port = 0 first");
  }
  std::error_code ec;
  fs::create_directories(ReplDir(), ec);
  if (ec) {
    return Status::IoError("cannot create " + ReplDir() + ": " +
                           ec.message());
  }
  if (applier_ != nullptr) applier_->Stop();
  repl::ApplierOptions options;
  options.host = host;
  options.port = port;
  options.watermark_path = ReplDir() + "/watermark";
  options.durable = durable_fsync_.load(std::memory_order_relaxed);
  // Flip the role before the applier starts so no client write can slip
  // between the applier's first apply and the rejection gate.
  role_ = ReplicationRole::kReplica;
  role_cached_.store(static_cast<int>(role_), std::memory_order_relaxed);
  applier_ = std::make_unique<repl::Applier>(this, options);
  if (Status status = applier_->Start(); !status.ok()) {
    applier_.reset();
    role_ = ReplicationRole::kStandalone;
    role_cached_.store(static_cast<int>(role_), std::memory_order_relaxed);
    return status;
  }
  SubmitReplHeartbeatLocked();
  return Status::OK();
}

Status Database::DisableReplica() {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ != ReplicationRole::kReplica) return Status::OK();
  if (applier_ != nullptr) {
    applier_->Stop();
    applier_.reset();
  }
  // Local data is kept: the database detaches with whatever prefix of the
  // primary's history it had applied.
  role_ = ReplicationRole::kStandalone;
  role_cached_.store(static_cast<int>(role_), std::memory_order_relaxed);
  return Status::OK();
}

void Database::SubmitReplHeartbeatLocked() {
  // One periodic job per Database lifetime: refreshes the lag gauge even
  // while the applier is blocked in backoff, so `repl_lag_ms` keeps growing
  // during an outage. Visible in SHOW JOBS like any other periodic job.
  if (heartbeat_submitted_ || maintenance_ == nullptr) return;
  heartbeat_submitted_ = true;
  maintenance_->scheduler().SubmitPeriodic(
      "repl", "repl_heartbeat", std::chrono::milliseconds(250), [this] {
        static obs::Gauge& lag =
            obs::GetGauge("repl_lag_ms",
                          "Follower staleness (ms since last fully "
                          "caught up)");
        lag.Set(static_cast<double>(replication_lag_ms()));
        return Status::OK();
      });
}

int64_t Database::replication_lag_ms() const {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ != ReplicationRole::kReplica || applier_ == nullptr) return 0;
  return applier_->lag_ms();
}

int Database::repl_port() const {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  return relay_ != nullptr ? relay_->port() : 0;
}

Status Database::CheckReplicaRead() const {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  if (role_ != ReplicationRole::kReplica || applier_ == nullptr) {
    return Status::OK();
  }
  if (applier_->state() == repl::ApplierState::kSyncing) {
    return Status::Unavailable(
        "replica is resyncing after divergence; retry later or query the "
        "primary");
  }
  const int64_t bound = max_staleness_ms_.load(std::memory_order_relaxed);
  if (bound > 0) {
    const int64_t lag = applier_->lag_ms();
    if (lag > bound) {
      return Status::Unavailable(
          "replica lag " + std::to_string(lag) +
          "ms exceeds max_staleness_ms=" + std::to_string(bound) +
          "; retry later or query the primary");
    }
  }
  return Status::OK();
}

ReplicationStatus Database::replication_status() const {
  std::lock_guard<std::mutex> lock(repl_mutex_);
  ReplicationStatus status;
  status.role = role_;
  switch (role_) {
    case ReplicationRole::kStandalone:
      status.state = "IDLE";
      break;
    case ReplicationRole::kPrimary:
      status.state = "SERVING";
      status.listen_port = relay_ != nullptr ? relay_->port() : 0;
      status.last_seq = repl_log_ != nullptr ? repl_log_->last_seq() : 0;
      status.divergences =
          relay_ != nullptr ? relay_->divergences_reported() : 0;
      break;
    case ReplicationRole::kReplica:
      if (applier_ != nullptr) {
        status.state = repl::ApplierStateName(applier_->state());
        status.primary = applier_->primary_address();
        status.last_seq = applier_->applied_seq();
        status.primary_seq = applier_->observed_primary_seq();
        status.lag_ms = applier_->lag_ms();
        status.reconnects = applier_->reconnects();
        status.divergences = applier_->divergences();
      }
      break;
  }
  return status;
}

Status Database::ApplyPutBatch(const std::string& series,
                               const std::vector<Point>& points) {
  return WriteBatchLocal(series, points);
}

Status Database::ApplyDeleteRange(const std::string& series,
                                  const TimeRange& range) {
  Status status = DeleteRangeLocal(series, range);
  // Deleting from a series this follower never materialized is a no-op,
  // not an error — idempotent replay must converge.
  if (status.code() == StatusCode::kNotFound) return Status::OK();
  return status;
}

Status Database::ApplyDropSeries(const std::string& series) {
  Status status = DropSeriesLocal(series);
  if (status.code() == StatusCode::kNotFound) return Status::OK();
  return status;
}

Status Database::WipeForResync() {
  for (const std::string& name : ListSeries()) {
    Status status = DropSeriesLocal(name);
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      return status;
    }
  }
  return Status::OK();
}

Result<M4Result> Database::QueryM4(const std::string& series,
                                   const M4Query& query, QueryStats* stats,
                                   const M4LsmOptions& options) {
  TSVIZ_ASSIGN_OR_RETURN(TsStore * store, GetSeries(series));
  // Under read_tolerance=degrade a corrupt chunk discovered mid-read is
  // quarantined and the query retried over the surviving chunks.
  std::optional<Result<M4Result>> result;
  Status status = RunWithReadTolerance([&]() {
    result.emplace(RunM4Lsm(*store, query, stats, options));
    return result->ok() ? Status::OK() : result->status();
  });
  if (!status.ok()) return status;
  return std::move(*result);
}

}  // namespace tsviz
