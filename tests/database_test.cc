#include "db/database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "obs/recorder.h"
#include "sql/executor.h"
#include "storage/page_cache.h"
#include "storage/quarantine.h"
#include "test_util.h"

namespace tsviz {
namespace {

DatabaseConfig TestConfig(const std::string& root) {
  DatabaseConfig config;
  config.root_dir = root;
  config.series_defaults.points_per_chunk = 50;
  config.series_defaults.memtable_flush_threshold = 50;
  return config;
}

TEST(SeriesNameTest, Validation) {
  EXPECT_TRUE(IsValidSeriesName("root.sg1.d1.s1"));
  EXPECT_TRUE(IsValidSeriesName("sensor_42-b"));
  EXPECT_FALSE(IsValidSeriesName(""));
  EXPECT_FALSE(IsValidSeriesName("has space"));
  EXPECT_FALSE(IsValidSeriesName("slash/attack"));
  EXPECT_FALSE(IsValidSeriesName(".."));
  EXPECT_FALSE(IsValidSeriesName(std::string(200, 'a')));
}

TEST(DatabaseTest, OpenRequiresRoot) {
  EXPECT_EQ(Database::Open(DatabaseConfig{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, CreateListAndIsolateSeries) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  EXPECT_TRUE(db->ListSeries().empty());

  ASSERT_OK(db->Write("temp", 10, 21.5));
  ASSERT_OK(db->Write("pressure", 10, 1013.0));
  ASSERT_OK(db->Write("temp", 20, 22.0));
  EXPECT_EQ(db->ListSeries(), (std::vector<std::string>{"pressure", "temp"}));

  ASSERT_OK(db->FlushAll());
  ASSERT_OK_AND_ASSIGN(TsStore * temp, db->GetSeries("temp"));
  ASSERT_OK_AND_ASSIGN(TsStore * pressure, db->GetSeries("pressure"));
  EXPECT_EQ(temp->TotalStoredPoints(), 2u);
  EXPECT_EQ(pressure->TotalStoredPoints(), 1u);
}

TEST(DatabaseTest, RejectsBadNames) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  EXPECT_EQ(db->Write("../escape", 1, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->GetOrCreateSeries("a/b").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, GetMissingSeriesIsNotFound) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  EXPECT_EQ(db->GetSeries("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db->DeleteRange("ghost", TimeRange(0, 1)).code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, DiscoveryOnReopen) {
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(TestConfig(dir.path())));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(db->Write("engine.rpm", i * 10, i * 1.0));
    }
    ASSERT_OK(db->FlushAll());
    ASSERT_OK(db->DeleteRange("engine.rpm", TimeRange(0, 95)));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  EXPECT_EQ(db->ListSeries(), (std::vector<std::string>{"engine.rpm"}));
  ASSERT_OK_AND_ASSIGN(TsStore * store, db->GetSeries("engine.rpm"));
  EXPECT_EQ(store->deletes().size(), 1u);
  EXPECT_EQ(store->TotalStoredPoints(), 100u);
}

TEST(DatabaseTest, DropSeriesRemovesData) {
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(TestConfig(dir.path())));
    ASSERT_OK(db->Write("doomed", 1, 1.0));
    ASSERT_OK(db->FlushAll());
    ASSERT_OK(db->DropSeries("doomed"));
    EXPECT_TRUE(db->ListSeries().empty());
    EXPECT_EQ(db->DropSeries("doomed").code(), StatusCode::kNotFound);
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  EXPECT_TRUE(db->ListSeries().empty());
}

TEST(DatabaseTest, ApplySettingRejectsUnknownKnobsListingValidOnes) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  Status status = db->ApplySetting("autoflush_byts", 1024);  // typo
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The error names the offender and enumerates every valid knob.
  EXPECT_NE(status.ToString().find("autoflush_byts"), std::string::npos);
  for (const char* knob :
       {"autoflush_bytes", "compaction_files", "page_cache_bytes",
        "parallelism", "partition_interval_ms", "result_cache_capacity",
        "ttl_ms"}) {
    EXPECT_NE(status.ToString().find(knob), std::string::npos) << knob;
    EXPECT_OK(db->ApplySetting(knob, 1));
    // Zero, negative, and fractional values are all rejected, and the
    // error repeats the knob catalog.
    for (double bad : {0.0, -1.0, 1.5}) {
      Status rejected = db->ApplySetting(knob, bad);
      EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
          << knob << " = " << bad;
      EXPECT_NE(rejected.ToString().find("valid knobs"), std::string::npos);
    }
  }
}

TEST(DatabaseTest, DurabilityAndToleranceKnobs) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  ASSERT_OK(db->Write("s", 1, 1.0));
  ASSERT_OK_AND_ASSIGN(TsStore * existing, db->GetSeries("s"));
  // durable_fsync accepts 0 (off) and reaches both the open store and the
  // defaults new series inherit.
  ASSERT_OK(db->ApplySetting("durable_fsync", 0));
  EXPECT_FALSE(existing->durable_fsync());
  ASSERT_OK(db->Write("s2", 1, 1.0));
  ASSERT_OK_AND_ASSIGN(TsStore * created, db->GetSeries("s2"));
  EXPECT_FALSE(created->durable_fsync());
  ASSERT_OK(db->ApplySetting("durable_fsync", 1));
  EXPECT_TRUE(existing->durable_fsync());
  EXPECT_FALSE(db->ApplySetting("durable_fsync", -1).ok());
  // faultfs_* knobs accept 0 and reject unknown field names.
  ASSERT_OK(db->ApplySetting("faultfs_eio_every", 0));
  Status status = db->ApplySetting("faultfs_nope", 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
  // read_tolerance is word-valued: numbers are rejected, words apply.
  status = db->ApplySetting("read_tolerance", 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
  ASSERT_OK(db->ApplySetting("read_tolerance", std::string("strict")));
  EXPECT_EQ(GetReadTolerance(), ReadTolerance::kStrict);
  ASSERT_OK(db->ApplySetting("read_tolerance", std::string("degrade")));
  EXPECT_EQ(GetReadTolerance(), ReadTolerance::kDegrade);
  status = db->ApplySetting("ttl_ms", std::string("forever"));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
}

TEST(DatabaseTest, PartitionIntervalSettingAppliesToNewSeries) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  ASSERT_OK(db->Write("flat", 1, 1.0));
  ASSERT_OK(db->ApplySetting("partition_interval_ms", 1000));
  EXPECT_EQ(db->partition_interval_ms(), 1000);
  ASSERT_OK(db->Write("parted", 2500, 1.0));
  ASSERT_OK_AND_ASSIGN(TsStore * flat, db->GetSeries("flat"));
  ASSERT_OK_AND_ASSIGN(TsStore * parted, db->GetSeries("parted"));
  // Existing series keep their layout; new ones pick up the interval.
  EXPECT_EQ(flat->partition_interval(), 0);
  EXPECT_EQ(parted->partition_interval(), 1000);
  ASSERT_OK(parted->Flush());
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/parted/p2"));
}

TEST(DatabaseTest, SettingsReachTheMaintenancePolicy) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  ASSERT_OK(db->ApplySetting("autoflush_bytes", 4096));
  ASSERT_OK(db->ApplySetting("compaction_files", 5));
  ASSERT_OK(db->ApplySetting("ttl_ms", 86400000));
  EXPECT_EQ(db->maintenance().memtable_flush_bytes(), 4096u);
  EXPECT_EQ(db->maintenance().compaction_files(), 5u);
  EXPECT_EQ(db->maintenance().ttl(), 86400000);
}

// Drift protection for the knob catalog. The TSVIZ_SET_KNOBS X-macro is the
// single source of truth: every name it lists must be accepted by
// ApplySetting (a knob listed but missing its handler falls through to
// kInternal and fails here), and the error-message catalog must be exactly
// the ", "-join of the name table. The inverse drift — a knob handled in
// ApplySetting but absent from the list — is impossible by construction,
// because membership is checked before any handler runs.
TEST(DatabaseTest, KnobCatalogHasNoDrift) {
  // Several knobs mutate process-wide state; snapshot it for restoration so
  // this test leaves no residue in later tests (faultfs_* especially: an
  // eio_every=1 left armed would fail every subsequent I/O in the binary).
  size_t shards_before = DefaultCatalogShards();
  size_t page_cache_before = SharedPageCache::Instance().capacity_bytes();
  ReadTolerance tolerance_before = GetReadTolerance();
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  uint64_t sample_before = recorder.trace_sample_every();
  double slow_before = recorder.slow_query_millis();

  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  for (size_t i = 0; i < kNumSetKnobs; ++i) {
    std::string knob = kSetKnobNames[i];
    // Word-valued and role-changing knobs get their no-op spellings:
    // read_tolerance takes a word, replica_of = off and
    // repl_listen_port = 0 disable roles that were never enabled (binding
    // a relay port or dialing a primary is replication's own test's job).
    Status status;
    if (knob == "read_tolerance") {
      status = db->ApplySetting(knob, std::string("degrade"));
    } else if (knob == "replica_of") {
      status = db->ApplySetting(knob, std::string("off"));
    } else if (knob == "repl_listen_port") {
      status = db->ApplySetting(knob, 0);
    } else {
      status = db->ApplySetting(knob, 1);
    }
    EXPECT_TRUE(status.ok()) << knob << ": " << status.ToString();
  }

  std::string joined;
  for (size_t i = 0; i < kNumSetKnobs; ++i) {
    if (i) joined += ", ";
    joined += kSetKnobNames[i];
  }
  EXPECT_EQ(std::string(kValidSetKnobs), joined);

  // Restore process-wide state.
  for (const char* knob :
       {"faultfs_seed", "faultfs_eio_every", "faultfs_short_read_every",
        "faultfs_torn_append_every", "faultfs_fsync_fail_every"}) {
    ASSERT_OK(db->ApplySetting(knob, 0));
  }
  SetDefaultCatalogShards(shards_before);
  SharedPageCache::Instance().set_capacity_bytes(page_cache_before);
  SetReadTolerance(tolerance_before);
  recorder.set_trace_sample_every(sample_before);
  recorder.set_slow_query_millis(slow_before);
  recorder.set_capacity_bytes(obs::FlightRecorder::kDefaultCapacityBytes);
}

TEST(DatabaseTest, QueryM4PerSeries) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db->Write("a", i, i * 1.0));
    ASSERT_OK(db->Write("b", i, -i * 1.0));
  }
  ASSERT_OK(db->FlushAll());

  M4Query query{0, 100, 4};
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(M4Result a_rows, db->QueryM4("a", query, &stats));
  ASSERT_OK_AND_ASSIGN(M4Result b_rows, db->QueryM4("b", query, nullptr));
  ASSERT_EQ(a_rows.size(), 4u);
  EXPECT_EQ(a_rows[0].top.v, 24.0);
  EXPECT_EQ(b_rows[0].bottom.v, -24.0);
  EXPECT_EQ(db->QueryM4("c", query, nullptr).status().code(),
            StatusCode::kNotFound);
}

// A dropped series' store can be freed and a re-created one allocated at
// the same address with a restarted state version: a cached SELECT must
// never serve the dropped store's results.
TEST(DatabaseTest, CachedSelectAfterDropAndRecreateSeesNewData) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  const M4Query query{0, 100, 4};
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(db->Write("s", i, round * (i % 7) - i));
    }
    ASSERT_OK(db->FlushAll());
    ASSERT_OK_AND_ASSIGN(
        sql::ResultSet cached,
        sql::ExecuteQuery(db.get(),
                          "SELECT M4(v) FROM s WHERE time >= 0 AND "
                          "time < 100 GROUP BY SPANS(4)"));
    ASSERT_OK_AND_ASSIGN(M4Result direct, db->QueryM4("s", query, nullptr));
    ASSERT_EQ(cached.num_rows(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      const std::vector<sql::ResultSet::Cell>& row = cached.rows()[i];
      SCOPED_TRACE("round " + std::to_string(round) + " span " +
                   std::to_string(i));
      EXPECT_EQ(row[1], sql::ResultSet::Cell(direct[i].first.t));
      EXPECT_EQ(row[2], sql::ResultSet::Cell(direct[i].first.v));
      EXPECT_EQ(row[3], sql::ResultSet::Cell(direct[i].last.t));
      EXPECT_EQ(row[4], sql::ResultSet::Cell(direct[i].last.v));
      EXPECT_EQ(row[5], sql::ResultSet::Cell(direct[i].bottom.t));
      EXPECT_EQ(row[6], sql::ResultSet::Cell(direct[i].bottom.v));
      EXPECT_EQ(row[7], sql::ResultSet::Cell(direct[i].top.t));
      EXPECT_EQ(row[8], sql::ResultSet::Cell(direct[i].top.v));
    }
    ASSERT_OK(db->DropSeries("s"));
  }
}

TEST(DatabaseTest, DropSeriesEvictsItsCachedResults) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(TestConfig(dir.path())));
  for (int i = 0; i < 100; ++i) ASSERT_OK(db->Write("s", i, i % 7));
  ASSERT_OK(db->FlushAll());
  for (const char* spans : {"4", "5"}) {
    ASSERT_OK(sql::ExecuteQuery(db.get(),
                                std::string("SELECT M4(v) FROM s WHERE "
                                            "time >= 0 AND time < 100 GROUP "
                                            "BY SPANS(") +
                                    spans + ")")
                  .status());
  }
  EXPECT_EQ(db->result_cache().size(), 2u);
  ASSERT_OK(db->DropSeries("s"));
  EXPECT_EQ(db->result_cache().size(), 0u);
}

}  // namespace
}  // namespace tsviz
