#include "sql/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>

#include "common/env.h"
#include "common/random.h"
#include "m4/m4_udf.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "storage/file_reader.h"
#include "storage/quarantine.h"
#include "test_util.h"

namespace tsviz::sql {
namespace {

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseConfig config;
    config.root_dir = dir_.path();
    config.series_defaults.points_per_chunk = 40;
    config.series_defaults.memtable_flush_threshold = 40;
    auto db = Database::Open(config);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    // 200 points: t = 0,10,...,1990; v = t/10 except a dip at t=500.
    for (int i = 0; i < 200; ++i) {
      double v = i == 50 ? -100.0 : i;
      ASSERT_OK(db_->Write("s1", i * 10, v));
    }
    ASSERT_OK(db_->FlushAll());
  }

  ResultSet MustQuery(const std::string& statement) {
    auto result = ExecuteQuery(db_.get(), statement, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << " for "
                             << statement;
    return result.ok() ? *result : ResultSet();
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(SqlExecutorTest, RawSelectReturnsMergedPoints) {
  ResultSet result =
      MustQuery("SELECT v FROM s1 WHERE time >= 100 AND time < 150");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"time", "value"}));
  ASSERT_EQ(result.num_rows(), 5u);
  EXPECT_EQ(result.rows()[0][0], ResultSet::Cell(int64_t{100}));
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell(10.0));
}

TEST_F(SqlExecutorTest, M4ShorthandMatchesOperator) {
  ResultSet result = MustQuery(
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(4)");
  ASSERT_EQ(result.columns().size(), 9u);  // span_start + 8 M4 columns
  ASSERT_EQ(result.num_rows(), 4u);

  auto store = db_->GetSeries("s1");
  ASSERT_TRUE(store.ok());
  ASSERT_OK_AND_ASSIGN(M4Result m4,
                       RunM4Udf(**store, M4Query{0, 2000, 4}, nullptr));
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.rows()[i][1], ResultSet::Cell(m4[i].first.t));
    EXPECT_EQ(result.rows()[i][4], ResultSet::Cell(m4[i].last.v));
    EXPECT_EQ(result.rows()[i][6], ResultSet::Cell(m4[i].bottom.v));
    EXPECT_EQ(result.rows()[i][8], ResultSet::Cell(m4[i].top.v));
  }
  // The dip at t=500 is span 1's bottom.
  EXPECT_EQ(result.rows()[1][6], ResultSet::Cell(-100.0));
}

TEST_F(SqlExecutorTest, MixedAggregatesJoinOnSpan) {
  ResultSet result = MustQuery(
      "SELECT MIN_VALUE(v), MAX_VALUE(v), COUNT(v), AVG(v) FROM s1 "
      "WHERE time >= 0 AND time < 2000 GROUP BY SPANS(2)");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"span_start", "BOTTOM_VALUE(v)",
                                      "TOP_VALUE(v)", "COUNT(v)", "AVG(v)"}));
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell(-100.0));
  EXPECT_EQ(result.rows()[0][2], ResultSet::Cell(99.0));
  EXPECT_EQ(result.rows()[0][3], ResultSet::Cell(int64_t{100}));
  EXPECT_EQ(result.rows()[1][3], ResultSet::Cell(int64_t{100}));
  // avg of 100..199 = 149.5.
  EXPECT_EQ(result.rows()[1][4], ResultSet::Cell(149.5));
}

TEST_F(SqlExecutorTest, DefaultsToFullRangeAndOneSpan) {
  ResultSet result = MustQuery("SELECT COUNT(v) FROM s1");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell(int64_t{200}));
}

TEST_F(SqlExecutorTest, EmptySpansAreNull) {
  ASSERT_OK(db_->DeleteRange("s1", TimeRange(0, 990)));
  ResultSet result = MustQuery(
      "SELECT MIN(v), COUNT(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(2)");
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell());  // null min
  EXPECT_EQ(result.rows()[0][2], ResultSet::Cell(int64_t{0}));
  EXPECT_EQ(result.rows()[1][2], ResultSet::Cell(int64_t{100}));
}

TEST_F(SqlExecutorTest, TimeEqualitySelectsOnePoint) {
  ResultSet result = MustQuery("SELECT v FROM s1 WHERE time = 170");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell(17.0));
}

TEST_F(SqlExecutorTest, SemanticErrors) {
  EXPECT_EQ(ExecuteQuery(db_.get(), "SELECT v FROM nope", nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(ExecuteQuery(db_.get(),
                            "SELECT v, COUNT(v) FROM s1", nullptr)
                   .ok());  // raw + aggregate mix
  EXPECT_FALSE(ExecuteQuery(db_.get(),
                            "SELECT v FROM s1 GROUP BY SPANS(4)", nullptr)
                   .ok());  // raw + group by
  EXPECT_FALSE(
      ExecuteQuery(db_.get(),
                   "SELECT COUNT(v) FROM s1 WHERE time >= 100 AND time < 50",
                   nullptr)
          .ok());  // empty range
}

TEST_F(SqlExecutorTest, ExplainDescribesThePlanWithoutExecuting) {
  ResultSet result = MustQuery(
      "EXPLAIN SELECT M4(v), COUNT(v) FROM s1 WHERE time >= 0 AND "
      "time < 2000 GROUP BY SPANS(4)");
  EXPECT_EQ(result.columns(), (std::vector<std::string>{"step", "detail"}));
  std::string text = result.ToString();
  EXPECT_NE(text.find("merge-free M4-LSM"), std::string::npos);
  EXPECT_NE(text.find("merged scan"), std::string::npos);
  EXPECT_NE(text.find("s1"), std::string::npos);
  EXPECT_NE(text.find("[0, 2000)"), std::string::npos);
  // chunks_overlapping is reported from metadata (5 chunks of 40 points).
  EXPECT_NE(text.find("chunks_overlapping"), std::string::npos);
}

TEST_F(SqlExecutorTest, ExplainRawPath) {
  ResultSet result = MustQuery("EXPLAIN SELECT v FROM s1");
  EXPECT_NE(result.ToString().find("raw merged points"), std::string::npos);
}

TEST_F(SqlExecutorTest, ValueFilterOnRawSelect) {
  // Values are 0..199 except -100 at t=500.
  ResultSet result =
      MustQuery("SELECT v FROM s1 WHERE value < 0");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0], ResultSet::Cell(int64_t{500}));
  ResultSet band = MustQuery(
      "SELECT v FROM s1 WHERE value >= 10 AND value < 12 AND time < 1000");
  EXPECT_EQ(band.num_rows(), 2u);  // v = 10, 11
  ResultSet mirrored = MustQuery("SELECT v FROM s1 WHERE 0 > value");
  EXPECT_EQ(mirrored.num_rows(), 1u);
  // Value filters make no sense for metadata-served aggregates.
  EXPECT_FALSE(ExecuteQuery(db_.get(),
                            "SELECT MIN(v) FROM s1 WHERE value > 0",
                            nullptr)
                   .ok());
}

TEST_F(SqlExecutorTest, LimitTruncatesRows) {
  ResultSet raw = MustQuery("SELECT v FROM s1 LIMIT 7");
  EXPECT_EQ(raw.num_rows(), 7u);
  ResultSet agg = MustQuery(
      "SELECT COUNT(v) FROM s1 GROUP BY SPANS(10) LIMIT 3");
  EXPECT_EQ(agg.num_rows(), 3u);
  ResultSet all = MustQuery("SELECT v FROM s1 LIMIT 100000");
  EXPECT_EQ(all.num_rows(), 200u);
}

TEST_F(SqlExecutorTest, ToStringAndCsvRender) {
  ResultSet result =
      MustQuery("SELECT COUNT(v) FROM s1 GROUP BY SPANS(2)");
  std::string table = result.ToString();
  EXPECT_NE(table.find("span_start"), std::string::npos);
  EXPECT_NE(table.find("COUNT(v)"), std::string::npos);
  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("span_start,COUNT(v)"), std::string::npos);
}

TEST_F(SqlExecutorTest, ShowMetricsRendersPrometheusText) {
  MustQuery("SELECT COUNT(v) FROM s1");  // generate some read activity
  ResultSet result = MustQuery("SHOW METRICS");
  ASSERT_EQ(result.columns().size(), 1u);
  // The column name starts with '#': the CSV header line is a Prometheus
  // comment, making the whole CSV reply valid text exposition format.
  EXPECT_EQ(result.columns()[0][0], '#');
  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("# TYPE"), std::string::npos);
  EXPECT_NE(csv.find("read_metadata_reads_total"), std::string::npos);
  EXPECT_NE(csv.find("log_warnings_total"), std::string::npos);
  // Every line is a comment or a `name[{labels}] value` sample — never a
  // multi-cell CSV row.
  size_t begin = 0;
  while (begin < csv.size()) {
    size_t end = csv.find('\n', begin);
    if (end == std::string::npos) end = csv.size();
    std::string line = csv.substr(begin, end - begin);
    begin = end + 1;
    EXPECT_EQ(line.find(','), std::string::npos) << line;
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
  }
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SHOW TABLES", nullptr).ok());
}

TEST_F(SqlExecutorTest, ExplainAnalyzeReturnsTraceTreeAndStats) {
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(
      ResultSet result,
      ExecuteQuery(db_.get(),
                   "EXPLAIN ANALYZE SELECT M4(v) FROM s1 WHERE time >= 0 "
                   "AND time < 2000 GROUP BY SPANS(4)",
                   &stats));
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"node", "millis", "calls"}));
  ASSERT_GT(result.num_rows(), 0u);
  EXPECT_EQ(result.rows()[0][0], ResultSet::Cell(std::string("query")));

  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("m4_lsm"), std::string::npos);
  EXPECT_NE(csv.find("metadata_read"), std::string::npos);
  EXPECT_NE(csv.find("solve_first"), std::string::npos);
  EXPECT_NE(csv.find("rows_returned,4,null"), std::string::npos);
  // The stat rows come from the same X-macro as QueryStats::ToCsvRow.
  for (const std::string& field : QueryStats::FieldNames()) {
    EXPECT_NE(csv.find("stat:" + field), std::string::npos) << field;
  }
  // A healthy store reports degraded,0: no data was quarantined away.
  EXPECT_NE(csv.find("degraded,0,null"), std::string::npos);
  // The trace and counters also propagate to the caller's QueryStats.
  ASSERT_NE(stats.trace, nullptr);
  EXPECT_GT(stats.trace->TotalMillis(), 0.0);
  EXPECT_GT(stats.metadata_reads, 0u);
  EXPECT_GT(stats.chunks_total, 0u);
}

TEST_F(SqlExecutorTest, ExplainAnalyzeAppliesLimitToTheTracedQuery) {
  ResultSet result = MustQuery(
      "EXPLAIN ANALYZE SELECT COUNT(v) FROM s1 GROUP BY SPANS(10) LIMIT 3");
  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("rows_returned,3,null"), std::string::npos);
  // The report itself is not truncated to 3 rows.
  EXPECT_GT(result.num_rows(), 3u);
}

// The paper's cost asymmetry, visible per query: on a smooth multi-chunk
// series, merge-free M4-LSM touches an order of magnitude less chunk data
// than the load-everything raw path (the M4-UDF access pattern).
TEST(SqlExplainAnalyzeAsymmetry, M4LsmLoadsFarLessThanFullScan) {
  Rng rng(7);
  TempDir dir;
  DatabaseConfig config;
  config.root_dir = dir.path();
  config.series_defaults.points_per_chunk = 100;
  config.series_defaults.memtable_flush_threshold = 100;
  config.series_defaults.encoding.page_size_points = 25;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(config));
  // Ballspeed-style smooth random walk, 10000 points -> 100 chunks.
  double v = 0.0;
  for (int i = 0; i < 10000; ++i) {
    v += rng.Gaussian(0, 1.0);
    ASSERT_OK(db->Write("speed", i, v));
  }
  ASSERT_OK(db->FlushAll());

  QueryStats lsm;
  ASSERT_OK_AND_ASSIGN(
      ResultSet lsm_report,
      ExecuteQuery(db.get(),
                   "EXPLAIN ANALYZE SELECT M4(v) FROM speed WHERE "
                   "time >= 0 AND time < 10000 GROUP BY SPANS(4)",
                   &lsm));
  QueryStats raw;
  ASSERT_OK_AND_ASSIGN(
      ResultSet raw_report,
      ExecuteQuery(db.get(),
                   "EXPLAIN ANALYZE SELECT v FROM speed WHERE "
                   "time >= 0 AND time < 10000",
                   &raw));
  EXPECT_NE(raw_report.ToCsv().find("merge_scan"), std::string::npos);

  EXPECT_EQ(raw.chunks_loaded, 100u);  // the full scan loads everything
  EXPECT_GE(raw.chunks_loaded, 10 * std::max<uint64_t>(1, lsm.chunks_loaded))
      << "lsm loaded " << lsm.chunks_loaded << " chunks";
  EXPECT_GE(raw.bytes_read, 10 * std::max<uint64_t>(1, lsm.bytes_read))
      << "lsm read " << lsm.bytes_read << " bytes, raw " << raw.bytes_read;
}

TEST_F(SqlExecutorTest, RepeatedSelectIsServedWithoutDiskReads) {
  const std::string statement =
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(8)";
  QueryStats first;
  ASSERT_OK_AND_ASSIGN(ResultSet cold,
                       ExecuteQuery(db_.get(), statement, &first));
  EXPECT_GT(first.pages_decoded, 0u);
  QueryStats second;
  ASSERT_OK_AND_ASSIGN(ResultSet warm,
                       ExecuteQuery(db_.get(), statement, &second));
  // The result cache answers the repeat outright: no pages decoded, no
  // chunk data touched, identical rows.
  EXPECT_EQ(second.pages_decoded, 0u);
  EXPECT_EQ(second.bytes_read, 0u);
  EXPECT_EQ(second.chunks_loaded, 0u);
  EXPECT_EQ(warm.ToCsv(), cold.ToCsv());
  EXPECT_GE(db_->result_cache().hits(), 1u);
}

TEST_F(SqlExecutorTest, WritesInvalidateTheResultCache) {
  const std::string statement = "SELECT COUNT(v), MAX(v) FROM s1";
  ResultSet before = MustQuery(statement);
  MustQuery(statement);  // warm the result cache
  ASSERT_OK(db_->Write("s1", 5000, 999.0));
  ASSERT_OK(db_->FlushAll());  // bumps the store's state version
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(ResultSet after,
                       ExecuteQuery(db_.get(), statement, &stats));
  EXPECT_NE(after.ToCsv(), before.ToCsv());  // sees the new point
}

// Every reply of a result-cache hit must be the reply an uncached run of
// the same statement gives. The two statements share one cache entry (same
// geometry) but not one header, and each runs twice in a row per round, so
// hits both render and reuse the entry's text.
TEST_F(SqlExecutorTest, CachedRepliesMatchUncachedAcrossHeaders) {
  const std::string tail =
      " FROM s1 WHERE time >= 0 AND time < 2000 GROUP BY SPANS(7)";
  const std::vector<std::string> statements = {
      "SELECT M4(v)" + tail, "SELECT FIRST_VALUE(v), TOP_VALUE(v)" + tail};
  ASSERT_OK_AND_ASSIGN(TsStore * store, db_->GetSeries("s1"));
  std::vector<std::vector<std::vector<ResultSet::Cell>>> miss_rows(2);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < statements.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(Statement parsed, ParseStatement(statements[i]));
      ASSERT_OK_AND_ASSIGN(
          ResultSet uncached,
          ExecuteSelect(*store, std::get<SelectStatement>(parsed), nullptr,
                        ExecOptions{}));
      for (int repeat = 0; repeat < 2; ++repeat) {
        SCOPED_TRACE(statements[i] + " round " + std::to_string(round) +
                     " repeat " + std::to_string(repeat));
        ASSERT_OK_AND_ASSIGN(ResultSet cached,
                             ExecuteQuery(db_.get(), statements[i]));
        EXPECT_EQ(cached.ToCsv(), uncached.ToCsv());
        EXPECT_EQ(cached.num_rows(), 7u);
        if (miss_rows[i].empty()) {
          miss_rows[i] = cached.rows();
        } else {
          EXPECT_EQ(cached.rows(), miss_rows[i]);
        }
      }
    }
  }
  EXPECT_EQ(db_->result_cache().size(), 1u);
  EXPECT_EQ(db_->result_cache().misses(), 1u);
  EXPECT_EQ(db_->result_cache().hits(), 11u);
}

// LIMIT and rows() on a hit that carries the entry's text.
TEST_F(SqlExecutorTest, LimitOnACachedHitTruncatesTheReply) {
  const std::string statement =
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(8)";
  for (int i = 0; i < 3; ++i) MustQuery(statement);  // render the entry
  ResultSet full = MustQuery(statement);
  ResultSet limited = MustQuery(statement + " LIMIT 3");
  ASSERT_EQ(limited.num_rows(), 3u);
  const std::string full_csv = full.ToCsv();
  std::string want = full_csv.substr(0, full_csv.find('\n') + 1);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(limited.rows()[r], full.rows()[r]);
    for (size_t c = 0; c < full.columns().size(); ++c) {
      want += (c > 0 ? "," : "") + ResultSet::CellToString(full.rows()[r][c]);
    }
    want += "\n";
  }
  EXPECT_EQ(limited.ToCsv(), want);
  EXPECT_EQ(MustQuery(statement + " LIMIT 100").ToCsv(), full_csv);
}

// A select that mixes in COUNT/SUM/AVG scans on every run; only its M4 part
// comes from the cache, so its reply follows the data.
TEST_F(SqlExecutorTest, MixedSelectOnACachedEntryFollowsTheData) {
  const std::string statement =
      "SELECT COUNT(v), MAX(v) FROM s1 WHERE time >= 0 AND time < 6000 "
      "GROUP BY SPANS(3)";
  ASSERT_OK_AND_ASSIGN(Statement parsed, ParseStatement(statement));
  const SelectStatement& select = std::get<SelectStatement>(parsed);
  std::string before;
  for (int phase = 0; phase < 2; ++phase) {
    ASSERT_OK_AND_ASSIGN(TsStore * store, db_->GetSeries("s1"));
    ASSERT_OK_AND_ASSIGN(ResultSet uncached,
                         ExecuteSelect(*store, select, nullptr, ExecOptions{}));
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(MustQuery(statement).ToCsv(), uncached.ToCsv())
          << "phase " << phase << " repeat " << repeat;
    }
    if (phase == 0) {
      before = uncached.ToCsv();
      ASSERT_OK(db_->Write("s1", 5000, 999.0));
      ASSERT_OK(db_->FlushAll());
    } else {
      EXPECT_NE(uncached.ToCsv(), before);  // the flush is visible
    }
  }
  EXPECT_GE(db_->result_cache().hits(), 4u);
}

// An entry computed while a corrupt chunk was quarantined keeps reporting
// degraded on every hit, including hits answered from the entry's text.
TEST(SqlExecutorCacheTest, DegradedEntryStaysDegradedOnRenderedHits) {
  TempDir dir;
  DatabaseConfig config;
  config.root_dir = dir.path();
  config.series_defaults.points_per_chunk = 50;
  config.series_defaults.memtable_flush_threshold = 100000;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(config));
    for (int64_t t = 0; t < 200; ++t) {
      ASSERT_OK(db->Write("s", t, static_cast<double>(t)));
    }
    ASSERT_OK(db->FlushAll());
  }
  std::string path;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir.path())) {
    if (entry.path().extension() == ".tsdat") path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  uint64_t corrupt_offset = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<FileReader> reader,
                         FileReader::Open(path));
    ASSERT_EQ(reader->chunks().size(), 4u);
    const ChunkMetadata& victim = reader->chunks()[2];
    corrupt_offset = victim.data_offset + victim.data_length / 2;
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(corrupt_offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xff);
    f.seekp(static_cast<std::streamoff>(corrupt_offset));
    f.write(&c, 1);
  }

  ChunkQuarantine::Instance().Clear();
  SetReadTolerance(ReadTolerance::kDegrade);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(config));
  // 7 spans misalign with the 50-point chunks, so M4-LSM must decode the
  // corrupt page.
  const std::string statement =
      "SELECT M4(v) FROM s WHERE time >= 0 AND time < 200 GROUP BY SPANS(7)";
  std::string first_csv;
  for (int run = 0; run < 4; ++run) {
    QueryStats stats;
    ASSERT_OK_AND_ASSIGN(ResultSet result,
                         ExecuteQuery(db.get(), statement, &stats));
    EXPECT_TRUE(stats.degraded) << "run " << run;
    if (run == 0) {
      first_csv = result.ToCsv();
    } else {
      EXPECT_EQ(result.ToCsv(), first_csv) << "run " << run;
    }
  }
  EXPECT_EQ(db->result_cache().hits(), 3u);
  ChunkQuarantine::Instance().Clear();
}

TEST_F(SqlExecutorTest, ExplainAnalyzeRepeatShowsCacheProbeNoPageLoad) {
  const std::string statement =
      "EXPLAIN ANALYZE SELECT M4(v) FROM s1 WHERE time >= 0 AND "
      "time < 2000 GROUP BY SPANS(4)";
  ResultSet cold = MustQuery(statement);
  EXPECT_NE(cold.ToCsv().find("page_load"), std::string::npos);
  ResultSet warm = MustQuery(statement);
  std::string csv = warm.ToCsv();
  EXPECT_NE(csv.find("cache_probe"), std::string::npos);
  EXPECT_EQ(csv.find("page_load"), std::string::npos);
  EXPECT_NE(csv.find("stat:pages_decoded,0"), std::string::npos);
}

TEST_F(SqlExecutorTest, SetAdjustsRuntimeKnobs) {
  ResultSet result = MustQuery("SET parallelism = 4");
  EXPECT_EQ(db_->query_parallelism(), 4);
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"setting", "value"}));
  // Parallel execution still answers queries correctly.
  ResultSet rows = MustQuery(
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(16)");
  EXPECT_EQ(rows.num_rows(), 16u);

  MustQuery("SET result_cache_capacity = 16");
  EXPECT_EQ(db_->result_cache().capacity(), 16u);
  MustQuery("SET page_cache_bytes = 1048576");

  EXPECT_FALSE(ExecuteQuery(db_.get(), "SET parallelism = 0", nullptr).ok());
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SET parallelism = 1.5", nullptr).ok());
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SET nonsense = 1", nullptr).ok());
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SET parallelism", nullptr).ok());
}

TEST_F(SqlExecutorTest, InsertWritesPointsAndReportsCount) {
  ResultSet result = MustQuery("INSERT INTO fresh VALUES (10, 1), (20, 2)");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"series", "points"}));
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0], ResultSet::Cell(std::string("fresh")));
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell(int64_t{2}));

  // Inserted points buffer in the memtable like any write; FLUSH makes
  // them visible to queries.
  MustQuery("FLUSH fresh");
  ResultSet count = MustQuery("SELECT COUNT(v) FROM fresh");
  ASSERT_EQ(count.num_rows(), 1u);
  EXPECT_EQ(count.rows()[0][1], ResultSet::Cell(int64_t{2}));

  // Inserts into an existing series merge with its data (and invalidate the
  // cached M4 results, same as Database::Write).
  MustQuery("INSERT INTO s1 VALUES (2000, 42)");
  MustQuery("FLUSH s1");
  ResultSet max = MustQuery("SELECT MAX_VALUE(v) FROM s1 WHERE time = 2000");
  ASSERT_EQ(max.num_rows(), 1u);
  EXPECT_EQ(max.rows()[0][1], ResultSet::Cell(42.0));

  // A bad series name fails without writing anything.
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "INSERT INTO 'a/b' VALUES (1, 2)", nullptr)
          .ok());
}

TEST_F(SqlExecutorTest, SetNetworkKnobs) {
  EXPECT_EQ(db_->max_connections(), 1024);
  EXPECT_EQ(db_->listen_backlog(), 64);
  MustQuery("SET max_connections = 8");
  EXPECT_EQ(db_->max_connections(), 8);
  MustQuery("SET listen_backlog = 256");
  EXPECT_EQ(db_->listen_backlog(), 256);
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "SET max_connections = 0", nullptr).ok());
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "SET listen_backlog = 1.5", nullptr).ok());
  EXPECT_EQ(db_->max_connections(), 8);
  EXPECT_EQ(db_->listen_backlog(), 256);
}

// Every knob uses the same validation: zero, negative, and non-integer
// values are rejected with the full knob catalog in the error, and the
// rejected SET leaves the previous value in place.
TEST_F(SqlExecutorTest, SetRejectsBadValuesForEveryKnobWithoutMutating) {
  ASSERT_OK(
      ExecuteQuery(db_.get(), "SET partition_interval_ms = 5000", nullptr)
          .status());
  struct Knob {
    const char* name;
    std::function<double()> current;
  };
  const std::vector<Knob> knobs = {
      {"autoflush_bytes",
       [&] { return double(db_->maintenance().memtable_flush_bytes()); }},
      {"compaction_files",
       [&] { return double(db_->maintenance().compaction_files()); }},
      {"listen_backlog", [&] { return double(db_->listen_backlog()); }},
      {"max_connections", [&] { return double(db_->max_connections()); }},
      {"parallelism", [&] { return double(db_->query_parallelism()); }},
      {"partition_interval_ms",
       [&] { return double(db_->partition_interval_ms()); }},
      {"recorder_capacity_bytes",
       [&] {
         return double(obs::FlightRecorder::Instance().capacity_bytes());
       }},
      {"result_cache_capacity",
       [&] { return double(db_->result_cache().capacity()); }},
      {"ttl_ms", [&] { return double(db_->maintenance().ttl()); }},
  };
  for (const Knob& knob : knobs) {
    const double before = knob.current();
    for (const char* bad : {"0", "-1", "2.5"}) {
      Status status =
          ExecuteQuery(db_.get(),
                       std::string("SET ") + knob.name + " = " + bad, nullptr)
              .status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << knob.name << " = " << bad;
      // The error names every valid knob so the user can recover.
      EXPECT_NE(status.ToString().find("partition_interval_ms"),
                std::string::npos)
          << status.ToString();
      EXPECT_NE(status.ToString().find("autoflush_bytes"), std::string::npos);
      EXPECT_EQ(knob.current(), before) << knob.name << " = " << bad;
    }
    // Non-numeric values die in the parser, also naming the knobs.
    Status status =
        ExecuteQuery(db_.get(), std::string("SET ") + knob.name + " = lots",
                     nullptr)
            .status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << knob.name;
    EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
    EXPECT_EQ(knob.current(), before) << knob.name;
  }
}

TEST_F(SqlExecutorTest, SetAdjustsMaintenanceKnobs) {
  MustQuery("SET autoflush_bytes = 1024");
  EXPECT_EQ(db_->maintenance().memtable_flush_bytes(), 1024u);
  MustQuery("SET compaction_files = 3");
  EXPECT_EQ(db_->maintenance().compaction_files(), 3u);
  MustQuery("SET ttl_ms = 60000");
  EXPECT_EQ(db_->maintenance().ttl(), 60000);
  // Zero and negatives are rejected and leave the knob untouched.
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SET ttl_ms = 0", nullptr).ok());
  EXPECT_EQ(db_->maintenance().ttl(), 60000);
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SET ttl_ms = -5", nullptr).ok());
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "SET autoflush_bytes = -1", nullptr).ok());
}

TEST_F(SqlExecutorTest, SetReadToleranceTakesAWord) {
  EXPECT_EQ(GetReadTolerance(), ReadTolerance::kDegrade);
  MustQuery("SET read_tolerance = strict");
  EXPECT_EQ(GetReadTolerance(), ReadTolerance::kStrict);
  MustQuery("SET read_tolerance = degrade");
  EXPECT_EQ(GetReadTolerance(), ReadTolerance::kDegrade);
  // A number and an unknown word are both rejected, naming the knobs.
  Status status =
      ExecuteQuery(db_.get(), "SET read_tolerance = 5", nullptr).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
  status =
      ExecuteQuery(db_.get(), "SET read_tolerance = maybe", nullptr).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
  // Word values on numeric knobs are rejected the same way.
  status = ExecuteQuery(db_.get(), "SET ttl_ms = forever", nullptr).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
  EXPECT_EQ(GetReadTolerance(), ReadTolerance::kDegrade);
}

TEST_F(SqlExecutorTest, SetDurableFsyncTogglesOpenStores) {
  ASSERT_OK(db_->Write("s1", 5000, 1.0));
  ASSERT_OK_AND_ASSIGN(TsStore * store, db_->GetSeries("s1"));
  const bool initial = store->durable_fsync();
  MustQuery("SET durable_fsync = 0");
  EXPECT_FALSE(store->durable_fsync());
  MustQuery("SET durable_fsync = 1");
  EXPECT_TRUE(store->durable_fsync());
  ASSERT_OK(db_->ApplySetting("durable_fsync", initial ? 1 : 0));
}

TEST_F(SqlExecutorTest, SetFaultfsKnobsReachTheEnv) {
  MustQuery("SET faultfs_eio_every = 0");
  MustQuery("SET faultfs_seed = 7");
  EXPECT_EQ(CurrentFaultConfig().eio_every, 0u);  // injection stays off
  MustQuery("SET faultfs_short_read_every = 0");
  MustQuery("SET faultfs_torn_append_every = 0");
  MustQuery("SET faultfs_fsync_fail_every = 0");
  Status status =
      ExecuteQuery(db_.get(), "SET faultfs_bogus = 1", nullptr).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid knobs"), std::string::npos);
  SetFaultConfig(FaultConfig{});  // leave the process on the clean env
}

TEST_F(SqlExecutorTest, SetRecorderKnobsReachTheRecorder) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  MustQuery("SET trace_sample_every = 5");
  EXPECT_EQ(recorder.trace_sample_every(), 5u);
  MustQuery("SET trace_sample_every = 0");  // zero = off, explicitly legal
  EXPECT_EQ(recorder.trace_sample_every(), 0u);
  MustQuery("SET slow_query_millis = 250");
  EXPECT_EQ(recorder.slow_query_millis(), 250.0);
  MustQuery("SET slow_query_millis = 0");
  EXPECT_EQ(recorder.slow_query_millis(), 0.0);
  MustQuery("SET recorder_capacity_bytes = 65536");
  EXPECT_EQ(recorder.capacity_bytes(), 65536u);
  // Negative and fractional values are rejected without mutating, and the
  // ring capacity cannot be zero (that would drop everything).
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "SET trace_sample_every = -1", nullptr).ok());
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "SET slow_query_millis = 0.5", nullptr).ok());
  EXPECT_FALSE(
      ExecuteQuery(db_.get(), "SET recorder_capacity_bytes = 0", nullptr)
          .ok());
  EXPECT_EQ(recorder.capacity_bytes(), 65536u);
  recorder.set_capacity_bytes(obs::FlightRecorder::kDefaultCapacityBytes);
}

TEST_F(SqlExecutorTest, ShowQueriesReturnsRecentStatementHistory) {
  obs::FlightRecorder::Instance().Clear();
  MustQuery("SELECT v FROM s1 WHERE time >= 100 AND time < 150");
  MustQuery(
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(4)");
  EXPECT_FALSE(ExecuteQuery(db_.get(), "SELECT v FROM nope", nullptr).ok());

  ResultSet result = MustQuery("SHOW QUERIES");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"id", "statement", "millis", "rows",
                                      "degraded", "chunks_loaded",
                                      "points_scanned", "sampled", "slow",
                                      "status"}));
  ASSERT_EQ(result.num_rows(), 3u);
  // Newest first: the failed SELECT, then the M4, then the raw scan. The
  // SHOW QUERIES itself is recorded only after its snapshot was taken.
  EXPECT_EQ(result.rows()[0][1],
            ResultSet::Cell(std::string("SELECT v FROM nope")));
  EXPECT_EQ(result.rows()[0][3], ResultSet::Cell(int64_t{0}));
  EXPECT_NE(result.rows()[0][9], ResultSet::Cell(std::string("OK")));
  EXPECT_EQ(result.rows()[1][3], ResultSet::Cell(int64_t{4}));
  EXPECT_EQ(result.rows()[1][9], ResultSet::Cell(std::string("OK")));
  EXPECT_EQ(result.rows()[2][3], ResultSet::Cell(int64_t{5}));
  EXPECT_EQ(result.rows()[2][4], ResultSet::Cell(int64_t{0}));  // degraded
  // The M4 query really loaded chunks; the counter made it into history.
  EXPECT_NE(result.rows()[1][5], ResultSet::Cell(int64_t{0}));
}

TEST_F(SqlExecutorTest, ShowProfileMergesSampledTracesWithoutExplain) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  recorder.Clear();
  MustQuery("SET trace_sample_every = 1");
  for (int i = 0; i < 2; ++i) {
    MustQuery(
        "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
        "GROUP BY SPANS(4)");
  }
  MustQuery("SET trace_sample_every = 0");

  ResultSet result = MustQuery("SHOW PROFILE");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"node", "millis", "calls"}));
  ASSERT_GT(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0],
            ResultSet::Cell(std::string("traces_merged")));
  EXPECT_EQ(result.rows()[0][2], ResultSet::Cell(int64_t{2}));
  // The merged tree carries the plain SELECTs' phase spans — no EXPLAIN
  // ANALYZE was ever issued.
  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("query"), std::string::npos);
  EXPECT_NE(csv.find("m4_lsm"), std::string::npos);
  EXPECT_NE(csv.find("solve_first"), std::string::npos);

  // RESET returns the current profile and then starts a fresh fold.
  MustQuery("SHOW PROFILE RESET");
  ResultSet after = MustQuery("SHOW PROFILE");
  ASSERT_EQ(after.num_rows(), 1u);
  EXPECT_EQ(after.rows()[0][2], ResultSet::Cell(int64_t{0}));
}

TEST_F(SqlExecutorTest, DumpTraceWritesAFileAndRejectsBadPaths) {
  obs::FlightRecorder::Instance().Clear();
  MustQuery("SELECT v FROM s1 WHERE time >= 0 AND time < 100");
  const std::string path = dir_.path() + "/dump.json";
  ResultSet result = MustQuery("DUMP TRACE '" + path + "'");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"path", "events", "bytes"}));
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0], ResultSet::Cell(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("traceEvents"), std::string::npos);

  Status status =
      ExecuteQuery(db_.get(),
                   "DUMP TRACE '" + dir_.path() + "/no_such_dir/x.json'",
                   nullptr)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// The parallel executor used to be a trace blind spot: workers ran with a
// null trace, so EXPLAIN ANALYZE under `SET parallelism` lost the per-phase
// solve_* timing. Worker block traces are now merged into the parent after
// the join.
TEST_F(SqlExecutorTest, ExplainAnalyzeWithParallelismReportsSolvePhases) {
  MustQuery("SET parallelism = 4");
  ResultSet result = MustQuery(
      "EXPLAIN ANALYZE SELECT M4(v) FROM s1 WHERE time >= 0 AND "
      "time < 2000 GROUP BY SPANS(8)");
  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("m4_lsm"), std::string::npos);
  EXPECT_NE(csv.find("solve_first"), std::string::npos);
  EXPECT_NE(csv.find("solve_last"), std::string::npos);
  EXPECT_NE(csv.find("solve_bottom"), std::string::npos);
  EXPECT_NE(csv.find("solve_top"), std::string::npos);
  EXPECT_NE(csv.find("rows_returned,8,null"), std::string::npos);
}

TEST_F(SqlExecutorTest, FlushStatementPersistsTheMemtable) {
  ASSERT_OK(db_->Write("s1", 5000, 1.0));
  ASSERT_OK_AND_ASSIGN(TsStore * store, db_->GetSeries("s1"));
  ASSERT_GT(store->memtable_size(), 0u);
  ResultSet result = MustQuery("FLUSH s1");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"series", "action", "status"}));
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0], ResultSet::Cell(std::string("s1")));
  EXPECT_EQ(store->memtable_size(), 0u);
  // Unknown series is an error; bare FLUSH hits every series.
  EXPECT_FALSE(ExecuteQuery(db_.get(), "FLUSH nope", nullptr).ok());
  ASSERT_OK(db_->Write("s1", 5001, 1.0));
  MustQuery("FLUSH");
  EXPECT_EQ(store->memtable_size(), 0u);
}

TEST_F(SqlExecutorTest, CompactStatementMergesFiles) {
  ASSERT_OK_AND_ASSIGN(TsStore * store, db_->GetSeries("s1"));
  ASSERT_OK(db_->Write("s1", 100, 42.0));  // overwrite → second file
  MustQuery("FLUSH s1");
  ASSERT_GT(store->NumFiles(), 1u);
  ResultSet result = MustQuery("COMPACT s1");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][1], ResultSet::Cell(std::string("compact")));
  EXPECT_EQ(store->NumFiles(), 1u);
  // The overwrite won.
  ResultSet rows =
      MustQuery("SELECT v FROM s1 WHERE time >= 100 AND time < 101");
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.rows()[0][1], ResultSet::Cell(42.0));
  EXPECT_FALSE(ExecuteQuery(db_.get(), "COMPACT nope", nullptr).ok());
}

TEST_F(SqlExecutorTest, ShowJobsListsScheduledWork) {
  db_->StartMaintenance();
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<TsStore> store,
                       db_->GetSeriesShared("s1"));
  db_->maintenance().ScheduleFlush("s1", store);
  db_->maintenance().Drain();
  ResultSet result = MustQuery("SHOW JOBS");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"id", "key", "type", "state",
                                      "periodic", "runs", "last_millis",
                                      "last_status"}));
  bool saw_flush = false;
  for (const auto& row : result.rows()) {
    if (row[2] == ResultSet::Cell(std::string("flush")) &&
        row[3] == ResultSet::Cell(std::string("done"))) {
      saw_flush = true;
    }
  }
  EXPECT_TRUE(saw_flush);
  db_->StopMaintenance();
}

TEST_F(SqlExecutorTest, ExplainAnalyzeNarrowZoomShowsPartitionPruning) {
  ASSERT_OK(db_->ApplySetting("partition_interval_ms", 250));
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(db_->Write("parted", i * 10, double(i)));  // 8 partitions
  }
  ASSERT_OK(db_->FlushAll());
  // A zoom into one partition prunes the other seven before their file
  // metadata is touched.
  ResultSet result = MustQuery(
      "EXPLAIN ANALYZE SELECT M4(v) FROM parted "
      "WHERE time >= 500 AND time < 700 GROUP BY SPANS(4)");
  std::string csv = result.ToCsv();
  EXPECT_NE(csv.find("stat:partitions_scanned,1"), std::string::npos) << csv;
  EXPECT_NE(csv.find("stat:partitions_pruned,7"), std::string::npos) << csv;
  // The metadata-only plan reports the same split.
  ResultSet plan = MustQuery(
      "EXPLAIN SELECT M4(v) FROM parted "
      "WHERE time >= 500 AND time < 700 GROUP BY SPANS(4)");
  csv = plan.ToCsv();
  EXPECT_NE(csv.find("partitions_total,8"), std::string::npos) << csv;
  EXPECT_NE(csv.find("partitions_pruned,7"), std::string::npos) << csv;
}

TEST_F(SqlExecutorTest, ShowSeriesListsStorageShape) {
  ASSERT_OK(db_->ApplySetting("partition_interval_ms", 500));
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(db_->Write("parted", i * 500, double(i)));
  }
  ASSERT_OK(db_->FlushAll());
  ResultSet result = MustQuery("SHOW SERIES");
  EXPECT_EQ(result.columns(),
            (std::vector<std::string>{"series", "partition_interval_ms",
                                      "partitions", "files", "chunks",
                                      "data_start", "data_end"}));
  ASSERT_EQ(result.num_rows(), 2u);  // sorted: parted, s1
  const auto& parted = result.rows()[0];
  EXPECT_EQ(parted[0], ResultSet::Cell(std::string("parted")));
  EXPECT_EQ(parted[1], ResultSet::Cell(int64_t{500}));
  EXPECT_EQ(parted[2], ResultSet::Cell(int64_t{4}));  // one per point
  EXPECT_EQ(parted[5], ResultSet::Cell(int64_t{0}));
  EXPECT_EQ(parted[6], ResultSet::Cell(int64_t{1500}));
  const auto& flat = result.rows()[1];
  EXPECT_EQ(flat[0], ResultSet::Cell(std::string("s1")));
  EXPECT_EQ(flat[1], ResultSet::Cell(int64_t{0}));
  EXPECT_EQ(flat[2], ResultSet::Cell(int64_t{1}));  // one legacy group
}

TEST_F(SqlExecutorTest, DisabledResultCacheStillUsesPageCache) {
  // Result caching is disabled at open (SET only accepts positive values).
  TempDir dir;
  DatabaseConfig config;
  config.root_dir = dir.path();
  config.series_defaults.points_per_chunk = 40;
  config.series_defaults.memtable_flush_threshold = 40;
  config.m4_result_cache_capacity = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db, Database::Open(config));
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(db->Write("s1", i * 10, double(i)));
  }
  ASSERT_OK(db->FlushAll());
  const std::string statement =
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 2000 "
      "GROUP BY SPANS(8)";
  QueryStats first;
  ASSERT_OK(ExecuteQuery(db.get(), statement, &first).status());
  QueryStats second;
  ASSERT_OK(ExecuteQuery(db.get(), statement, &second).status());
  // The query re-executes (chunk data is touched) but every page comes from
  // the shared decoded-page cache instead of disk.
  EXPECT_GT(second.chunks_loaded, 0u);
  EXPECT_EQ(second.pages_decoded, 0u);
  EXPECT_EQ(second.bytes_read, 0u);
}

// Property: the SQL M4 path agrees with the direct operator API on messy
// multi-chunk stores.
class SqlM4Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlM4Property, SqlMatchesOperator) {
  Rng rng(GetParam());
  TempDir dir;
  DatabaseConfig config;
  config.root_dir = dir.path();
  config.series_defaults.points_per_chunk = 30;
  config.series_defaults.memtable_flush_threshold = 30;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(config));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 90; ++i) {
      ASSERT_OK(db->Write("s", rng.Uniform(0, 3000),
                          std::round(rng.Gaussian(0, 25))));
    }
    ASSERT_OK(db->FlushAll());
    if (rng.Bernoulli(0.5)) {
      Timestamp start = rng.Uniform(0, 3000);
      ASSERT_OK(db->DeleteRange("s",
                                TimeRange(start, start + rng.Uniform(1, 600))));
    }
  }
  int64_t w = rng.Uniform(1, 40);
  Timestamp tqs = rng.Uniform(0, 1000);
  Timestamp tqe = tqs + rng.Uniform(1, 3000);

  std::string statement =
      "SELECT M4(v) FROM s WHERE time >= " + std::to_string(tqs) +
      " AND time < " + std::to_string(tqe) + " GROUP BY SPANS(" +
      std::to_string(w) + ")";
  ASSERT_OK_AND_ASSIGN(ResultSet result,
                       ExecuteQuery(db.get(), statement, nullptr));

  auto store = db->GetSeries("s");
  ASSERT_TRUE(store.ok());
  ASSERT_OK_AND_ASSIGN(M4Result m4,
                       RunM4Udf(**store, M4Query{tqs, tqe, w}, nullptr));
  ASSERT_EQ(result.num_rows(), m4.size());
  for (size_t i = 0; i < m4.size(); ++i) {
    if (!m4[i].has_data) {
      EXPECT_EQ(result.rows()[i][1], ResultSet::Cell())
          << "seed " << GetParam() << " span " << i;
      continue;
    }
    EXPECT_EQ(result.rows()[i][1], ResultSet::Cell(m4[i].first.t))
        << "seed " << GetParam() << " span " << i;
    EXPECT_EQ(result.rows()[i][3], ResultSet::Cell(m4[i].last.t));
    EXPECT_EQ(result.rows()[i][6], ResultSet::Cell(m4[i].bottom.v));
    EXPECT_EQ(result.rows()[i][8], ResultSet::Cell(m4[i].top.v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlM4Property,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// --- ExecuteInsertBatch: the net worker's coalescing path ---------------

TEST_F(SqlExecutorTest, InsertBatchCoalescesRunsPerSeries) {
  obs::Counter& coalesced = obs::GetCounter("batch_insert_coalesced_total");
  obs::Counter& groups = obs::GetCounter("batch_insert_groups_total");
  obs::Counter& locks = obs::GetCounter("store_write_lock_acquisitions_total");
  uint64_t coalesced0 = coalesced.value();
  uint64_t groups0 = groups.value();
  uint64_t locks0 = locks.value();

  // Two runs (3x a, 2x b) split by the series switch; the final singleton c
  // executes unbatched.
  std::vector<std::string> lines = {
      "INSERT INTO a VALUES (10, 1)",  "INSERT INTO a VALUES (20, 2)",
      "INSERT INTO a VALUES (30, 3)",  "INSERT INTO b VALUES (10, 4)",
      "INSERT INTO b VALUES (20, 5)",  "INSERT INTO c VALUES (10, 6)",
  };
  std::vector<Result<ResultSet>> results =
      ExecuteInsertBatch(db_.get(), lines);
  ASSERT_EQ(results.size(), lines.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    // Every reply is per-statement: one row reporting (series, 1 point) —
    // indistinguishable from six unbatched executions.
    ASSERT_EQ(results[i]->num_rows(), 1u);
    EXPECT_EQ(results[i]->rows()[0][1], ResultSet::Cell(int64_t{1}));
  }
  EXPECT_EQ(coalesced.value() - coalesced0, 5u);  // 3 + 2, singleton excluded
  EXPECT_EQ(groups.value() - groups0, 2u);
  // 2 batched writes + 1 plain write = 3 lock acquisitions for 6 statements.
  EXPECT_EQ(locks.value() - locks0, 3u);

  // The points all landed.
  auto a = db_->GetSeries("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->memtable_size(), 3u);
}

TEST_F(SqlExecutorTest, InsertBatchKeepsPerStatementErrorsInOrder) {
  std::vector<std::string> lines = {
      "INSERT INTO a VALUES (10, 1)",
      "this is not sql",
      "INSERT INTO a VALUES (20, 2)",
      "SELECT COUNT(v) FROM s1",
      "INSERT INTO a VALUES (30, 3)",
  };
  std::vector<Result<ResultSet>> results =
      ExecuteInsertBatch(db_.get(), lines);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());  // the parse error answers only line 1
  EXPECT_TRUE(results[2].ok());
  ASSERT_TRUE(results[3].ok());
  EXPECT_EQ(results[3]->columns()[0], "span_start");  // SELECT ran as itself
  EXPECT_TRUE(results[4].ok());
  auto a = db_->GetSeries("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->memtable_size(), 3u);
}

TEST_F(SqlExecutorTest, InsertBatchFailureReportsEveryStatementOfTheRun) {
  // 1e999 overflows to +inf, which the storage layer rejects — the whole
  // coalesced run fails, and every statement of it reports the error.
  std::vector<std::string> lines = {
      "INSERT INTO bad VALUES (10, 1e999)",
      "INSERT INTO bad VALUES (20, 1e999)",
  };
  std::vector<Result<ResultSet>> results =
      ExecuteInsertBatch(db_.get(), lines);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace tsviz::sql
