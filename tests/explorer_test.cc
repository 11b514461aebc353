/**
 * @file
 * Tests for the design-space explorer (core/explorer.hh).
 *
 * The contracts pinned here:
 *   - determinism: the result document is byte-identical for any
 *     worker count and any shard execution order;
 *   - resumability: an interrupted explore (shard budget) resumed
 *     from its checkpoint directory reproduces the byte-identical
 *     document of an uninterrupted run, and re-running over a
 *     complete directory re-executes nothing;
 *   - safety: checkpoints from a different spec are rejected, and a
 *     malformed checkpoint (seeded mutants of a real one) either loads
 *     or fails with an error naming the file;
 *   - the pipeline: two shards are in flight, a shard budget runs
 *     exactly that many shards, a failed explore abandons the shard
 *     in flight, checkpoint bytes are pinned, and shard spans share
 *     one trace clock;
 *   - dedup: the workload-major expansion keeps the stream-cache hit
 *     rate high;
 *   - one reducer: a single-cell explore summarises exactly what
 *     runVddSweep reports at min-Vdd, single-level and hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/explorer.hh"
#include "core/stream_cache.hh"
#include "core/vdd_sweep.hh"
#include "core/worker_pool.hh"
#include "obs/chrome_trace.hh"
#include "sram/vmodel.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

#include "sweep_reference.hh"

namespace
{

using namespace c8t;
using core::DesignPointSummary;
using core::ExploreResult;
using core::ExplorerSpec;
using core::RunConfig;
using core::WriteScheme;

RunConfig
testWindow()
{
    RunConfig rc;
    rc.warmupAccesses = 500;
    rc.measureAccesses = 3'000;
    return rc;
}

/** 8 cells (2 workloads × 2 sizes × 2 ways), 2 schemes × 2 grid
 *  points = 32 config-runs; 3 cells/shard makes the last shard
 *  ragged. */
ExplorerSpec
testSpec()
{
    ExplorerSpec spec;
    spec.label = "explorer_test";
    spec.workloads = {"gcc", "mcf"};
    spec.sizesKb = {16, 32};
    spec.ways = {2, 4};
    spec.blocks = {32};
    spec.replacements = {mem::ReplKind::Lru};
    spec.schemes = {WriteScheme::Rmw,
                    WriteScheme::WriteGroupingReadBypass};
    spec.vddGrid = {1.0, 0.8};
    spec.cellsPerShard = 3;
    spec.faultRows = 128;
    return spec;
}

std::string
dump(const ExploreResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

/** RAII temp checkpoint directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/c8t_explorer_test_XXXXXX";
        path = mkdtemp(tmpl);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(Explorer, SpecValidation)
{
    EXPECT_NO_THROW(testSpec().validate());

    ExplorerSpec no_workloads = testSpec();
    no_workloads.workloads.clear();
    EXPECT_THROW(no_workloads.validate(), std::invalid_argument);

    ExplorerSpec unknown = testSpec();
    unknown.workloads.push_back("no_such_profile");
    EXPECT_THROW(unknown.validate(), std::invalid_argument);

    ExplorerSpec ascending = testSpec();
    ascending.vddGrid = {0.8, 1.0};
    EXPECT_THROW(ascending.validate(), std::invalid_argument);

    ExplorerSpec zero_shard = testSpec();
    zero_shard.cellsPerShard = 0;
    EXPECT_THROW(zero_shard.validate(), std::invalid_argument);

    EXPECT_EQ(testSpec().cellCount(), 8u);
    EXPECT_EQ(testSpec().runsPerCell(), 4u);
    EXPECT_EQ(testSpec().configRunCount(), 32u);
    EXPECT_EQ(testSpec().shardCount(), 3u);
}

TEST(Explorer, ResultIsWorkerCountAndShardOrderInvariant)
{
    const ExploreResult base = runExplore(testSpec(), testWindow(), 1);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.cellsTotal, 8u);
    EXPECT_EQ(base.cellsSkipped, 0u);
    EXPECT_EQ(base.shardsExecuted, 3u);
    EXPECT_EQ(base.configRunsExecuted, 32u);
    const std::string expect = dump(base);

    for (unsigned workers : {2u, 8u}) {
        const ExploreResult r =
            runExplore(testSpec(), testWindow(), workers);
        EXPECT_EQ(dump(r), expect) << workers << " workers";
    }

    ExplorerSpec shuffled = testSpec();
    shuffled.shuffleShards = true;
    shuffled.shuffleSeed = 99;
    const ExploreResult r = runExplore(shuffled, testWindow(), 2);
    EXPECT_EQ(dump(r), expect);
}

TEST(Explorer, InterruptAndResumeIsByteIdentical)
{
    const std::string expect =
        dump(runExplore(testSpec(), testWindow(), 2));

    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;

    // "Kill" after one shard: the budget runs out with work left.
    ExplorerSpec interrupted = spec;
    interrupted.maxShards = 1;
    {
        const ExploreResult r =
            runExplore(interrupted, testWindow(), 2);
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.shardsExecuted, 1u);
        EXPECT_EQ(r.shardsResumed, 0u);
        // The incomplete document is a stub without frontiers.
        EXPECT_NE(dump(r).find("\"completed\":false"),
                  std::string::npos);
        EXPECT_NE(dump(r).find("\"frontiers\":[]"), std::string::npos);
    }

    // Resume: the completed shard is loaded, the rest executed; the
    // document is byte-identical to the uninterrupted run's. Resume
    // under a different worker count and a shuffled order to stack
    // the invariances.
    ExplorerSpec resumed = spec;
    resumed.shuffleShards = true;
    resumed.shuffleSeed = 7;
    {
        const ExploreResult r = runExplore(resumed, testWindow(), 1);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.shardsResumed, 1u);
        EXPECT_EQ(r.shardsExecuted, 2u);
        EXPECT_EQ(dump(r), expect);
    }

    // Re-run over the now-complete directory: nothing executes.
    {
        const ExploreResult r = runExplore(spec, testWindow(), 2);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.shardsResumed, 3u);
        EXPECT_EQ(r.shardsExecuted, 0u);
        EXPECT_EQ(r.configRunsExecuted, 0u);
        EXPECT_EQ(dump(r), expect);
    }
}

TEST(Explorer, CheckpointFromDifferentSpecIsRejected)
{
    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;
    { runExplore(spec, testWindow(), 2); }

    // A different grid changes the signature.
    ExplorerSpec other = spec;
    other.vddGrid = {1.0, 0.9};
    EXPECT_THROW(runExplore(other, testWindow(), 2),
                 std::invalid_argument);

    // So does a different run window.
    RunConfig longer = testWindow();
    longer.measureAccesses *= 2;
    EXPECT_THROW(runExplore(spec, longer, 2), std::invalid_argument);
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** The checkpoint file names in @p dir, sorted. */
std::vector<std::string>
checkpointNames(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".ckpt")
            names.push_back(e.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

/** Stream-cache acquires so far: one per executed explorer job. */
std::uint64_t
streamLookups()
{
    const core::StreamCache::Stats s = core::globalStreamCache().stats();
    return s.hits + s.misses + s.bypasses;
}

/** Wait a little and require that no job ran meanwhile: nothing of
 *  the explore is left running. */
void
expectQuiescent()
{
    const std::uint64_t settled = streamLookups();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(streamLookups(), settled);
}

TEST(Explorer, ShardBudgetRunsAndCheckpointsExactlyThatManyShards)
{
    for (const unsigned workers : {1u, 4u}) {
        const std::uint64_t before_full = streamLookups();
        runExplore(testSpec(), testWindow(), workers);
        const std::uint64_t full = streamLookups() - before_full;

        for (const std::uint64_t budget : {1u, 2u}) {
            TempDir dir;
            ExplorerSpec spec = testSpec();
            spec.checkpointDir = dir.path;
            spec.maxShards = budget;
            const std::uint64_t l0 = streamLookups();
            const ExploreResult r = runExplore(spec, testWindow(), workers);
            const std::uint64_t interrupted = streamLookups() - l0;
            EXPECT_FALSE(r.completed);
            EXPECT_EQ(r.shardsExecuted, budget) << workers;
            EXPECT_EQ(checkpointNames(dir.path).size(), budget) << workers;

            // Finishing from the checkpoints runs every job exactly
            // once in all: the lookahead never ran a shard past the
            // budget.
            spec.maxShards = 0;
            const std::uint64_t l1 = streamLookups();
            EXPECT_TRUE(runExplore(spec, testWindow(), workers).completed);
            EXPECT_EQ(interrupted + (streamLookups() - l1), full)
                << workers << " workers, budget " << budget;
        }
    }
}

TEST(Explorer, CheckpointWriteFailureAbandonsTheShardInFlight)
{
    // Two shards of 8 cells (16 jobs each), with jobs long enough that
    // shard 0's reduction and failed checkpoint take far less time
    // than one job.
    ExplorerSpec base = testSpec();
    base.blocks = {32, 64};
    base.cellsPerShard = 8;
    RunConfig rc = testWindow();
    rc.measureAccesses = 50'000;
    const auto lookups = [&](std::uint64_t shards) {
        TempDir dir;
        ExplorerSpec spec = base;
        spec.checkpointDir = dir.path;
        spec.maxShards = shards;
        const std::uint64_t l0 = streamLookups();
        runExplore(spec, rc, 2);
        return streamLookups() - l0;
    };
    const std::uint64_t one_shard = lookups(1);
    const std::uint64_t two_shards = lookups(2);
    ASSERT_EQ(two_shards, 2 * one_shard);

    for (const unsigned workers : {1u, 2u}) {
        TempDir dir;
        ExplorerSpec spec = base;
        spec.checkpointDir = dir.path;
        // A directory where shard 0's temporary file goes: its
        // checkpoint fails while shard 1 is queued behind it.
        std::filesystem::create_directories(dir.path + "/shard-0.ckpt.tmp");
        const std::uint64_t l0 = streamLookups();
        EXPECT_THROW(runExplore(spec, rc, workers), std::runtime_error);
        // Shard 0 ran; of shard 1 only the jobs the workers had
        // claimed when the checkpoint failed ran (about one per
        // worker), the rest were dropped.
        const std::uint64_t ran = streamLookups() - l0;
        EXPECT_GE(ran, one_shard) << workers;
        EXPECT_LT(ran, two_shards) << workers;
        expectQuiescent();
        EXPECT_TRUE(checkpointNames(dir.path).empty());
    }
}

TEST(Explorer, CancelledClientDrainsTheShardInFlight)
{
    // What c8td does when a client vanishes mid-explore: the explore
    // runs on the installed pool under the client's slot, and the slot
    // is cancelled once the first shard is checkpointed.
    core::SweepPool pool(2);
    core::setGlobalSweepPool(&pool);
    const core::SweepPool::ClientId client = pool.registerClient();

    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.cellsPerShard = 1; // 8 shards: most are left when it is cut
    spec.checkpointDir = dir.path;
    RunConfig rc = testWindow();
    rc.measureAccesses = 100'000;

    bool cancelled = false;
    std::thread explore([&] {
        const core::SweepPool::ClientScope scope(client);
        try {
            runExplore(spec, rc, 2);
        } catch (const core::JobCancelled &) {
            cancelled = true;
        }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!std::filesystem::exists(dir.path + "/shard-0.ckpt") &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.cancelClient(client);
    explore.join();

    EXPECT_TRUE(cancelled);
    expectQuiescent();
    EXPECT_EQ(pool.stats().queuedTasks, 0u);
    EXPECT_LT(checkpointNames(dir.path).size(), 8u);
    pool.unregisterClient(client);
    core::setGlobalSweepPool(nullptr);
}

TEST(Explorer, CheckpointBytesArePinnedAndWorkerCountInvariant)
{
    // FNV-1a over every checkpoint's name and bytes; the pinned value
    // is what the one-shard-at-a-time explorer wrote, so a pipelined
    // run must write the same files.
    const auto digest = [](const std::string &dir) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const std::string &name : checkpointNames(dir)) {
            for (const char c : name + '\0' + slurp(dir + "/" + name)) {
                h ^= static_cast<unsigned char>(c);
                h *= 0x100000001b3ull;
            }
        }
        return h;
    };
    for (const unsigned workers : {1u, 4u}) {
        TempDir dir;
        ExplorerSpec spec = testSpec();
        spec.checkpointDir = dir.path;
        runExplore(spec, testWindow(), workers);
        EXPECT_EQ(checkpointNames(dir.path).size(), 3u);
        EXPECT_EQ(digest(dir.path), 0x50addc976ef8c870ull)
            << workers << " workers";
    }
}

TEST(Explorer, ShardSpansShareTheTraceClock)
{
    TempDir dir;
    const std::string path = dir.path + "/trace.json";
    obs::setGlobalTracePath(path);
    runExplore(testSpec(), testWindow(), 2);
    obs::globalTrace()->close();
    const std::string text = slurp(path);

    // Start and duration of each shard's first job span.
    const auto firstJob = [&text](int shard) {
        const std::string key = "\"name\":\"explorer_test:shard" +
                                std::to_string(shard) + "/job0\"";
        const std::size_t at = text.find(key);
        EXPECT_NE(at, std::string::npos) << key;
        const std::size_t ts = text.find("\"ts\":", at);
        const std::size_t dur = text.find("\"dur\":", at);
        return std::pair<double, double>(std::stod(text.substr(ts + 5)),
                                         std::stod(text.substr(dur + 6)));
    };
    const auto s0 = firstJob(0), s1 = firstJob(1), s2 = firstJob(2);
    // In submission order on one clock: shard 1 is queued behind
    // shard 0, and shard 2 only once shard 0 has been completed.
    EXPECT_GE(s1.first, s0.first);
    EXPECT_GE(s2.first, s1.first);
    EXPECT_GE(s2.first, s0.first + s0.second);
}

TEST(Explorer, MalformedCheckpointFieldsNameTheFile)
{
    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;
    spec.maxShards = 1;
    runExplore(spec, testWindow(), 2);
    const std::string path = dir.path + "/shard-0.ckpt";
    const std::string good = slurp(path);

    const auto rejects = [&](const std::string &from, const std::string &to,
                             const std::string &why) {
        // Past the signature: every target is a header or point field.
        std::string bad = good;
        const std::size_t at = bad.find(from, good.find("\nskipped"));
        ASSERT_NE(at, std::string::npos) << from;
        bad.replace(at, from.size(), to);
        spit(path, bad);
        try {
            runExplore(spec, testWindow(), 2);
            ADD_FAILURE() << "loaded with " << to;
        } catch (const std::runtime_error &e) {
            const std::string want =
                "explorer: malformed checkpoint \"" + path + "\": " + why;
            EXPECT_EQ(std::string(e.what()).substr(0, want.size()), want);
        }
    };
    rejects(" lru ", " lrx ", "unknown replacement policy: lrx");
    rejects(" RMW ", " XYZ ", "unknown write scheme: XYZ");
    rejects(" 0x", " zz0x", "bad number \"zz0x1");
    rejects("p gcc 16384 ", "p gcc -16384 ", "bad count \"-16384\"");
    rejects(" 32 lru ", " 32x lru ", "bad count \"32x\"");
    rejects("skipped 0", "skipped 4",
            "more cells skipped than the shard holds");
    rejects("skipped 0", "skipped 1",
            "point count does not match the cells run");
    rejects("points 6", "points 5",
            "point count does not match the cells run");
    spit(path, good);
    EXPECT_NO_THROW(runExplore(spec, testWindow(), 2));
}

/** Up to three random edits of @p s: a byte overwritten, erased or
 *  inserted, a cut, a token replaced, a line doubled or dropped. */
std::string
mutateCheckpoint(std::string s, std::mt19937_64 &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    static const char *const kTokens[] = {
        "",     "0",   "1",  "-1",  "2",   "7",    "lrx",  "nan",
        "inf",  "p",   "RMW", "end", "0x1p+9999", "99999999999999999999",
        "18446744073709551615", "4294967296", "0x", "sig", "points"};
    const std::size_t edits = 1 + pick(3);
    for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
        switch (pick(7)) {
          case 0: s[pick(s.size())] = static_cast<char>(rng()); break;
          case 1: s.erase(pick(s.size()), 1 + pick(8)); break;
          case 2:
            s.insert(pick(s.size() + 1), 1,
                     " 0123456789abcdefpx.-\n"[pick(22)]);
            break;
          case 3: s.resize(pick(s.size())); break;
          case 4: {
            // Replace the token starting at a random token boundary.
            std::size_t at = pick(s.size());
            while (at > 0 && s[at - 1] != ' ' && s[at - 1] != '\n')
                --at;
            std::size_t end = at;
            while (end < s.size() && s[end] != ' ' && s[end] != '\n')
                ++end;
            s.replace(at, end - at,
                      kTokens[pick(sizeof(kTokens) / sizeof(*kTokens))]);
            break;
          }
          default: {
            // Double or drop one line.
            std::size_t at = pick(s.size());
            while (at > 0 && s[at - 1] != '\n')
                --at;
            const std::size_t nl = s.find('\n', at);
            const std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
            if (pick(2))
                s.insert(at, s.substr(at, end - at));
            else
                s.erase(at, end - at);
            break;
          }
        }
    }
    return s;
}

TEST(Explorer, CheckpointMutantsLoadOrNameTheFile)
{
    // One 8-cell shard: a mutant that loads completes the explore
    // without running anything.
    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.cellsPerShard = 8;
    spec.checkpointDir = dir.path;
    runExplore(spec, testWindow(), 2);
    const std::string path = dir.path + "/shard-0.ckpt";
    const std::string original = slurp(path);
    const std::string malformed =
        "explorer: malformed checkpoint \"" + path + "\": ";
    const std::string other_spec = "explorer: checkpoint \"" + path +
                                   "\" was written by a different spec";

    std::mt19937_64 rng(2012);
    unsigned loaded = 0, rejected = 0;
    for (int i = 0; i < 400; ++i) {
        const std::string mutant = mutateCheckpoint(original, rng);
        spit(path, mutant);
        try {
            const ExploreResult r = runExplore(spec, testWindow(), 2);
            EXPECT_TRUE(r.completed);
            EXPECT_EQ(r.shardsExecuted, 0u);
            ++loaded;
        } catch (const std::exception &e) {
            const std::string what = e.what();
            EXPECT_TRUE(what.rfind(malformed, 0) == 0 ||
                        what.rfind(other_spec, 0) == 0)
                << "mutant " << i << ": " << what << "\n"
                << mutant;
            ++rejected;
        }
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 300u);
}

TEST(Explorer, StreamCacheDedupKeepsHitRateHigh)
{
    // 4 geometries × 2 grid points per workload = 8 acquires of the
    // same stream: 1 miss + 7 hits → 87.5 % (the acceptance bar is
    // > 50 % on a dedup-friendly grid).
    const ExploreResult r = runExplore(testSpec(), testWindow(), 1);
    EXPECT_GT(r.streamCacheHitRate, 0.5);
}

TEST(Explorer, InvalidGeometriesAreSkippedDeterministically)
{
    ExplorerSpec spec = testSpec();
    // A 16 KiB cache cannot be 512-way × 32 B (sets would vanish);
    // those cells must be skipped, not fail the explore.
    spec.ways = {2, 512};
    const ExploreResult a = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.cellsSkipped, 0u);
    EXPECT_LT(a.cellsSkipped, a.cellsTotal);
    EXPECT_EQ(a.summaries.size(),
              (a.cellsTotal - a.cellsSkipped) * spec.schemes.size());
    const ExploreResult b = runExplore(spec, testWindow(), 1);
    EXPECT_EQ(dump(a), dump(b));
}

TEST(Explorer, NominalOnlyGridRunsDetached)
{
    ExplorerSpec spec = testSpec();
    spec.vddGrid.clear(); // nominal-only
    const ExploreResult r = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.configRunsExecuted, 16u); // one grid point, 2 schemes
    for (const DesignPointSummary &p : r.summaries) {
        EXPECT_TRUE(p.operational);
        EXPECT_EQ(p.minVdd, spec.model.nominalVdd);
        EXPECT_GT(p.energyPerAccess, 0.0);
        EXPECT_GT(p.cyclesPerAccess, 0.0);
    }
}

TEST(Explorer, FrontierIsTheNonDominatedSet)
{
    const ExploreResult r = runExplore(testSpec(), testWindow(), 2);
    ASSERT_TRUE(r.completed);

    for (const std::string &w : r.workloads) {
        const auto front = r.frontier(w);
        ASSERT_FALSE(front.empty()) << w;

        // Every operational point off the frontier is dominated by
        // some frontier point; no frontier point dominates another.
        for (const DesignPointSummary &p : r.summaries) {
            if (p.workload != w || !p.operational)
                continue;
            bool dominated = false;
            for (const DesignPointSummary *q : front) {
                if (q == &p)
                    continue;
                const bool no_worse =
                    q->energyPerAccess <= p.energyPerAccess &&
                    q->edpPerAccess <= p.edpPerAccess &&
                    q->minVdd <= p.minVdd;
                const bool better =
                    q->energyPerAccess < p.energyPerAccess ||
                    q->edpPerAccess < p.edpPerAccess ||
                    q->minVdd < p.minVdd;
                if (no_worse && better) {
                    dominated = true;
                    break;
                }
            }
            EXPECT_EQ(p.onFrontier, !dominated)
                << w << " " << p.sizeBytes << "/" << p.ways << " "
                << p.scheme;
        }

        // The 8T scheme unlocks a lower min-Vdd than anything the
        // explorer would report for a failing configuration: frontier
        // points are all operational.
        for (const DesignPointSummary *q : front)
            EXPECT_TRUE(q->operational);
    }
}

TEST(Explorer, SingleCellMatchesRunVddSweepAtMinVdd)
{
    // One cell (gcc, 64 KB/4w/32 B/LRU, default grid) through both
    // drivers, single-level and with a 256 KB L2: every summary must
    // be bit-equal to the vdd sweep's curve at its min-Vdd point.
    for (const bool hierarchy : {false, true}) {
        ExplorerSpec espec;
        espec.label = "explorer_test_cross";
        espec.workloads = {"gcc"};
        espec.sizesKb = {64};
        espec.ways = {4};
        espec.blocks = {32};
        espec.vddGrid = sram::VddModel::defaultGrid();
        if (hierarchy)
            espec.l2SizesKb = {256};
        const ExploreResult er = runExplore(espec, testWindow(), 2);
        ASSERT_TRUE(er.completed);
        ASSERT_EQ(er.summaries.size(), espec.schemes.size());

        core::VddSweepSpec vspec;
        vspec.cache = mem::CacheConfig{64 * 1024, 4, 32};
        vspec.schemes = espec.schemes;
        if (hierarchy) {
            core::LevelConfig l2;
            l2.cache = mem::CacheConfig{256 * 1024, 8, 32};
            vspec.lowerLevels = {l2};
        }
        vspec.makeGenerator = [] {
            return std::make_unique<trace::MarkovStream>(
                trace::specProfile("gcc"));
        };
        vspec.streamKey = trace::streamSignature(trace::specProfile("gcc"));
        const core::VddSweepResult vr =
            core::runVddSweep(vspec, testWindow(), 2);

        for (const DesignPointSummary &p : er.summaries) {
            SCOPED_TRACE(p.scheme + (hierarchy ? " +l2" : ""));
            const core::VddCurve *c =
                vr.curve(core::parseWriteScheme(p.scheme));
            ASSERT_NE(c, nullptr);
            EXPECT_EQ(p.minVdd, c->minVdd);
            EXPECT_EQ(p.operational, c->minVdd > 0.0);
            const core::VddPointResult *at = nullptr;
            for (const core::VddPointResult &pt : c->points) {
                if (pt.vdd == c->minVdd)
                    at = &pt;
            }
            ASSERT_NE(at, nullptr);
            EXPECT_EQ(p.energyPerAccess, at->energyPerAccess);
            EXPECT_EQ(p.edpPerAccess, at->edpPerAccess);
            EXPECT_EQ(p.cyclesPerAccess, at->cyclesPerAccess);
        }
    }
}

/** Run one cell (gcc, 16 KB/4w L1, optionally over a 32 KB/8w L2) on
 *  @p grid through the explorer and require every summary to equal a
 *  reference that runs each (grid point, scheme) config through a
 *  runner of its own. */
void
expectCellMatchesPerConfigReference(const std::vector<double> &grid,
                                    bool hierarchy)
{
    ExplorerSpec espec;
    espec.label = "explorer_test_ref";
    espec.workloads = {"gcc"};
    espec.sizesKb = {16};
    espec.ways = {4};
    espec.blocks = {32};
    if (hierarchy)
        espec.l2SizesKb = {32};
    espec.schemes = {WriteScheme::Rmw, WriteScheme::WriteGrouping};
    espec.vddGrid = grid;
    espec.faultRows = 128;

    core::VddSweepSpec vspec;
    vspec.grid = espec.vddGrid;
    vspec.faultRows = espec.faultRows;
    vspec.cache = mem::CacheConfig{16 * 1024, 4, 32};
    vspec.schemes = espec.schemes;
    if (hierarchy) {
        core::LevelConfig l2;
        l2.cache = mem::CacheConfig{32 * 1024, 8, 32};
        vspec.lowerLevels = {l2};
    }
    vspec.makeGenerator = [] {
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
    const std::vector<core::VddCurve> want =
        core::referenceCurves(vspec, testWindow());

    for (const unsigned workers : {1u, 4u}) {
        const ExploreResult er = runExplore(espec, testWindow(), workers);
        ASSERT_TRUE(er.completed);
        ASSERT_EQ(er.summaries.size(), want.size());
        for (const DesignPointSummary &p : er.summaries) {
            SCOPED_TRACE(p.scheme + " at " + std::to_string(workers) +
                         " workers");
            const core::VddCurve *c = nullptr;
            for (const core::VddCurve &curve : want) {
                if (curve.scheme == p.scheme)
                    c = &curve;
            }
            ASSERT_NE(c, nullptr);
            const core::VddPointResult *at = core::minVddPoint(*c);
            const core::VddPointResult &pt = at ? *at : c->points.front();
            EXPECT_EQ(p.l2SizeBytes, hierarchy ? 32u * 1024 : 0u);
            EXPECT_EQ(p.minVdd, c->minVdd);
            EXPECT_EQ(p.operational, at != nullptr);
            EXPECT_EQ(p.energyPerAccess, pt.energyPerAccess);
            EXPECT_EQ(p.edpPerAccess, pt.edpPerAccess);
            EXPECT_EQ(p.cyclesPerAccess, pt.cyclesPerAccess);
            EXPECT_EQ(p.missRate,
                      static_cast<double>(pt.run.misses) /
                          static_cast<double>(pt.run.requests));
        }
    }
}

TEST(Explorer, HierarchyCellMatchesPerConfigReference)
{
    // Each (grid point, scheme) of a two-level cell is a job of its
    // own: no two of these supplies resolve alike.
    expectCellMatchesPerConfigReference({1.0, 0.8, 0.6}, true);
}

TEST(Explorer, SharedTimingClassCellMatchesPerConfigReference)
{
    // 0.9 V and 0.8 V resolve to the same latency cycles, so the
    // cell's jobs replay them once and price each point on its own.
    for (const bool hierarchy : {false, true}) {
        SCOPED_TRACE(hierarchy ? "hierarchy" : "single level");
        expectCellMatchesPerConfigReference({1.0, 0.9, 0.8}, hierarchy);
    }
}

} // namespace
