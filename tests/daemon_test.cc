/**
 * @file
 * c8td daemon tests (DESIGN.md §13): golden byte-identity against the
 * shared job path, cross-request memoization and single-flight
 * coalescing of concurrent identical requests, protocol robustness
 * (truncated frames, oversized prefixes, bad and oversized specs),
 * mid-job client disconnect, concurrent clients, the SIGTERM-style
 * drain, the phase rollup of profiled jobs, and the bounds of the one
 * poll loop: a thousand connections on a fixed thread count, running
 * out of descriptors, clients that stop reading and a serve() that
 * fails to bind.
 *
 * The daemon runs in-process (serve() on a thread, stop() to end it);
 * the CI daemon stage covers the real c8td/c8tctl binaries and the
 * actual SIGTERM path.
 */

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/job_runner.hh"
#include "core/job_spec.hh"
#include "core/worker_pool.hh"
#include "net/client.hh"
#include "net/daemon.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace
{

using namespace c8t;
using namespace std::chrono_literals;

/** A short, deterministic run spec (same stream every time). */
const char kRunSpec[] =
    "{\"kind\":\"run\",\"workload\":\"spec:gcc\",\"accesses\":50000}";

std::string
uniqueSocketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/c8t_daemon_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** serve() on a thread; joins (after stop()) on destruction. */
class DaemonFixture
{
  public:
    explicit DaemonFixture(net::DaemonConfig cfg = {})
    {
        if (cfg.socketPath.empty())
            cfg.socketPath = uniqueSocketPath();
        _daemon = std::make_unique<net::Daemon>(cfg);
        _thread = std::thread([this] { _daemon->serve(); });
        const auto deadline =
            std::chrono::steady_clock::now() + 10s;
        while (!_daemon->ready()) {
            if (std::chrono::steady_clock::now() >= deadline) {
                ADD_FAILURE() << "daemon did not come up";
                break;
            }
            std::this_thread::sleep_for(1ms);
        }
    }

    ~DaemonFixture()
    {
        _daemon->stop();
        _thread.join();
        std::remove(_daemon->config().socketPath.c_str());
    }

    net::Daemon &daemon() { return *_daemon; }
    const std::string &socket() const
    {
        return _daemon->config().socketPath;
    }

  private:
    std::unique_ptr<net::Daemon> _daemon;
    std::thread _thread;
};

/** Poll a metrics predicate until true or a 30 s deadline. */
template <typename Fn>
bool
eventually(Fn &&pred)
{
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return false;
}

/** What one request got back: its final document or error payload,
 *  and how many partial frames preceded it. */
struct Reply
{
    std::string final;
    std::string error;
    int partials = 0;
};

/** Read frames until the next final or error frame. */
Reply
readReply(net::DaemonClient &client)
{
    Reply r;
    net::Frame f;
    while (client.read(f)) {
        if (f.type == net::FrameType::Partial)
            ++r.partials;
        if (f.type == net::FrameType::Final) {
            r.final = f.payload;
            break;
        }
        if (f.type == net::FrameType::Error) {
            r.error = f.payload;
            break;
        }
    }
    return r;
}

/** Run @p per_client(i, client) on @p n freshly connected clients,
 *  released together once all are connected. */
template <typename Fn>
void
withConcurrentClients(const std::string &socket, std::size_t n,
                      Fn &&per_client)
{
    std::barrier<> start(static_cast<std::ptrdiff_t>(n));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            net::DaemonClient client(socket);
            start.arrive_and_wait();
            per_client(i, client);
        });
    }
    for (auto &t : threads)
        t.join();
}

TEST(DaemonTest, FinalFrameIsByteIdenticalToJobRunner)
{
    // The expected document comes from the same shared path c8tsim
    // uses; the CI daemon stage additionally diffs against the real
    // c8tsim binary's --stats-json file.
    const std::string expected =
        app::runJobSpec(core::JobSpec::fromJsonText(kRunSpec))
            .document;

    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    EXPECT_EQ(client.call(kRunSpec), expected);
}

TEST(DaemonTest, VddSweepAndExploreKindsMatchJobRunner)
{
    const std::string vdd_spec =
        "{\"kind\":\"vdd_sweep\",\"workload\":\"spec:gcc\","
        "\"accesses\":20000,\"vdd\":0.75}";
    const std::string explore_spec =
        "{\"kind\":\"explore\",\"accesses\":10000,\"explore\":{"
        "\"workloads\":[\"gcc\"],\"sizes_kb\":[16],\"ways\":[2],"
        "\"blocks\":[32]}}";
    const std::string expected_vdd =
        app::runJobSpec(core::JobSpec::fromJsonText(vdd_spec)).document;
    const std::string expected_explore =
        app::runJobSpec(core::JobSpec::fromJsonText(explore_spec))
            .document;

    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    EXPECT_EQ(client.call(vdd_spec), expected_vdd);
    EXPECT_EQ(client.call(explore_spec), expected_explore);
}

/** c8t_phase_scopes_total{phase="serialize"} as the exposition reads
 *  now. */
std::uint64_t
exposedSerializeScopes()
{
    std::ostringstream os;
    obs::globalMetrics().writePrometheus(os);
    const std::string text = os.str();
    const std::string key =
        "c8t_phase_scopes_total{phase=\"serialize\"} ";
    const std::size_t at = text.find(key);
    return at == std::string::npos
               ? 0
               : std::stoull(text.substr(at + key.size()));
}

TEST(DaemonTest, ProfiledJobsSerializeScopesReachTheExposition)
{
    // A job's result document is built under Serialize scopes on the
    // connection's executor thread, after its sweep has folded the
    // worker phases; the daemon folds that thread at job completion.
    const std::string vdd_spec =
        "{\"kind\":\"vdd_sweep\",\"workload\":\"spec:gcc\","
        "\"accesses\":20000,\"vdd\":0.75}";
    obs::prof::setEnabled(true);
    struct ProfilerOff
    {
        ~ProfilerOff() { obs::prof::setEnabled(false); }
    } profiler_off;

    // Reference: the scopes one such job enters, folded on this thread.
    obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
    std::uint64_t before = exposedSerializeScopes();
    app::runJobSpec(core::JobSpec::fromJsonText(vdd_spec), 0, {},
                    /*includeProfile=*/false);
    obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
    const std::uint64_t per_job = exposedSerializeScopes() - before;
    ASSERT_GT(per_job, 1u); // the sweep's own scope plus the document's

    DaemonFixture fx;
    before = exposedSerializeScopes();
    net::DaemonClient client(fx.socket());
    client.call(vdd_spec);
    // A memo hit enters no scope; its final frame follows the first
    // job's completion on the same connection.
    client.call(vdd_spec);
    EXPECT_EQ(exposedSerializeScopes() - before, per_job);
}

TEST(DaemonTest, SecondIdenticalRequestIsAMemoHit)
{
    DaemonFixture fx;
    const std::uint64_t memo_before =
        obs::globalMetrics().daemon().memoHits;

    net::DaemonClient first(fx.socket());
    const std::string a = first.call(kRunSpec);

    // A different client, same spec: byte-identical answer, served
    // from the whole-result memo without re-running the simulation.
    net::DaemonClient second(fx.socket());
    const std::string b = second.call(kRunSpec);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().memoHits > memo_before;
    }));
}

TEST(DaemonTest, EquivalentSpecsShareTheMemoEntry)
{
    DaemonFixture fx;
    const std::uint64_t memo_before =
        obs::globalMetrics().daemon().memoHits;
    net::DaemonClient client(fx.socket());
    const std::string a = client.call(kRunSpec);
    // Key order and explicit defaults don't matter: the memo keys on
    // the canonical spec serialization, not the request bytes.
    const std::string b = client.call(
        "{\"accesses\":50000,\"workload\":\"spec:gcc\","
        "\"kind\":\"run\",\"warmup\":0}");
    EXPECT_EQ(a, b);
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().memoHits > memo_before;
    }));
}

TEST(DaemonTest, BadSpecGetsErrorFrameAndConnectionSurvives)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());

    client.submit("{\"kind\":\"run\",\"acceses\":5}");
    client.submit(kRunSpec);

    net::Frame f;
    bool saw_error = false;
    std::string final_doc;
    while (client.read(f)) {
        if (f.type == net::FrameType::Error) {
            EXPECT_NE(f.payload.find("acceses"), std::string::npos);
            EXPECT_NE(f.payload.find("\"job\":0"), std::string::npos);
            saw_error = true;
        } else if (f.type == net::FrameType::Final) {
            final_doc = f.payload;
            break;
        }
    }
    EXPECT_TRUE(saw_error);
    EXPECT_FALSE(final_doc.empty());
}

TEST(DaemonTest, ProgressAndPartialFramesCarryTheJobIndex)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    client.submit(kRunSpec);

    bool saw_partial = false;
    net::Frame f;
    while (client.read(f)) {
        if (f.type == net::FrameType::Partial) {
            EXPECT_NE(f.payload.find("\"job\":0"), std::string::npos);
            EXPECT_NE(f.payload.find("\"scheme\""), std::string::npos);
            saw_partial = true;
        }
        if (f.type == net::FrameType::Final)
            break;
    }
    EXPECT_TRUE(saw_partial);
}

TEST(DaemonTest, OversizedLengthPrefixGetsProtocolError)
{
    DaemonFixture fx;
    net::Fd fd = net::connectUnix(fx.socket());
    const char header[5] = {1, '\x7f', '\xff', '\xff', '\xff'};
    net::writeAll(fd.get(), header, sizeof(header));

    net::FrameReader reader;
    char buf[4096];
    std::string error_payload;
    for (;;) {
        const std::size_t n = net::readSome(fd.get(), buf, sizeof(buf));
        if (n == 0)
            break;
        reader.feed(buf, n);
        net::Frame f;
        while (reader.next(f)) {
            if (f.type == net::FrameType::Error)
                error_payload = f.payload;
        }
    }
    EXPECT_NE(error_payload.find("length prefix"), std::string::npos);
}

TEST(DaemonTest, NonRequestFrameFromClientGetsProtocolError)
{
    DaemonFixture fx;
    net::Fd fd = net::connectUnix(fx.socket());
    const std::string bytes =
        net::encodeFrame(net::FrameType::Progress, "{}");
    net::writeAll(fd.get(), bytes.data(), bytes.size());

    net::FrameReader reader;
    char buf[4096];
    std::string error_payload;
    for (;;) {
        const std::size_t n = net::readSome(fd.get(), buf, sizeof(buf));
        if (n == 0)
            break;
        reader.feed(buf, n);
        net::Frame f;
        while (reader.next(f)) {
            if (f.type == net::FrameType::Error)
                error_payload = f.payload;
        }
    }
    EXPECT_NE(error_payload.find("progress"), std::string::npos);
}

TEST(DaemonTest, TruncatedFrameAtEofDoesNotWedgeTheDaemon)
{
    DaemonFixture fx;
    {
        // Header promises 100 bytes; only 10 arrive, then the client
        // vanishes mid-frame.
        net::Fd fd = net::connectUnix(fx.socket());
        const std::string full = net::encodeFrame(
            net::FrameType::Request, std::string(100, 'x'));
        net::writeAll(fd.get(), full.data(), 15);
    }
    // The daemon must shrug that off and keep serving.
    net::DaemonClient client(fx.socket());
    EXPECT_FALSE(client.call(kRunSpec).empty());
}

TEST(DaemonTest, MidJobDisconnectCancelsTheJob)
{
    net::DaemonConfig cfg;
    cfg.workers = 1;     // serialize tasks so one is dropped pending
    cfg.heartbeatMs = 10; // fast write-side disconnect detection
    DaemonFixture fx(cfg);

    const std::uint64_t cancelled_before =
        obs::globalMetrics().daemon().jobsCancelled;
    {
        net::DaemonClient client(fx.socket());
        // Big enough to still be running when the client vanishes.
        client.submit(
            "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
            "\"accesses\":2000000}");
        std::this_thread::sleep_for(50ms);
        client.close(); // vanish, no half-close courtesy
    }
    // The next heartbeat/progress write fails (EPIPE), which cancels
    // the client's pool slot; the executor records the cancellation.
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().jobsCancelled >
               cancelled_before;
    }));
}

TEST(DaemonTest, ConcurrentClientsAllGetCorrectBytes)
{
    const std::vector<std::string> specs = {
        "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
        "\"accesses\":40000}",
        "{\"kind\":\"run\",\"workload\":\"spec:mcf\","
        "\"accesses\":40000}",
        "{\"kind\":\"run\",\"workload\":\"kernel:hash_update\","
        "\"accesses\":40000}",
    };
    std::vector<std::string> expected;
    for (const std::string &s : specs) {
        expected.push_back(
            app::runJobSpec(core::JobSpec::fromJsonText(s)).document);
    }

    DaemonFixture fx;
    std::vector<std::string> got(specs.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        clients.emplace_back([&, i] {
            net::DaemonClient client(fx.socket());
            got[i] = client.call(specs[i]);
        });
    }
    for (auto &t : clients)
        t.join();
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << specs[i];
}

TEST(DaemonTest, ConcurrentIdenticalRequestsComputeOnce)
{
    // Long enough that every client's request lands while the first
    // one is still computing.
    const std::string spec =
        "{\"kind\":\"run\",\"workload\":\"spec:mcf\","
        "\"accesses\":300000}";
    const std::string expected =
        app::runJobSpec(core::JobSpec::fromJsonText(spec)).document;

    constexpr std::size_t kClients = 4;
    DaemonFixture fx;
    std::vector<Reply> got(kClients);
    withConcurrentClients(fx.socket(), kClients,
                          [&](std::size_t i, net::DaemonClient &c) {
                              c.submit(spec);
                              got[i] = readReply(c);
                          });

    int computing = 0;
    for (const Reply &r : got) {
        EXPECT_EQ(r.final, expected);
        computing += r.partials > 0;
    }
    // One leader streamed partials; the others waited for its result
    // and were served from the memo with their final frame alone.
    EXPECT_EQ(computing, 1);
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().jobsSucceeded == kClients;
    }));
    EXPECT_EQ(obs::globalMetrics().daemon().memoHits, kClients - 1);
}

TEST(DaemonTest, FollowerComputesWhenTheLeadersClientVanishes)
{
    net::DaemonConfig cfg;
    cfg.workers = 1;      // the leader's second scheme stays pending
    cfg.heartbeatMs = 10; // fast write-side disconnect detection
    const std::string spec =
        "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
        "\"accesses\":2000000}";
    const std::string expected =
        app::runJobSpec(core::JobSpec::fromJsonText(spec)).document;

    DaemonFixture fx(cfg);
    const auto waitForHeartbeat = [](net::DaemonClient &c) {
        net::Frame f;
        while (c.read(f)) {
            if (f.type == net::FrameType::Progress &&
                f.payload.find("heartbeat") != std::string::npos)
                return;
        }
        ADD_FAILURE() << "connection closed before a heartbeat";
    };

    net::DaemonClient leader(fx.socket());
    leader.submit(spec);
    waitForHeartbeat(leader); // the leader's job is running
    net::DaemonClient follower(fx.socket());
    follower.submit(spec);
    waitForHeartbeat(follower); // the follower's job waits on it
    leader.close();             // vanish mid-job

    // The leader's job is cancelled; the follower does not inherit
    // that, but computes the spec itself under its own pool slot.
    const Reply r = readReply(follower);
    EXPECT_EQ(r.final, expected);
    EXPECT_GT(r.partials, 0);
    EXPECT_TRUE(eventually([&] {
        const obs::Metrics::DaemonSnapshot d =
            obs::globalMetrics().daemon();
        return d.jobsCancelled == 1 && d.jobsSucceeded == 1;
    }));
    EXPECT_EQ(obs::globalMetrics().daemon().memoHits, 0u);
}

TEST(DaemonTest, FailingSpecGivesEveryRequesterItsOwnError)
{
    // Parses and validates, then fails inside runJobSpec.
    const std::string bad =
        "{\"kind\":\"run\",\"workload\":\"spec:no_such_bench\","
        "\"accesses\":20000}";
    const std::string good =
        "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
        "\"accesses\":20000}";
    const std::string expected =
        app::runJobSpec(core::JobSpec::fromJsonText(good)).document;

    constexpr std::size_t kClients = 3;
    DaemonFixture fx;
    std::vector<Reply> errors(kClients), after(kClients);
    std::barrier<> aligned(static_cast<std::ptrdiff_t>(kClients));
    withConcurrentClients(
        fx.socket(), kClients, [&](std::size_t i, net::DaemonClient &c) {
            // Client i's failing request is its job i.
            for (std::size_t k = 0; k < i; ++k)
                EXPECT_EQ(c.call(good), expected);
            aligned.arrive_and_wait();
            c.submit(bad);
            errors[i] = readReply(c);
            c.submit(good);
            after[i] = readReply(c);
        });

    for (std::size_t i = 0; i < kClients; ++i) {
        EXPECT_TRUE(errors[i].final.empty());
        EXPECT_NE(errors[i].error.find("\"job\":" + std::to_string(i) +
                                       ","),
                  std::string::npos)
            << errors[i].error;
        EXPECT_NE(errors[i].error.find("no_such_bench"),
                  std::string::npos);
        // The connection survives the failure.
        EXPECT_EQ(after[i].final, expected);
    }
}

TEST(DaemonTest, OversizedSpecGetsAdmissionErrorFrame)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    client.submit(
        "{\"kind\":\"run\",\"accesses\":1000000000000000}");
    const Reply r = readReply(client);
    EXPECT_TRUE(r.final.empty());
    EXPECT_NE(r.error.find("\"job\":0,"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("too large"), std::string::npos) << r.error;
    // Rejected at admission, so the connection serves the next job.
    EXPECT_FALSE(client.call(kRunSpec).empty());

    // A 128 GiB cache, and a size_kb that wraps to 64 KB when
    // multiplied before the check: both too large at admission.
    for (const char *size_kb : {"134217728", "18014398509482048"}) {
        client.submit(std::string("{\"kind\":\"run\",\"cache\":{"
                                  "\"size_kb\":") +
                      size_kb + ",\"ways\":4,\"block\":32}}");
        const Reply big = readReply(client);
        EXPECT_TRUE(big.final.empty()) << size_kb;
        EXPECT_NE(big.error.find("too large"), std::string::npos)
            << big.error;
    }
    EXPECT_FALSE(client.call(kRunSpec).empty());
}

TEST(DaemonTest, LowerLevelSmallerThanItsUpperGetsAdmissionErrorFrame)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    // An L2 below the default 64 KB L1, then an L3 below its L2: each
    // is a typed spec error at admission, never a LevelStack failure
    // on a worker.
    for (const char *levels :
         {"[{\"size_kb\":16}]", "[{\"size_kb\":256},{\"size_kb\":128}]"}) {
        client.submit(std::string("{\"kind\":\"run\",\"workload\":"
                                  "\"spec:gcc\",\"accesses\":2000,"
                                  "\"levels\":") +
                      levels + "}");
        const Reply r = readReply(client);
        EXPECT_TRUE(r.final.empty()) << levels;
        EXPECT_NE(r.error.find("\"job\":"), std::string::npos) << r.error;
        EXPECT_NE(r.error.find("job spec: levels[].size_kb"),
                  std::string::npos)
            << r.error;
        EXPECT_NE(r.error.find("smaller than the level above it"),
                  std::string::npos)
            << r.error;
        EXPECT_EQ(r.error.find("LevelStack"), std::string::npos)
            << r.error;
    }
    // The connection serves the next job.
    EXPECT_FALSE(client.call(kRunSpec).empty());
}

TEST(DaemonTest, StopDrainsAcceptedJobs)
{
    net::DaemonConfig cfg;
    cfg.heartbeatMs = 10; // frequent metric publication for the poll
    DaemonFixture fx(cfg);
    // Read after the fixture is up: the global snapshot is then this
    // daemon's, whose counters start from zero.
    const std::uint64_t accepted_before =
        obs::globalMetrics().daemon().jobsAccepted;
    net::DaemonClient client(fx.socket());
    client.submit(kRunSpec);
    client.submit(
        "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
        "\"accesses\":60000}");

    // Wait until the reader has actually accepted both requests, then
    // ask for shutdown: a drain, not an abort.
    ASSERT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().jobsAccepted >=
               accepted_before + 2;
    }));
    fx.daemon().stop();

    int finals = 0;
    net::Frame f;
    while (client.read(f)) {
        if (f.type == net::FrameType::Final) {
            EXPECT_FALSE(f.payload.empty());
            ++finals;
        }
        EXPECT_NE(f.type, net::FrameType::Error);
    }
    // Both accepted jobs were answered before the connection closed.
    EXPECT_EQ(finals, 2);
}

/** Entries of a /proc/self directory (threads, open descriptors). */
std::size_t
procEntries(const char *dir)
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(dir))
        ++n;
    return n;
}

/**
 * Run @p body in a death-test child under a 60 s alarm, expecting it
 * to return true: a body that hangs, aborts or fails a check fails the
 * test instead of wedging the suite.
 */
template <typename Fn>
void
expectInChild(Fn &&body)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            ::alarm(60);
            std::exit(body() ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

const char kVddSpec[] =
    "{\"kind\":\"vdd_sweep\",\"workload\":\"spec:gcc\","
    "\"accesses\":20000}";

/**
 * Pipeline @p n Vdd-sweep requests on @p client and never read: once
 * the socket buffer is full, their finals queue inside the daemon.
 * Returns once no job runs and the succeeded count holds still.
 */
bool
stall(net::DaemonClient &client, int n)
{
    for (int i = 0; i < n; ++i)
        client.submit(kVddSpec);
    std::uint64_t last = ~std::uint64_t{0};
    for (int i = 0; i < 600; ++i) {
        std::this_thread::sleep_for(50ms);
        const obs::Metrics::DaemonSnapshot d = obs::globalMetrics().daemon();
        if (d.jobsSucceeded > 0 && d.jobsRunning == 0 &&
            d.jobsSucceeded == last)
            return true;
        last = d.jobsSucceeded;
    }
    std::cerr << "the stalled client's jobs never settled\n";
    return false;
}

TEST(DaemonTest, ThousandConnectionsKeepTheThreadCountBounded)
{
    rlimit lim{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
    lim.rlim_cur = lim.rlim_max;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
    if (lim.rlim_cur < 2100) {
        GTEST_SKIP() << "RLIMIT_NOFILE hard limit " << lim.rlim_max
                     << " is under the 2100 descriptors 1000 "
                        "connections need";
    }

    constexpr std::size_t kConnections = 1000, kPipelining = 10;
    constexpr std::size_t kSpecs = 8;
    std::vector<std::string> specs, expected;
    for (std::size_t k = 0; k < kSpecs; ++k) {
        specs.push_back("{\"kind\":\"run\",\"workload\":\"spec:gcc\","
                        "\"accesses\":" +
                        std::to_string(2000 * (k + 1)) + "}");
        expected.push_back(
            app::runJobSpec(core::JobSpec::fromJsonText(specs.back()))
                .document);
    }

    const std::size_t before = procEntries("/proc/self/task");
    net::DaemonConfig cfg;
    cfg.workers = 2;
    DaemonFixture fx(cfg);
    // Pool workers, one executor per worker, the serve() thread and
    // one spare.
    const std::size_t bound = before + 2 * cfg.workers + 2;
    std::size_t peak = 0;
    const auto sample = [&] {
        peak = std::max(peak, procEntries("/proc/self/task"));
    };

    std::vector<std::unique_ptr<net::DaemonClient>> clients;
    for (std::size_t i = 0; i < kConnections; ++i) {
        clients.push_back(std::make_unique<net::DaemonClient>(fx.socket()));
        if (i % 100 == 0)
            sample();
    }
    // Every 100th connection pipelines maxInflight requests; the other
    // 990 stay idle.
    const auto specFor = [&](std::size_t c, std::size_t k) {
        return (c + k) % kSpecs;
    };
    for (std::size_t c = 0; c < kPipelining; ++c) {
        for (std::size_t k = 0; k < cfg.maxInflight; ++k)
            clients[c * 100]->submit(specs[specFor(c, k)]);
    }
    sample();
    for (std::size_t c = 0; c < kPipelining; ++c) {
        for (std::size_t k = 0; k < cfg.maxInflight; ++k) {
            const Reply r = readReply(*clients[c * 100]);
            EXPECT_TRUE(r.error.empty()) << r.error;
            EXPECT_EQ(r.final, expected[specFor(c, k)])
                << "client " << c << " job " << k;
            sample();
        }
    }
    EXPECT_LE(peak, bound) << "threads before the daemon: " << before;
}

TEST(DaemonTest, RunningOutOfDescriptorsPausesAcceptInsteadOfAborting)
{
    expectInChild([] {
        net::DaemonConfig cfg;
        cfg.workers = 1;
        DaemonFixture fx(cfg);
        std::vector<std::unique_ptr<net::DaemonClient>> clients;
        for (int i = 0; i < 4; ++i)
            clients.push_back(
                std::make_unique<net::DaemonClient>(fx.socket()));
        if (!eventually([] {
                return obs::globalMetrics().daemon().connectionsActive == 4;
            }))
            return false;

        // Cap the descriptor table near its use and fill it, then free
        // one slot for a fifth client: the daemon's accept of it finds
        // no descriptor left (EMFILE).
        rlimit lim{};
        ::getrlimit(RLIMIT_NOFILE, &lim);
        lim.rlim_cur = procEntries("/proc/self/fd") + 8;
        ::setrlimit(RLIMIT_NOFILE, &lim);
        std::vector<net::Fd> filler;
        for (net::Fd fd(::open("/dev/null", O_RDONLY)); fd.valid();
             fd = net::Fd(::open("/dev/null", O_RDONLY)))
            filler.push_back(std::move(fd));
        filler.pop_back();
        clients.push_back(std::make_unique<net::DaemonClient>(fx.socket()));
        std::this_thread::sleep_for(200ms);

        // Two clients leave; their connections retire, which frees
        // descriptors and resumes accepting.
        clients[0]->close();
        clients[1]->close();
        return !clients.back()->call(kRunSpec).empty() &&
               !clients[2]->call(kRunSpec).empty();
        // ~DaemonFixture: stop() must return.
    });
}

TEST(DaemonTest, FailedServeLeavesNoPoolInstalled)
{
    // In a child: a sweep on a pool left installed and then freed may
    // crash or hang.
    expectInChild([] {
        {
            net::DaemonConfig cfg;
            cfg.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
            net::Daemon daemon(cfg);
            try {
                daemon.serve();
                return false;
            } catch (const std::runtime_error &) {
            }
            if (core::globalSweepPool()) {
                std::cerr << "serve() threw with its pool installed\n";
                return false;
            }
        }
        // A later sweep (runJobSpec's ParallelSweeper::run) must not
        // reach the daemon's freed pool.
        const std::string spec = "{\"kind\":\"run\",\"workload\":"
                                 "\"spec:gcc\",\"accesses\":2000}";
        return !app::runJobSpec(core::JobSpec::fromJsonText(spec))
                    .document.empty();
    });
}

TEST(DaemonTest, StalledReaderDoesNotHangTheDrain)
{
    expectInChild([] {
        net::DaemonConfig cfg;
        cfg.workers = 2;
        cfg.heartbeatMs = 100;
        auto fx = std::make_unique<DaemonFixture>(cfg);
        net::DaemonClient stalled(fx->socket());
        if (!stall(stalled, 60))
            return false;
        // Drain: the stalled client's unwritten finals make no
        // progress for a heartbeat period, so it counts as vanished.
        const auto t0 = std::chrono::steady_clock::now();
        fx.reset();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        std::cerr << "drain took " << s << " s\n";
        return s < 5.0;
    });
}

TEST(DaemonTest, StalledReaderDoesNotDelayAnotherClientsCancellation)
{
    expectInChild([] {
        net::DaemonConfig cfg;
        cfg.workers = 2;
        cfg.heartbeatMs = 10;
        DaemonFixture fx(cfg);
        net::DaemonClient stalled(fx.socket());
        if (!stall(stalled, 60))
            return false;

        const obs::Metrics::DaemonSnapshot d0 =
            obs::globalMetrics().daemon();
        {
            // A long sweep: no progress frame between its first and
            // its last, so only heartbeats can find its client gone.
            net::DaemonClient gone(fx.socket());
            gone.submit("{\"kind\":\"vdd_sweep\",\"workload\":"
                        "\"spec:mcf\",\"accesses\":1000000}");
            if (!eventually([&] {
                    return obs::globalMetrics().daemon().jobsAccepted >
                           d0.jobsAccepted;
                }))
                return false;
            std::this_thread::sleep_for(100ms);
        }
        if (!eventually([&] {
                return obs::globalMetrics().daemon().jobsCancelled >
                       d0.jobsCancelled;
            })) {
            std::cerr << "the vanished client's job was not cancelled\n";
            return false;
        }
        return obs::globalMetrics().daemon().jobsSucceeded ==
               d0.jobsSucceeded;
    });
}

} // namespace
