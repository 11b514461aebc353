/**
 * @file
 * The four benchmark workloads.
 *
 * Each runs its fixed work once through the simulator's public entry
 * points (ParallelSweeper::run, runVddSweep, runExplore, net::Daemon +
 * net::DaemonClient), digests every result document and checks what
 * can be checked in-process.
 *
 * Traced runs add two things. First, spans around the N-worker run:
 * per-job spans from the SweepJob hooks (spec_sweep) or from the
 * generator factory the harness supplies (hierarchy_vdd). Second, a
 * 1-worker decomposition that drives the same jobs (on explore_grid, a
 * seeded sample of them) through the layer entry points in order —
 * generator, StreamCache::acquire, planReplayChunk + accessChunk per
 * config, drain/snapshotResult, runFaultMapCampaign — with a span
 * around each call. Its results must equal the engine's.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "app/job_runner.hh"
#include "common.hh"
#include "core/explorer.hh"
#include "core/fault_cache.hh"
#include "core/job_spec.hh"
#include "core/policies.hh"
#include "core/stream_cache.hh"
#include "core/sweep.hh"
#include "core/vdd_sweep.hh"
#include "mem/functional_mem.hh"
#include "net/client.hh"
#include "net/daemon.hh"
#include "net/frame.hh"
#include "obs/metrics.hh"
#include "spans.hh"
#include "sram/fault_injection.hh"
#include "sram/vmodel.hh"
#include "trace/markov_stream.hh"
#include "trace/replay.hh"
#include "trace/spec_profiles.hh"

namespace c8tb
{

namespace
{

using namespace c8t;
using core::ControllerConfig;
using core::SchemeRunResult;
using core::WriteScheme;

/** The figure benches' window: 300 k measured after 30 k warm-up. */
constexpr core::RunConfig kSweepWindow{30'000, 300'000};

/** The explorer bench's window. */
constexpr core::RunConfig kExploreWindow{200, 2'000};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A SPEC profile with its stream seed derived from the run seed. */
trace::StreamParams
seededProfile(const trace::StreamParams &base, std::uint64_t seed,
              std::size_t index)
{
    std::uint64_t state = seed * 0x100000001b3ull + index;
    trace::StreamParams p = base;
    p.seed = splitmix64(state);
    return p;
}

/** Process-wide memo misses since @p s0 / @p f0 (must repeat exactly
 *  for a given seed: every process starts cold). */
void
memoMisses(const core::StreamCache::Stats &s0,
           const core::FaultMapCache::Stats &f0, Report &r)
{
    r.streamMisses = static_cast<std::int64_t>(
        core::globalStreamCache().stats().misses - s0.misses);
    r.faultMisses = static_cast<std::int64_t>(
        core::globalFaultMapCache().stats().misses - f0.misses);
}

// --- generator decorators (traced runs) ----------------------------------

/** Times every fillChunk of a fresh generator as "trace.generate". */
class TimedGenerator : public trace::AccessGenerator
{
  public:
    explicit TimedGenerator(std::unique_ptr<trace::AccessGenerator> inner)
        : _inner(std::move(inner))
    {
    }
    bool next(trace::MemAccess &out) override { return _inner->next(out); }
    std::size_t fillChunk(trace::MemAccess *dst, std::size_t n) override
    {
        spans::Scoped s("trace.generate");
        const std::size_t got = _inner->fillChunk(dst, n);
        s.count(got);
        return got;
    }
    const trace::MemAccess *borrowChunk(std::size_t n,
                                        std::size_t &got) override
    {
        return _inner->borrowChunk(n, got);
    }
    void reset() override { _inner->reset(); }
    std::string name() const override { return _inner->name(); }

  private:
    std::unique_ptr<trace::AccessGenerator> _inner;
};

/**
 * Replays a shared buffer and closes the "sweep.job" span @p span,
 * opened by the factory that built it, when it is destroyed. The sweep
 * engine builds one per job on the worker thread and drops it when the
 * job returns, so the span covers the job.
 */
class JobSpanGenerator : public trace::AccessGenerator
{
  public:
    JobSpanGenerator(std::int64_t span, const std::string &name,
                     trace::ReplayGenerator::Buffer buffer)
        : _span(span), _inner(name, std::move(buffer))
    {
    }
    ~JobSpanGenerator() override { spans::close(_span, _consumed); }
    JobSpanGenerator(const JobSpanGenerator &) = delete;
    JobSpanGenerator &operator=(const JobSpanGenerator &) = delete;

    bool next(trace::MemAccess &out) override
    {
        const bool ok = _inner.next(out);
        _consumed += ok ? 1 : 0;
        return ok;
    }
    std::size_t fillChunk(trace::MemAccess *dst, std::size_t n) override
    {
        const std::size_t got = _inner.fillChunk(dst, n);
        _consumed += got;
        return got;
    }
    const trace::MemAccess *borrowChunk(std::size_t n,
                                        std::size_t &got) override
    {
        const trace::MemAccess *p = _inner.borrowChunk(n, got);
        _consumed += got;
        return p;
    }
    void reset() override { _inner.reset(); }
    std::string name() const override { return _inner.name(); }

  private:
    std::int64_t _span;
    trace::ReplayGenerator _inner;
    std::uint64_t _consumed = 0;
};

/** Worker busy ratio and serial tail from the N-worker spans: every
 *  "sweep.run" span on the calling thread and the "sweep.job" spans
 *  that started inside it. */
void
sweepLayers(unsigned workers, Report &r)
{
    const std::vector<spans::Span> all = spans::collect();
    double busy = 0.0, runs = 0.0, tail = 0.0;
    for (const spans::Span &run : all) {
        if (std::string(run.name) != "sweep.run")
            continue;
        std::int64_t first = run.endNs, last = run.startNs;
        for (const spans::Span &job : all) {
            if (std::string(job.name) != "sweep.job" || job.count == 0 ||
                job.startNs < run.startNs || job.startNs > run.endNs)
                continue;
            busy += static_cast<double>(job.endNs - job.startNs) * 1e-9;
            first = std::min(first, job.startNs);
            last = std::max(last, job.endNs);
        }
        runs += static_cast<double>(run.endNs - run.startNs) * 1e-9;
        if (first <= last) {
            tail += static_cast<double>((first - run.startNs) +
                                        (run.endNs - last)) *
                    1e-9;
        }
    }
    r.layers["sweep.worker_busy_ratio"] = ratio(busy, workers * runs);
    r.layers["sweep.serial_tail_s"] = tail;
}

/** Stream-cache and fault-cache ratios over the N-worker run. */
void
cacheLayers(const core::StreamCache::Stats &s0,
            const core::FaultMapCache::Stats &f0, Report &r)
{
    const core::StreamCache::Stats s = core::globalStreamCache().stats();
    const double acquires = static_cast<double>(
        (s.hits - s0.hits) + (s.misses - s0.misses) +
        (s.bypasses - s0.bypasses));
    r.layers["stream_cache.hit_ratio"] =
        ratio(static_cast<double>(s.hits - s0.hits), acquires);
    r.layers["stream_cache.resident_mb"] =
        static_cast<double>(s.bytes) / (1024.0 * 1024.0);
    const core::FaultMapCache::Stats f = core::globalFaultMapCache().stats();
    r.layers["fault_cache.hit_ratio"] =
        ratio(static_cast<double>(f.hits - f0.hits),
              static_cast<double>((f.hits - f0.hits) +
                                  (f.misses - f0.misses)));
}

/** Row operations per request by scheme, exact counts (the guard that
 *  simulated work did not change). */
void
rowOpLayers(const std::vector<const SchemeRunResult *> &results,
            Report &r)
{
    std::map<std::string, std::pair<double, double>> sums;
    for (const SchemeRunResult *res : results) {
        auto &[ops, reqs] = sums[schemeKey(res->scheme)];
        ops += static_cast<double>(res->demandAccesses);
        reqs += static_cast<double>(res->requests);
    }
    for (const auto &[scheme, s] : sums) {
        r.layers["controller.row_ops_per_request." + scheme] =
            ratio(s.first, s.second);
    }
}

// --- the 1-worker layer decomposition ------------------------------------

/** One job of the decomposition: the workload and its configs. */
struct DecompJob
{
    trace::StreamParams params;
    std::vector<ControllerConfig> configs;
};

const char *
applySpanName(const ControllerConfig &cfg)
{
    if (!cfg.lowerLevels.empty())
        return "level_stack.apply";
    switch (cfg.scheme) {
      case WriteScheme::SixTDirect:
        return "controller.apply.6T";
      case WriteScheme::Rmw:
        return "controller.apply.RMW";
      case WriteScheme::WriteGrouping:
        return "controller.apply.WG";
      case WriteScheme::WriteGroupingReadBypass:
        return "controller.apply.WG_RB";
      default:
        return "controller.apply.other";
    }
}

/** Counters the decomposition keeps besides its spans. */
struct DecompCounters
{
    std::uint64_t planCalls = 0;
    std::uint64_t plans = 0;
    std::uint64_t measuredApplies = 0;
    std::uint64_t l2Fetches = 0;
    std::uint64_t l2WritebackWords = 0;
    std::uint64_t backInvalidations = 0;
};

/**
 * Run @p job through the layers one call at a time, the way
 * ParallelSweeper + MultiSchemeRunner do on one worker, with a span
 * around every call; the whole job is one "job" span.
 */
std::vector<SchemeRunResult>
decomposeJob(const DecompJob &job, std::size_t index,
             const core::RunConfig &rc, core::StreamCache &cache,
             DecompCounters &c)
{
    spans::Scoped jobSpan("job", static_cast<std::int64_t>(index));
    std::unique_ptr<trace::AccessGenerator> gen;
    {
        spans::Scoped s("stream_cache.acquire");
        const trace::StreamParams p = job.params;
        gen = cache.acquire(
            trace::streamSignature(p),
            rc.warmupAccesses + rc.measureAccesses,
            [p]() -> std::unique_ptr<trace::AccessGenerator> {
                return std::make_unique<TimedGenerator>(
                    std::make_unique<trace::MarkovStream>(p));
            });
    }

    const std::size_t n = job.configs.size();
    std::vector<std::unique_ptr<mem::FunctionalMemory>> memories;
    std::vector<std::unique_ptr<core::LevelStack>> stacks;
    std::vector<std::size_t> leader(n);
    std::vector<const char *> applyName(n);
    std::vector<trace::MemAccess> scratch;
    {
        spans::Scoped s("runner.build");
        scratch.resize(core::MultiSchemeRunner::kChunkAccesses);
        for (std::size_t i = 0; i < n; ++i) {
            memories.push_back(std::make_unique<mem::FunctionalMemory>());
            stacks.push_back(std::make_unique<core::LevelStack>(
                job.configs[i], *memories.back()));
            leader[i] = i;
            for (std::size_t k = 0; k < i; ++k) {
                if (job.configs[k].cache == job.configs[i].cache &&
                    job.configs[k].lowerLevels ==
                        job.configs[i].lowerLevels) {
                    leader[i] = k;
                    break;
                }
            }
            applyName[i] = applySpanName(job.configs[i]);
        }
    }

    std::vector<const mem::ChunkPlan *> plans(n, nullptr);
    const auto replay = [&](std::uint64_t accesses, bool measured) {
        std::uint64_t done = 0;
        while (done < accesses) {
            const auto want = static_cast<std::size_t>(
                std::min<std::uint64_t>(scratch.size(), accesses - done));
            std::size_t got = 0;
            const trace::MemAccess *chunk = nullptr;
            {
                spans::Scoped s("trace.replay");
                chunk = gen->borrowChunk(want, got);
                if (!chunk) {
                    got = gen->fillChunk(scratch.data(), want);
                    chunk = scratch.data();
                }
                s.count(got);
            }
            if (got == 0)
                break;
            for (std::size_t i = 0; i < n; ++i) {
                if (leader[i] == i) {
                    spans::Scoped s("mem.plan");
                    s.count(got);
                    plans[i] = stacks[i]->planReplayChunk(chunk, got);
                    ++c.planCalls;
                    c.plans += plans[i] ? 1 : 0;
                }
                spans::Scoped s(applyName[i]);
                s.count(got);
                stacks[i]->accessChunk(chunk, got, plans[leader[i]]);
            }
            c.measuredApplies += measured ? n : 0;
            done += got;
        }
    };

    gen->reset();
    replay(rc.warmupAccesses, false);
    for (auto &stack : stacks)
        stack->resetStats();
    replay(rc.measureAccesses, true);

    {
        spans::Scoped s("controller.drain");
        for (auto &stack : stacks)
            stack->drain();
    }
    std::vector<SchemeRunResult> results;
    {
        spans::Scoped s("stats.snapshot");
        for (auto &stack : stacks)
            results.push_back(core::snapshotResult(gen->name(), *stack));
    }
    for (auto &stack : stacks) {
        if (stack->depth() < 2)
            continue;
        c.l2Fetches += stack->level(1).readRequests();
        c.l2WritebackWords += stack->level(1).writeRequests();
        c.backInvalidations += stack->top().backInvalidations();
    }
    return results;
}

/** Per-layer metrics of the decomposition's spans and counters. */
void
decompLayers(const DecompCounters &c, Report &r)
{
    const auto t = spans::totals(spans::collect());
    const auto get = [&](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? spans::Totals{} : it->second;
    };
    const auto nsPerAccess = [&](const char *name) {
        const spans::Totals x = get(name);
        return ratio(x.selfS * 1e9, static_cast<double>(x.count));
    };
    r.layers["trace.generate_s"] = get("trace.generate").totalS;
    r.layers["trace.accesses_generated"] =
        static_cast<double>(get("trace.generate").count);
    r.layers["stream_cache.acquire_s"] = get("stream_cache.acquire").selfS;
    r.layers["mem.plan_s"] = get("mem.plan").totalS;
    r.layers["mem.planned_chunk_ratio"] =
        ratio(static_cast<double>(c.plans), static_cast<double>(c.planCalls));
    for (const char *s : {"6T", "RMW", "WG", "WG_RB"}) {
        const std::string span = std::string("controller.apply.") + s;
        r.layers[std::string("controller.apply_ns_per_access.") + s] =
            nsPerAccess(span.c_str());
    }
    r.layers["level_stack.apply_ns_per_access"] =
        nsPerAccess("level_stack.apply");
    r.layers["level_stack.l2_fetches"] = static_cast<double>(c.l2Fetches);
    r.layers["level_stack.l2_writeback_words"] =
        static_cast<double>(c.l2WritebackWords);
    r.layers["level_stack.back_invalidations_per_chunk"] =
        ratio(static_cast<double>(c.backInvalidations),
              static_cast<double>(c.measuredApplies));
    r.layers["sram.fault_map_s"] = get("sram.fault_map").totalS;
    r.layers["sram.fault_map_campaigns"] =
        static_cast<double>(get("sram.fault_map").calls);

    // The layer table: self time per span name.
    std::cerr << "c8tbench: 1-worker layer self times (s)\n";
    for (const auto &[name, x] : t) {
        if (name == "sweep.run" || name == "sweep.job" ||
            name == "stats.serialize")
            continue;
        std::fprintf(stderr, "  %-28s %10.4f  calls %-8llu count %llu\n",
                     name.c_str(), x.selfS,
                     static_cast<unsigned long long>(x.calls),
                     static_cast<unsigned long long>(x.count));
    }
}

/** Compare per-job results with the N-worker engine's, one check per
 *  job. */
void
checkJobs(const std::vector<std::vector<SchemeRunResult>> &got,
          const std::vector<std::vector<SchemeRunResult>> &want,
          const std::string &what, Report &r)
{
    r.check(got.size() == want.size(), what + ": job count");
    for (std::size_t j = 0; j < std::min(got.size(), want.size()); ++j) {
        r.check(got[j] == want[j],
                what + ": result differs, job " + std::to_string(j));
    }
}

/**
 * The reconciliation, job by job: the engine's untraced 1-worker run of
 * job j (@p engine, timed here) and its decomposition (@p layers, timed
 * as the sum of its root spans), in alternating order so that host
 * drift cancels out of the comparison. Both start cold: the
 * process-wide memos are cleared first and the decomposition gets its
 * own stream cache.
 */
void
reconcile(std::size_t jobs, const std::function<void(std::size_t)> &engine,
          const std::function<void(std::size_t, core::StreamCache &)> &layers,
          Report &r)
{
    core::globalStreamCache().clear();
    core::globalFaultMapCache().clear();
    core::StreamCache cache;
    double engineS = 0.0, layerS = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        const auto timedEngine = [&] {
            const Clock::time_point t0 = Clock::now();
            engine(j);
            engineS +=
                std::chrono::duration<double>(Clock::now() - t0).count();
        };
        const auto timedLayers = [&] {
            const std::size_t m = spans::mark();
            layers(j, cache);
            layerS += spans::rootSecondsSince(m);
        };
        if (j % 2) {
            timedLayers();
            timedEngine();
        } else {
            timedEngine();
            timedLayers();
        }
    }
    r.layers["decomp.engine_s"] = engineS;
    r.layers["decomp.layer_sum_s"] = layerS;
}

} // anonymous namespace

// --- spec_sweep -----------------------------------------------------------

Report
runSpecSweep(const Options &o)
{
    Report r;
    const std::vector<WriteScheme> schemes = {
        WriteScheme::Rmw, WriteScheme::WriteGrouping,
        WriteScheme::WriteGroupingReadBypass};
    const std::vector<mem::CacheConfig> shapes = {{32 * 1024, 4, 32},
                                                  {128 * 1024, 4, 32}};
    const auto &profiles = trace::specProfiles();

    // fig11's sweep shape, with every profile's stream seed derived
    // from the run seed.
    std::vector<std::vector<core::SweepJob>> sweeps;
    std::vector<DecompJob> decomp;
    for (const mem::CacheConfig &shape : shapes) {
        std::vector<core::SweepJob> jobs;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const trace::StreamParams p =
                seededProfile(profiles[i], o.seed, i);
            core::SweepJob job;
            job.makeGenerator =
                [p]() -> std::unique_ptr<trace::AccessGenerator> {
                return std::make_unique<trace::MarkovStream>(p);
            };
            job.streamKey = trace::streamSignature(p);
            for (const WriteScheme s : schemes) {
                ControllerConfig c;
                c.cache = shape;
                c.scheme = s;
                job.configs.push_back(c);
            }
            if (o.traced) {
                const std::uint64_t accesses =
                    job.configs.size() * (kSweepWindow.warmupAccesses +
                                          kSweepWindow.measureAccesses);
                thread_local std::int64_t t_span = -1;
                job.prepare = [](core::MultiSchemeRunner &) {
                    t_span = spans::open("sweep.job");
                };
                job.inspect = [accesses](core::MultiSchemeRunner &) {
                    spans::close(t_span, accesses);
                };
            }
            decomp.push_back({p, job.configs});
            jobs.push_back(std::move(job));
        }
        sweeps.push_back(std::move(jobs));
    }
    const core::ParallelSweeper sweeper(o.workers);
    const core::StreamCache::Stats s0 = core::globalStreamCache().stats();
    const core::FaultMapCache::Stats f0 = core::globalFaultMapCache().stats();

    markSetupDone();
    std::vector<std::vector<SchemeRunResult>> results;
    {
        Window w;
        for (std::size_t g = 0; g < sweeps.size(); ++g) {
            spans::Scoped run("sweep.run");
            auto part = sweeper.run(sweeps[g], kSweepWindow,
                                    "perfbench:spec_sweep");
            for (auto &job : part)
                results.push_back(std::move(job));
        }
        w.stop(r);
    }

    std::uint64_t h = fnv1a("spec_sweep");
    std::vector<const SchemeRunResult *> flat;
    for (std::size_t j = 0; j < results.size(); ++j) {
        const auto &job = results[j];
        r.check(job.size() == schemes.size(), "config count");
        for (const SchemeRunResult &res : job) {
            h = fnv1a(canonical(res), h);
            flat.push_back(&res);
            // Every scheme sees the same stream through the same tags.
            const SchemeRunResult &ref = job.front();
            r.check(res.requests == ref.requests && res.reads == ref.reads &&
                        res.writes == ref.writes && res.hits == ref.hits &&
                        res.misses == ref.misses,
                    "scheme-independent counts differ in job " +
                        std::to_string(j));
        }
    }
    r.digest = hex64(h);
    r.jobs = flat.size();
    r.simAccesses = static_cast<double>(flat.size()) *
                    static_cast<double>(kSweepWindow.warmupAccesses +
                                        kSweepWindow.measureAccesses);
    memoMisses(s0, f0, r);

    if (o.traced) {
        sweepLayers(o.workers, r);
        cacheLayers(s0, f0, r);
        rowOpLayers(flat, r);

        std::vector<core::SweepJob> plain;
        for (const auto &jobs : sweeps) {
            for (core::SweepJob job : jobs) {
                job.prepare = nullptr;
                job.inspect = nullptr;
                plain.push_back(std::move(job));
            }
        }
        const core::ParallelSweeper single(1);
        DecompCounters c;
        std::vector<std::vector<SchemeRunResult>> engineRuns(plain.size()),
            got(plain.size());
        reconcile(
            plain.size(),
            [&](std::size_t j) {
                engineRuns[j] = single
                                    .run({plain[j]}, kSweepWindow,
                                         "perfbench:spec_sweep")
                                    .front();
            },
            [&](std::size_t j, core::StreamCache &cache) {
                got[j] = decomposeJob(decomp[j], j, kSweepWindow, cache, c);
            },
            r);
        checkJobs(engineRuns, results, "1-worker engine", r);
        checkJobs(got, results, "decomposition", r);
        decompLayers(c, r);
    }
    return r;
}

// --- hierarchy_vdd --------------------------------------------------------

Report
runHierarchyVdd(const Options &o)
{
    Report r;
    // bench_hierarchy: gcc on a 6T 64 KB/4w L1 over an 8T 256 KB/8w L2,
    // the scheme axis and the grid voltage on the L2.
    const trace::StreamParams profile =
        seededProfile(trace::specProfile("gcc"), o.seed, 0);
    core::VddSweepSpec plain;
    plain.lowerLevels.push_back(core::LevelConfig{});
    plain.runSeed = o.seed;
    plain.makeGenerator =
        [profile]() -> std::unique_ptr<trace::AccessGenerator> {
        return std::make_unique<trace::MarkovStream>(profile);
    };
    plain.streamKey = trace::streamSignature(profile);

    core::VddSweepSpec spec = plain;
    if (o.traced) {
        // Per-job spans come from the factory: with no stream key the
        // engine calls it once per job on the worker thread. The first
        // call generates the stream into a buffer, inside the window as
        // the stream cache's miss does in the untraced run; every job
        // replays that buffer and spans its own lifetime.
        struct Shared
        {
            std::once_flag once;
            std::string name;
            trace::ReplayGenerator::Buffer buffer;
        };
        const auto shared = std::make_shared<Shared>();
        const auto make = plain.makeGenerator;
        spec.makeGenerator =
            [shared, make]() -> std::unique_ptr<trace::AccessGenerator> {
            const std::int64_t span = spans::open("sweep.job");
            std::call_once(shared->once, [&] {
                auto gen = make();
                auto buf = std::make_shared<std::vector<trace::MemAccess>>(
                    kSweepWindow.warmupAccesses +
                    kSweepWindow.measureAccesses);
                buf->resize(gen->fillChunk(buf->data(), buf->size()));
                shared->name = gen->name();
                shared->buffer = std::move(buf);
            });
            return std::make_unique<JobSpanGenerator>(span, shared->name,
                                                      shared->buffer);
        };
        spec.streamKey.clear();
    }

    const core::StreamCache::Stats s0 = core::globalStreamCache().stats();
    const core::FaultMapCache::Stats f0 = core::globalFaultMapCache().stats();
    std::string doc;
    std::unique_ptr<core::VddSweepResult> result;
    markSetupDone();
    {
        Window w;
        {
            spans::Scoped run("sweep.run");
            result = std::make_unique<core::VddSweepResult>(
                core::runVddSweep(spec, kSweepWindow, o.workers));
        }
        {
            spans::Scoped s("stats.serialize");
            std::ostringstream os;
            result->dumpJson(os);
            doc = os.str();
        }
        w.stop(r);
    }

    r.check(result->curves.size() == spec.schemes.size(), "curve count");
    std::vector<const SchemeRunResult *> l2;
    // want[gi][si]: the engine's run of scheme si at grid point gi.
    std::vector<std::vector<SchemeRunResult>> want(spec.grid.size());
    std::uint64_t h = fnv1a(doc);
    for (const core::VddCurve &c : result->curves) {
        r.check(c.points.size() == spec.grid.size(),
                "point count of " + c.scheme);
        for (std::size_t gi = 0; gi < c.points.size(); ++gi) {
            const SchemeRunResult &run = c.points[gi].run;
            r.check(run.levels.size() == 1, "hierarchy depth");
            if (!run.levels.empty())
                l2.push_back(&run.levels.front());
            want[gi].push_back(run);
            h = fnv1a(canonical(run), h);
        }
    }
    r.digest = hex64(h);
    r.jobs = result->curves.size() * spec.grid.size();
    r.simAccesses = static_cast<double>(r.jobs) *
                    static_cast<double>(kSweepWindow.warmupAccesses +
                                        kSweepWindow.measureAccesses);
    memoMisses(s0, f0, r);
    if (!o.traced)
        return r;

    sweepLayers(o.workers, r);
    cacheLayers(s0, f0, r);
    rowOpLayers(l2, r);
    r.layers["stats.serialize_s"] =
        spans::totals(spans::collect())["stats.serialize"].totalS;

    // The same jobs, one call at a time: one job per grid point with one
    // config per scheme, as runVddSweep builds them, then the fault
    // campaigns of that grid point — one per distinct (cell, interleave
    // degree), as the sweep's memo evaluates them.
    const sram::VddModel model(spec.model);
    const std::uint32_t wordsPerRow = std::max<std::uint32_t>(
        1, spec.lowerLevels.front().cache.setBytes() / 8);
    std::vector<DecompJob> decomp;
    for (const double vdd : spec.grid) {
        DecompJob job{profile, {}};
        for (const WriteScheme s : spec.schemes) {
            ControllerConfig cfg;
            cfg.cache = spec.cache;
            cfg.vmodel = spec.model;
            cfg.scheme = spec.topScheme;
            cfg.vdd = spec.topVdd;
            cfg.lowerLevels = spec.lowerLevels;
            cfg.lowerLevels.front().scheme = s;
            cfg.lowerLevels.front().vdd = vdd;
            job.configs.push_back(cfg);
        }
        decomp.push_back(std::move(job));
    }
    const auto campaigns = [&](std::size_t gi) {
        std::set<std::pair<int, std::uint32_t>> seen;
        for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
            const core::SchemeTraits traits =
                core::schemeTraits(spec.schemes[si]);
            sram::FaultMapConfig fmc;
            fmc.runSeed = spec.runSeed;
            fmc.vdd = spec.grid[gi];
            fmc.cell = traits.requiresEightT ? sram::CellType::EightT
                                             : sram::CellType::SixT;
            fmc.pfailCell = model.at(fmc.vdd, fmc.cell).pfailCell;
            fmc.rows = spec.faultRows;
            fmc.wordsPerRow = wordsPerRow;
            fmc.degree = traits.requiresNonInterleaved
                             ? 1u
                             : spec.lowerLevels.front().interleaveDegree;
            if (!seen.emplace(static_cast<int>(fmc.cell), fmc.degree).second)
                continue;
            sram::FaultMapStats stats;
            {
                spans::Scoped s("sram.fault_map");
                stats = sram::runFaultMapCampaign(fmc);
            }
            const sram::FaultMapStats &ref =
                result->curves[si].points[gi].faults;
            r.check(stats.words == ref.words &&
                        stats.corrected == ref.corrected &&
                        stats.detectedUncorrectable ==
                            ref.detectedUncorrectable &&
                        stats.silentCorruptions == ref.silentCorruptions,
                    "fault campaign differs from the sweep's");
        }
    };

    DecompCounters counters;
    std::vector<std::vector<SchemeRunResult>> engineRuns(spec.grid.size()),
        got(spec.grid.size());
    reconcile(
        spec.grid.size(),
        [&](std::size_t gi) {
            core::VddSweepSpec one = plain;
            one.grid = {spec.grid[gi]};
            const core::VddSweepResult res =
                core::runVddSweep(one, kSweepWindow, 1);
            engineRuns[gi].clear();
            for (const core::VddCurve &c : res.curves)
                engineRuns[gi].push_back(c.points.front().run);
        },
        [&](std::size_t gi, core::StreamCache &cache) {
            got[gi] =
                decomposeJob(decomp[gi], gi, kSweepWindow, cache, counters);
            campaigns(gi);
        },
        r);
    checkJobs(engineRuns, want, "1-worker engine", r);
    checkJobs(got, want, "decomposition", r);
    decompLayers(counters, r);
    return r;
}

// --- explore_grid ---------------------------------------------------------

Report
runExploreGrid(const Options &o)
{
    Report r;
    // bench_explorer's grid: 25 profiles x 4 sizes x 3 ways x 2 blocks
    // x 2 replacements = 1200 cells, x 4 schemes x 3 Vdd points.
    core::ExplorerSpec spec;
    spec.label = "perfbench:explore_grid";
    spec.workloads = trace::specBenchmarkNames();
    spec.sizesKb = {16, 32, 64, 128};
    spec.ways = {2, 4, 8};
    spec.blocks = {32, 64};
    spec.replacements = {mem::ReplKind::Lru, mem::ReplKind::Fifo};
    // The seed shifts the two sub-nominal grid points (by 0-30 mV),
    // seeds the fault maps and shuffles the shard order.
    const double shift = 0.01 * static_cast<double>(o.seed % 4);
    spec.vddGrid = {1.0, 0.9 - shift, 0.8 - shift};
    spec.cellsPerShard = 16;
    spec.runSeed = o.seed;
    spec.shuffleShards = true;
    spec.shuffleSeed = o.seed;

    const std::filesystem::path ckpt =
        std::filesystem::path(o.workdir) /
        ("ckpt-" + std::to_string(::getpid()));
    std::filesystem::remove_all(ckpt);
    std::filesystem::create_directories(ckpt);
    spec.checkpointDir = ckpt.string();

    const core::StreamCache::Stats s0 = core::globalStreamCache().stats();
    const core::FaultMapCache::Stats f0 = core::globalFaultMapCache().stats();
    std::string doc;
    std::unique_ptr<core::ExploreResult> result;
    markSetupDone();
    {
        Window w;
        {
            spans::Scoped run("sweep.run");
            result = std::make_unique<core::ExploreResult>(
                core::runExplore(spec, kExploreWindow, o.workers));
        }
        {
            spans::Scoped s("stats.serialize");
            std::ostringstream os;
            result->dumpJson(os);
            doc = os.str();
        }
        w.stop(r);
    }
    std::filesystem::remove_all(ckpt);

    const std::uint64_t validCells = result->cellsTotal - result->cellsSkipped;
    r.check(result->completed, "explore did not complete");
    r.check(result->configRunsExecuted == validCells * spec.runsPerCell(),
            "config-runs executed");
    r.check(!result->summaries.empty(), "no design points");
    r.digest = hex64(fnv1a(doc));
    r.jobs = result->configRunsExecuted;
    r.simAccesses = static_cast<double>(r.jobs) *
                    static_cast<double>(kExploreWindow.warmupAccesses +
                                        kExploreWindow.measureAccesses);
    memoMisses(s0, f0, r);

    if (o.traced) {
        cacheLayers(s0, f0, r);
        r.layers["stats.serialize_s"] =
            spans::totals(spans::collect())["stats.serialize"].totalS;

        // A seeded sample of the explore's jobs, one call at a time:
        // kSampledCells valid cells per workload, workload-major as the
        // explorer orders them, one job per grid point with one config
        // per scheme (the 6T baseline first, so it leads the plan).
        constexpr std::size_t kSampledCells = 2;
        std::uint64_t state = o.seed ^ 0x6a09e667f3bcc909ull;
        std::vector<core::SweepJob> plain;
        std::vector<DecompJob> decomp;
        for (const std::string &name : spec.workloads) {
            const trace::StreamParams p = trace::specProfile(name);
            for (std::size_t k = 0; k < kSampledCells;) {
                mem::CacheConfig cache;
                cache.sizeBytes =
                    spec.sizesKb[splitmix64(state) % spec.sizesKb.size()] *
                    1024;
                cache.ways = spec.ways[splitmix64(state) % spec.ways.size()];
                cache.blockBytes =
                    spec.blocks[splitmix64(state) % spec.blocks.size()];
                cache.replacement = spec.replacements[splitmix64(state) %
                                                      spec.replacements.size()];
                try {
                    cache.validate();
                } catch (const std::invalid_argument &) {
                    continue;
                }
                ++k;
                for (const double vdd : spec.vddGrid) {
                    core::SweepJob job;
                    job.makeGenerator =
                        [p]() -> std::unique_ptr<trace::AccessGenerator> {
                        return std::make_unique<trace::MarkovStream>(p);
                    };
                    job.streamKey = trace::streamSignature(p);
                    job.vdd = vdd;
                    for (const WriteScheme s : spec.schemes) {
                        ControllerConfig cfg;
                        cfg.cache = cache;
                        cfg.scheme = s;
                        cfg.vdd = vdd;
                        cfg.vmodel = spec.model;
                        job.configs.push_back(cfg);
                    }
                    decomp.push_back({p, job.configs});
                    plain.push_back(std::move(job));
                }
            }
        }
        const core::ParallelSweeper single(1);
        DecompCounters c;
        std::vector<std::vector<SchemeRunResult>> engineRuns(plain.size()),
            got(plain.size());
        reconcile(
            plain.size(),
            [&](std::size_t j) {
                engineRuns[j] = single
                                    .run({plain[j]}, kExploreWindow,
                                         "perfbench:explore_grid")
                                    .front();
            },
            [&](std::size_t j, core::StreamCache &cache) {
                got[j] = decomposeJob(decomp[j], j, kExploreWindow, cache, c);
            },
            r);
        checkJobs(got, engineRuns, "decomposition", r);
        decompLayers(c, r);
    }
    return r;
}

// --- daemon_mix -----------------------------------------------------------

namespace
{

/** bench_daemon's per-job window: 20 000 measured accesses. */
constexpr std::uint64_t kDaemonAccesses = 20'000;

/** bench_daemon's warm-phase job target, over the whole fleet. */
constexpr std::size_t kWarmJobs = 2000;

/** One request of a client's sequence. */
struct MixRequest
{
    std::size_t spec = 0; ///< index into MixPlan::specs
    bool warm = false;    ///< warm phase: the memo answers it
};

/** The seeded request mix of one run. */
struct MixPlan
{
    std::vector<std::string> specs;        ///< the unique-spec mix
    std::vector<std::uint64_t> configRuns; ///< per spec
    /** Per client: its cold requests, then its warm requests. */
    std::vector<std::vector<MixRequest>> clients;
};

/**
 * bench_daemon's traffic over bench_daemon's unique-spec mix: `run`
 * specs of the first 8 SPEC workloads at 16 and 32 KB, then `vdd_sweep`
 * specs of the first two.
 *
 *  - cold: every unique spec once, striped across the fleet as in
 *    bench_daemon, but across pairs of clients: both clients of a pair
 *    send the spec at once, the two identical concurrent requests of
 *    ROADMAP item 4 (runDaemonMix lines the pair up before each one);
 *  - warm: after the whole fleet is done with the cold phase, every
 *    client loops the whole mix from its own offset until the fleet has
 *    sent kWarmJobs requests, all answered by the memo.
 *
 * The seed shuffles the run specs. The sweeps, the heaviest jobs, stay
 * last as in bench_daemon, so they land on different pairs whatever the
 * seed.
 */
MixPlan
buildMix(std::uint64_t seed, unsigned clients)
{
    const std::vector<std::string> names = trace::specBenchmarkNames();
    const std::size_t workloads = std::min<std::size_t>(names.size(), 8);
    const std::string acc = std::to_string(kDaemonAccesses);
    MixPlan plan;
    for (std::size_t w = 0; w < workloads; ++w) {
        for (const unsigned kb : {16u, 32u}) {
            plan.specs.push_back("{\"kind\":\"run\",\"workload\":\"spec:" +
                                 names[w] + "\",\"accesses\":" + acc +
                                 ",\"cache\":{\"size_kb\":" +
                                 std::to_string(kb) + "}}");
        }
    }
    std::uint64_t state = seed;
    for (std::size_t i = plan.specs.size() - 1; i > 0; --i)
        std::swap(plan.specs[i], plan.specs[splitmix64(state) % (i + 1)]);
    for (std::size_t w = 0; w < std::min<std::size_t>(workloads, 2); ++w) {
        plan.specs.push_back("{\"kind\":\"vdd_sweep\",\"workload\":\"spec:" +
                             names[w] + "\",\"accesses\":" + acc + "}");
    }
    for (const std::string &text : plan.specs) {
        const core::JobSpec js = core::JobSpec::fromJsonText(text);
        const std::uint64_t points = js.kind == core::JobKind::VddSweep
                                         ? core::VddSweepSpec{}.grid.size()
                                         : 1;
        plan.configRuns.push_back(js.effectiveSchemes().size() * points);
    }

    const std::size_t m = plan.specs.size();
    const unsigned pairs = (clients + 1) / 2;
    const std::size_t rounds = std::max<std::size_t>(
        1, (kWarmJobs + clients * m - 1) / (clients * m));
    plan.clients.resize(clients);
    for (unsigned c = 0; c < clients; ++c) {
        for (std::size_t i = c / 2; i < m; i += pairs)
            plan.clients[c].push_back({i, false});
        for (std::size_t k = 0; k < rounds; ++k) {
            for (std::size_t i = 0; i < m; ++i)
                plan.clients[c].push_back({(i + c) % m, true});
        }
    }
    return plan;
}

double
meanSpanUs(const std::map<std::string, spans::Totals> &t, const char *name)
{
    const auto it = t.find(name);
    return it == t.end()
               ? 0.0
               : ratio(it->second.totalS * 1e6,
                       static_cast<double>(it->second.calls));
}

} // anonymous namespace

Report
runDaemonMix(const Options &o)
{
    Report r;
    const unsigned clients = o.workers;
    const MixPlan plan = buildMix(o.seed, clients);

    net::DaemonConfig cfg;
    cfg.socketPath = o.workdir + "/d" + std::to_string(::getpid()) + ".sock";
    cfg.workers = o.workers;
    // The mix's jobs are far shorter than a heartbeat period, and the
    // heartbeat thread's join would add up to one period per process.
    cfg.heartbeatMs = 0;
    net::Daemon daemon(cfg);
    std::atomic<bool> serveFailed{false};
    std::string serveError;
    std::thread server([&] {
        try {
            daemon.serve();
        } catch (const std::exception &e) {
            serveError = e.what();
            serveFailed.store(true);
        }
    });
    while (!daemon.ready() && !serveFailed.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (serveFailed.load()) {
        server.join();
        throw std::runtime_error("daemon: " + serveError);
    }

    const core::StreamCache::Stats s0 = core::globalStreamCache().stats();
    const core::FaultMapCache::Stats f0 = core::globalFaultMapCache().stats();
    std::vector<std::unique_ptr<net::DaemonClient>> conns;
    for (unsigned c = 0; c < clients; ++c)
        conns.push_back(std::make_unique<net::DaemonClient>(cfg.socketPath));

    std::vector<std::vector<std::string>> answers(clients);
    std::vector<std::vector<std::string>> failures(clients);
    std::vector<std::vector<double>> latencyNs(clients);
    // The two clients of a pair line up before each cold request; the
    // whole fleet lines up between the cold and the warm phase.
    std::vector<std::unique_ptr<std::barrier<>>> pairs;
    for (unsigned c = 0; c < clients; c += 2)
        pairs.push_back(std::make_unique<std::barrier<>>(
            std::min<std::ptrdiff_t>(2, clients - c)));
    std::barrier<> fleet(clients);
    markSetupDone();
    {
        Window w;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                bool warm = false;
                for (const MixRequest &q : plan.clients[c]) {
                    if (!q.warm)
                        pairs[c / 2]->arrive_and_wait();
                    else if (!warm)
                        fleet.arrive_and_wait();
                    warm = q.warm;
                    const Clock::time_point t0 = Clock::now();
                    std::string doc;
                    try {
                        doc = conns[c]->call(plan.specs[q.spec]);
                    } catch (const std::exception &e) {
                        failures[c].push_back(e.what());
                    }
                    latencyNs[c].push_back(static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0)
                            .count()));
                    answers[c].push_back(std::move(doc));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        w.stop(r);
    }
    for (auto &conn : conns)
        conn->close();
    daemon.stop();
    server.join();
    std::remove(cfg.socketPath.c_str());

    // Every final frame: present, and identical for identical specs.
    std::vector<const std::string *> first(plan.specs.size(), nullptr);
    std::uint64_t h = fnv1a("daemon_mix");
    for (unsigned c = 0; c < clients; ++c) {
        for (const std::string &f : failures[c])
            r.check(false, "request failed: " + f);
        for (std::size_t k = 0; k < plan.clients[c].size(); ++k) {
            const MixRequest &q = plan.clients[c][k];
            const std::string &doc = answers[c][k];
            h = fnv1a(doc, fnv1a(std::to_string(q.spec), h));
            if (doc.empty())
                continue;
            if (!first[q.spec])
                first[q.spec] = &doc;
            r.check(doc == *first[q.spec],
                    "answers differ for spec " + std::to_string(q.spec));
            r.jobLatencyMs.push_back(latencyNs[c][k] * 1e-6);
            if (q.warm)
                r.hitLatencyUs.push_back(latencyNs[c][k] * 1e-3);
        }
        r.jobs += plan.clients[c].size();
    }
    r.digest = hex64(h);
    std::uint64_t configRuns = 0;
    for (const std::uint64_t n : plan.configRuns)
        configRuns += n;
    r.simAccesses = static_cast<double>(configRuns) *
                    static_cast<double>(kDaemonAccesses +
                                        kDaemonAccesses / 10);
    memoMisses(s0, f0, r);
    // Concurrent first evaluations of one fault map may both run, so the
    // daemon's fault-cache misses are not a fixed count.
    r.faultMisses = -1;

    const obs::Metrics::DaemonSnapshot d = obs::globalMetrics().daemon();
    r.layers["daemon.memo_hit_ratio"] =
        ratio(static_cast<double>(d.memoHits),
              static_cast<double>(d.jobsSucceeded));
    r.layers["daemon.duplicate_computes"] =
        static_cast<double>(d.jobsSucceeded - d.memoHits) -
        static_cast<double>(plan.specs.size());

    if (o.checkFrames || o.traced) {
        // The daemon's answer to every spec, byte for byte, against the
        // one-shot path in this process.
        std::vector<const SchemeRunResult *> runs;
        std::vector<std::unique_ptr<app::JobOutcome>> outcomes;
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
            auto outcome = std::make_unique<app::JobOutcome>();
            {
                spans::Scoped s("app.run_job");
                *outcome = app::runJobSpec(
                    core::JobSpec::fromJsonText(plan.specs[i]), o.workers);
            }
            r.check(first[i] && outcome->document == *first[i],
                    "daemon frame differs from runJobSpec for spec " +
                        std::to_string(i));
            for (const SchemeRunResult &res : outcome->runs)
                runs.push_back(&res);
            outcomes.push_back(std::move(outcome));
        }
        if (o.traced)
            rowOpLayers(runs, r);
    }
    if (o.traced) {
        for (unsigned c = 0; c < clients; ++c) {
            for (const MixRequest &q : plan.clients[c]) {
                core::JobSpec js;
                {
                    spans::Scoped s("job_spec.parse");
                    js = core::JobSpec::fromJsonText(plan.specs[q.spec]);
                }
                spans::Scoped s("job_spec.to_json");
                const std::string canonicalText = js.toJson();
                s.count(canonicalText.size());
            }
        }
        for (const std::string *doc : first) {
            if (!doc)
                continue;
            std::string wire;
            {
                spans::Scoped s("net.encode");
                wire = net::encodeFrame(net::FrameType::Final, *doc);
            }
            spans::Scoped s("net.decode");
            net::FrameReader reader;
            reader.feed(wire.data(), wire.size());
            net::Frame frame;
            r.check(reader.next(frame) && frame.payload == *doc,
                    "frame round trip");
        }
        const auto t = spans::totals(spans::collect());
        r.layers["job_spec.parse_us"] = meanSpanUs(t, "job_spec.parse");
        r.layers["job_spec.to_json_us"] = meanSpanUs(t, "job_spec.to_json");
        r.layers["net.encode_us"] = meanSpanUs(t, "net.encode");
        r.layers["net.decode_us"] = meanSpanUs(t, "net.decode");
        r.layers["app.run_job_s"] = meanSpanUs(t, "app.run_job") * 1e-6;
    }
    return r;
}

} // namespace c8tb
