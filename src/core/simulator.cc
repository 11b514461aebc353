/**
 * @file
 * Simulation drivers.
 */

#include "core/simulator.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace c8t::core
{

namespace
{

/** Level @p i of @p config as its replay sees it: the supply resolved
 *  into latency cycles, the voltage itself dropped. */
ControllerConfig
replayedLevel(const ControllerConfig &config, std::size_t i)
{
    ControllerConfig c = levelConfig(config, i);
    c.latency = resolvedLatency(c);
    c.vdd = 0.0;
    return c;
}

/** The snapshot of one level, its energy priced at @p dynamic_energy;
 *  a lone controller is its own hierarchy, so the total is that one
 *  addend, bit-identically. */
SchemeRunResult
snapshotLevel(const std::string &workload, const CacheController &ctrl,
              double dynamic_energy)
{
    SchemeRunResult r;
    r.workload = workload;
    r.scheme = toString(ctrl.config().scheme);
    r.requests = ctrl.requests();
    r.reads = ctrl.readRequests();
    r.writes = ctrl.writeRequests();
    r.demandAccesses = ctrl.demandAccesses();
    r.demandRowReads = ctrl.demandRowReads();
    r.demandRowWrites = ctrl.demandRowWrites();
    r.fillAccesses = ctrl.fillRowReads() + ctrl.fillRowWrites();
    r.hits = ctrl.tags().hits();
    r.misses = ctrl.tags().misses();
    r.groupedWrites = ctrl.groupedWrites();
    r.bypassedReads = ctrl.bypassedReads();
    r.prematureWritebacks = ctrl.prematureWritebacks();
    r.silentWritesDetected = ctrl.silentWritesDetected();
    r.silentGroupsElided = ctrl.silentGroupsElided();
    r.meanGroupSize = ctrl.groupSizes().mean();
    r.portStallCycles = ctrl.ports().stallCycles();
    r.portConflicts = ctrl.ports().conflicts();
    r.meanReadLatency = ctrl.readLatency().mean();
    r.dynamicEnergy = dynamic_energy;
    r.cycles = ctrl.cycle();
    r.totalDynamicEnergy = r.dynamicEnergy;
    return r;
}

/**
 * The calling thread's chunk buffer, kChunkAccesses records long. A
 * grid runs thousands of short jobs on a few threads, so each thread
 * allocates one buffer for its lifetime instead of each job its own.
 */
trace::MemAccess *
threadChunk()
{
    thread_local std::vector<trace::MemAccess> chunk(
        MultiSchemeRunner::kChunkAccesses);
    return chunk.data();
}

} // anonymous namespace

bool
sharesPlan(const ControllerConfig &a, const ControllerConfig &b)
{
    return a.cache == b.cache && a.lowerLevels == b.lowerLevels;
}

bool
sharesReplay(const ControllerConfig &a, const ControllerConfig &b)
{
    if (a.lowerLevels.size() != b.lowerLevels.size())
        return false;
    for (std::size_t i = 0; i <= a.lowerLevels.size(); ++i) {
        if (!(replayedLevel(a, i) == replayedLevel(b, i)))
            return false;
    }
    return true;
}

MultiSchemeRunner::MultiSchemeRunner(std::vector<ControllerConfig> configs)
    : _configs(std::move(configs))
{
    if (_configs.empty())
        throw std::invalid_argument("MultiSchemeRunner: no configs");

    // One stack per class of configurations the replay cannot tell
    // apart: the class's first member builds it, and the others ride
    // on it and are only priced on their own.
    const auto replays =
        classesOf(_configs.size(), [&](std::size_t a, std::size_t b) {
            return sharesReplay(_configs[a], _configs[b]);
        });
    const auto groups =
        classesOf(replays.size(), [&](std::size_t a, std::size_t b) {
            return sharesPlan(_configs[replays[a].front()],
                              _configs[replays[b].front()]);
        });
    _stackOf.resize(_configs.size());
    _stacks.resize(replays.size());
    // One memory per plan group: its first stack stores victims there,
    // and the others follow.
    for (const std::vector<std::size_t> &members : groups) {
        _memories.push_back(std::make_unique<mem::FunctionalMemory>());
        std::vector<CacheController *> &tops = _groups.emplace_back();
        for (const std::size_t r : members) {
            _stacks[r] = std::make_unique<LevelStack>(
                _configs[replays[r].front()], *_memories.back(),
                tops.empty() ? MemoryRole::Owner : MemoryRole::Follower);
            tops.push_back(&_stacks[r]->top());
            for (const std::size_t i : replays[r])
                _stackOf[i] = r;
        }
    }
}

CacheController &
MultiSchemeRunner::controller(std::size_t i)
{
    return stack(i).top();
}

LevelStack &
MultiSchemeRunner::stack(std::size_t i)
{
    return *_stacks[_stackOf.at(i)];
}

std::uint64_t
MultiSchemeRunner::replayWindow(trace::AccessGenerator &gen,
                                std::uint64_t accesses, bool measured)
{
    const bool hooked = measured && _intervalAccesses && _intervalHook;
    // One atomic read per window, not per chunk; the scopes below are
    // completely inert (no clock read) when the profiler is off.
    const bool prof_on = obs::prof::enabled();
    trace::MemAccess *const chunk = threadChunk();

    std::uint64_t done = 0;
    while (done < accesses) {
        std::uint64_t want =
            std::min<std::uint64_t>(kChunkAccesses, accesses - done);
        if (hooked) {
            // Never let a chunk straddle an interval boundary: the
            // hook must observe the controllers exactly at multiples
            // of the interval, as the per-access loop did.
            want = std::min(want,
                            _intervalAccesses - done % _intervalAccesses);
        }
        std::size_t got = 0;
        {
            const obs::prof::ScopedPhase gen_scope(
                obs::prof::Phase::StreamGenerate, prof_on);
            got = gen.fillChunk(chunk, static_cast<std::size_t>(want));
        }
        if (got == 0)
            break;

        std::chrono::steady_clock::time_point chunk_t0;
        if (prof_on)
            chunk_t0 = std::chrono::steady_clock::now();

        // Plan groups are independent of each other, so feeding them
        // one after the other from the flat chunk is result-identical
        // to interleaving them per access. Each group replays as one
        // fused loop over its shared memory. When its first member
        // plans, stage 1 runs once on it and the tag compares, the
        // replacement arithmetic and the miss-fill reads run once per
        // shape, not once per scheme; otherwise (Random, hierarchy L1s)
        // every member resolves each access live.
        {
            const obs::prof::ScopedPhase replay_scope(
                obs::prof::Phase::Replay, prof_on);
            for (const std::vector<CacheController *> &tops : _groups) {
                const mem::ChunkPlan *plan = nullptr;
                if (tops.front()->plannedChunkEligible()) {
                    const obs::prof::ScopedPhase plan_scope(
                        obs::prof::Phase::Plan, prof_on);
                    plan = tops.front()->planReplayChunk(chunk, got);
                }
                CacheController::applyPlanGroup(tops, chunk, got, plan);
            }
        }
        if (prof_on) {
            obs::globalMetrics().recordChunkReplayNs(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - chunk_t0)
                        .count()));
        }

        done += got;
        if (hooked && done % _intervalAccesses == 0)
            _intervalHook(done);
    }
    return done;
}

std::vector<SchemeRunResult>
MultiSchemeRunner::run(trace::AccessGenerator &gen, const RunConfig &run)
{
    gen.reset();

    replayWindow(gen, run.warmupAccesses, false);
    for (auto &stack : _stacks)
        stack->resetStats();

    replayWindow(gen, run.measureAccesses, true);

    std::vector<SchemeRunResult> results;
    {
        // Drain + result materialization is where the deferred energy
        // event counters turn into joules — the "energy" phase.
        const obs::prof::ScopedPhase energy_scope(
            obs::prof::Phase::Energy);
        for (auto &stack : _stacks)
            stack->drain();
        results.reserve(_configs.size());
        for (std::size_t i = 0; i < _configs.size(); ++i)
            results.push_back(
                snapshotResult(gen.name(), stack(i), _configs[i]));
    }
    return results;
}

SchemeRunResult
snapshotResult(const std::string &workload, const CacheController &ctrl)
{
    return snapshotLevel(workload, ctrl, ctrl.dynamicEnergy());
}

SchemeRunResult
snapshotResult(const std::string &workload, const LevelStack &stack,
               const ControllerConfig &config)
{
    const auto priced = [&](std::size_t i) {
        const CacheController &level = stack.level(i);
        return snapshotLevel(
            workload, level,
            level.dynamicEnergy(eventRates(levelConfig(config, i))));
    };
    SchemeRunResult r = priced(0);
    r.levels.reserve(stack.depth() - 1);
    for (std::size_t i = 1; i < stack.depth(); ++i)
        r.levels.push_back(priced(i));
    for (const SchemeRunResult &lvl : r.levels)
        r.totalDynamicEnergy += lvl.dynamicEnergy;
    return r;
}

SchemeRunResult
snapshotResult(const std::string &workload, const LevelStack &stack)
{
    return snapshotResult(workload, stack, stack.top().config());
}

StreamStats
analyzeStream(trace::AccessGenerator &gen, const mem::AddrLayout &layout,
              std::uint64_t accesses)
{
    gen.reset();
    StreamAnalyzer analyzer(layout);

    trace::MemAccess a;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        if (!gen.next(a))
            break;
        analyzer.observe(a);
    }

    StreamStats s;
    s.workload = gen.name();
    s.instructions = analyzer.instructions();
    s.accesses = analyzer.accesses();
    s.readInstrFraction = analyzer.readInstrFraction();
    s.writeInstrFraction = analyzer.writeInstrFraction();
    s.rrShare = analyzer.rrShare();
    s.rwShare = analyzer.rwShare();
    s.wwShare = analyzer.wwShare();
    s.wrShare = analyzer.wrShare();
    s.sameSetShare = analyzer.sameSetShare();
    s.silentWriteFraction = analyzer.silentWriteFraction();
    return s;
}

} // namespace c8t::core
