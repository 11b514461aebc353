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

bool
sharesPlan(const ControllerConfig &a, const ControllerConfig &b)
{
    return a.cache == b.cache && a.lowerLevels == b.lowerLevels;
}

MultiSchemeRunner::MultiSchemeRunner(std::vector<ControllerConfig> configs)
    : _configs(std::move(configs))
{
    if (_configs.empty())
        throw std::invalid_argument("MultiSchemeRunner: no configs");

    _stacks.reserve(_configs.size());
    for (std::size_t i = 0; i < _configs.size(); ++i) {
        PlanGroup *group = nullptr;
        for (PlanGroup &g : _groups) {
            if (sharesPlan(_configs[g.first], _configs[i])) {
                group = &g;
                break;
            }
        }
        // A planned group's members share its first member's memory.
        if (group && group->planned) {
            _stacks.push_back(std::make_unique<LevelStack>(
                _configs[i], _stacks[group->first]->memory()));
        } else {
            _memories.push_back(std::make_unique<mem::FunctionalMemory>());
            _stacks.push_back(
                std::make_unique<LevelStack>(_configs[i], *_memories.back()));
        }
        if (!group) {
            group = &_groups.emplace_back();
            group->first = i;
            group->planned = _stacks.back()->top().plannedChunkEligible();
        }
        group->tops.push_back(&_stacks.back()->top());
    }
}

CacheController &
MultiSchemeRunner::controller(std::size_t i)
{
    return _stacks.at(i)->top();
}

LevelStack &
MultiSchemeRunner::stack(std::size_t i)
{
    return *_stacks.at(i);
}

std::uint64_t
MultiSchemeRunner::replayWindow(trace::AccessGenerator &gen,
                                std::uint64_t accesses, bool measured)
{
    const bool hooked = measured && _intervalAccesses && _intervalHook;
    // One atomic read per window, not per chunk; the scopes below are
    // completely inert (no clock read) when the profiler is off.
    const bool prof_on = obs::prof::enabled();

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
        // Prefer a zero-copy view (ReplayGenerator lends its buffer);
        // fall back to copying into the local chunk otherwise.
        std::size_t got = 0;
        const trace::MemAccess *chunk = nullptr;
        {
            const obs::prof::ScopedPhase gen_scope(
                obs::prof::Phase::StreamGenerate, prof_on);
            chunk = gen.borrowChunk(static_cast<std::size_t>(want), got);
            if (!chunk) {
                if (_chunk.empty())
                    _chunk.resize(kChunkAccesses);
                got = gen.fillChunk(_chunk.data(),
                                    static_cast<std::size_t>(want));
                chunk = _chunk.data();
            }
        }
        if (got == 0)
            break;

        std::chrono::steady_clock::time_point chunk_t0;
        if (prof_on)
            chunk_t0 = std::chrono::steady_clock::now();

        // Plan groups are independent of each other, so feeding them
        // one after the other from the flat chunk is result-identical
        // to interleaving them per access. A planned group runs stage 1
        // once on its first member and applies that plan to all of
        // them in one fused loop over their shared memory: the tag
        // compares, the replacement arithmetic and the miss-fill reads
        // run once per shape, not once per scheme.
        {
            const obs::prof::ScopedPhase replay_scope(
                obs::prof::Phase::Replay, prof_on);
            for (const PlanGroup &g : _groups) {
                if (!g.planned) {
                    for (CacheController *c : g.tops)
                        c->accessChunk(chunk, got);
                    continue;
                }
                const mem::ChunkPlan *plan = nullptr;
                {
                    const obs::prof::ScopedPhase plan_scope(
                        obs::prof::Phase::Plan, prof_on);
                    plan = g.tops.front()->planReplayChunk(chunk, got);
                }
                CacheController::applyPlanGroup(g.tops, chunk, got, *plan);
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
        results.reserve(_stacks.size());
        for (auto &stack : _stacks)
            results.push_back(snapshotResult(gen.name(), *stack));
    }
    return results;
}

SchemeRunResult
snapshotResult(const std::string &workload, const CacheController &ctrl)
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
    r.dynamicEnergy = ctrl.dynamicEnergy();
    r.cycles = ctrl.cycle();
    // A lone controller is its own hierarchy: the total is the one
    // addend, bit-identically.
    r.totalDynamicEnergy = r.dynamicEnergy;
    return r;
}

SchemeRunResult
snapshotResult(const std::string &workload, const LevelStack &stack)
{
    SchemeRunResult r = snapshotResult(workload, stack.top());
    r.levels.reserve(stack.depth() - 1);
    for (std::size_t i = 1; i < stack.depth(); ++i)
        r.levels.push_back(snapshotResult(workload, stack.level(i)));
    for (const SchemeRunResult &lvl : r.levels)
        r.totalDynamicEnergy += lvl.dynamicEnergy;
    return r;
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
