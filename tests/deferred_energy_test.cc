/**
 * @file
 * Tests of the deferred (count-then-multiply) energy accounting.
 *
 * The controller's hot path increments integer event counters only;
 * dynamicEnergy() materializes joules on demand (DESIGN.md §7). The
 * audit hook fires at every point the historical implementation added
 * to its running total, in the same order — so a sequential per-event
 * accumulation built from the hook must agree with the materialized
 * value to summation-order rounding (ULPs) on golden streams, for
 * every write scheme. Interval consumers (the MultiSchemeRunner hook
 * feeding obs::IntervalSnapshotter) must still observe monotone
 * non-decreasing energy per window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hh"
#include "core/policies.hh"
#include "core/simulator.hh"
#include "mem/functional_mem.hh"
#include "obs/snapshot.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t::core;
using c8t::mem::FunctionalMemory;
using c8t::trace::MarkovStream;
using c8t::trace::MemAccess;
using c8t::trace::specProfile;

/** Sequential reference accumulator fed by the audit hook: replays
 *  the historical per-access `_dynamicEnergy +=` accumulation and
 *  logs the ordered (event, bytes) sequence. */
struct ReferenceAccumulator
{
    /** Audit @p c from now on, pricing each event with the energy
     *  model of its data array. */
    explicit ReferenceAccumulator(CacheController &c)
        : ctrl(&c),
          em(dataArrayGeometry(c.config().cache, c.config().scheme,
                               c.config().interleaveDegree),
             c.config().tech)
    {
        c.setEnergyAudit(&ReferenceAccumulator::hook, this);
    }

    const CacheController *ctrl;
    const c8t::sram::EnergyModel em;
    double energy = 0.0;
    std::uint64_t events = 0;
    std::vector<std::pair<CacheController::EnergyEvent, std::uint32_t>>
        sequence;

    static void hook(void *ctx, CacheController::EnergyEvent ev,
                     std::uint32_t bytes)
    {
        auto *self = static_cast<ReferenceAccumulator *>(ctx);
        const c8t::sram::EnergyModel &em = self->em;
        ++self->events;
        self->sequence.emplace_back(ev, bytes);
        switch (ev) {
          case CacheController::EnergyEvent::RowRead:
            self->energy += em.rowReadEnergy();
            break;
          case CacheController::EnergyEvent::RowWrite:
            self->energy += em.rowWriteEnergy();
            break;
          case CacheController::EnergyEvent::PartialWrite:
            self->energy += em.partialWriteEnergy(bytes);
            break;
          case CacheController::EnergyEvent::SetBufferRead:
            self->energy += em.setBufferReadEnergy(bytes);
            break;
          case CacheController::EnergyEvent::SetBufferWrite:
            self->energy += em.setBufferWriteEnergy(bytes);
            break;
          case CacheController::EnergyEvent::TagCompare:
            self->energy += em.tagCompareEnergy(
                self->ctrl->tags().layout().tagBits(),
                self->ctrl->config().cache.ways);
            break;
        }
    }
};

/** Total events implied by the deferred counters. */
std::uint64_t
countedEvents(const CacheController::EnergyCounts &c)
{
    std::uint64_t n = c.rowReads + c.rowWrites + c.setBufferReadRows +
                      c.setBufferWriteRows + c.tagCompares;
    for (int b = 1; b <= 8; ++b)
        n += c.partialWrites[b] + c.setBufferReads[b] +
             c.setBufferWrites[b];
    return n;
}

class DeferredEnergyScheme
    : public ::testing::TestWithParam<WriteScheme>
{};

TEST_P(DeferredEnergyScheme, MaterializationMatchesSequentialSum)
{
    ControllerConfig cfg;
    cfg.scheme = GetParam();
    FunctionalMemory memory;
    CacheController ctrl(cfg, memory);

    ReferenceAccumulator ref(ctrl);

    MarkovStream gen(specProfile("gcc"));
    MemAccess a;
    for (int i = 0; i < 40'000 && gen.next(a); ++i)
        ctrl.access(a);
    ctrl.drain();

    ASSERT_GT(ref.events, 0u);
    EXPECT_EQ(countedEvents(ctrl.energyCounts()), ref.events);

    // Same addends, different summation order: agreement to ULPs.
    const double got = ctrl.dynamicEnergy();
    ASSERT_GT(got, 0.0);
    EXPECT_NEAR(got, ref.energy, 1e-9 * std::abs(ref.energy));
}

TEST_P(DeferredEnergyScheme, ChunkedReplayAuditsIdentically)
{
    // accessChunk() — planned, with the audit attached — must fire the
    // same ordered audit sequence (hence the same counters and energy)
    // as per-access replay of the same stream.
    ControllerConfig cfg;
    cfg.scheme = GetParam();

    FunctionalMemory memA, memB;
    CacheController perAccess(cfg, memA);
    CacheController chunked(cfg, memB);

    ReferenceAccumulator refA(perAccess), refB(chunked);

    std::vector<MemAccess> stream;
    MarkovStream gen(specProfile("leslie3d"));
    MemAccess a;
    for (int i = 0; i < 20'000 && gen.next(a); ++i)
        stream.push_back(a);

    // The audit does not move the chunks off the planned path.
    ASSERT_NE(chunked.planReplayChunk(stream.data(), 1000), nullptr);

    for (const MemAccess &m : stream)
        perAccess.access(m);
    for (std::size_t at = 0; at < stream.size(); at += 1000)
        chunked.accessChunk(stream.data() + at,
                            std::min<std::size_t>(
                                1000, stream.size() - at));

    EXPECT_EQ(refA.sequence, refB.sequence);
    EXPECT_DOUBLE_EQ(refA.energy, refB.energy);
    EXPECT_DOUBLE_EQ(perAccess.dynamicEnergy(), chunked.dynamicEnergy());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DeferredEnergyScheme,
    ::testing::Values(WriteScheme::SixTDirect, WriteScheme::Rmw,
                      WriteScheme::LocalRmw, WriteScheme::WordGranular,
                      WriteScheme::WriteGrouping,
                      WriteScheme::WriteGroupingReadBypass),
    [](const ::testing::TestParamInfo<WriteScheme> &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(DeferredEnergy, ResetStatsClearsCounts)
{
    ControllerConfig cfg;
    cfg.scheme = WriteScheme::Rmw;
    FunctionalMemory memory;
    CacheController ctrl(cfg, memory);

    MarkovStream gen(specProfile("gcc"));
    MemAccess a;
    for (int i = 0; i < 2'000 && gen.next(a); ++i)
        ctrl.access(a);
    ASSERT_GT(ctrl.dynamicEnergy(), 0.0);

    ctrl.resetStats();
    EXPECT_EQ(countedEvents(ctrl.energyCounts()), 0u);
    EXPECT_EQ(ctrl.dynamicEnergy(), 0.0);
}

TEST(DeferredEnergy, IntervalWindowsSeeMonotoneEnergy)
{
    // The runner's interval hook (the feed for IntervalSnapshotter
    // time series) must observe non-decreasing materialized energy at
    // every window boundary, for every scheme in the run.
    std::vector<ControllerConfig> cfgs(3);
    cfgs[0].scheme = WriteScheme::Rmw;
    cfgs[1].scheme = WriteScheme::WriteGrouping;
    cfgs[2].scheme = WriteScheme::WriteGroupingReadBypass;
    MultiSchemeRunner runner(cfgs);

    // A snapshotter on controller 0's registry rides along, proving
    // the counter time-series path still works over chunked replay.
    c8t::stats::Registry reg;
    runner.controller(0).registerStats(reg);
    std::ostringstream series;
    c8t::obs::IntervalSnapshotter snap(reg, series, "rmw");

    std::vector<std::vector<double>> perWindow(cfgs.size());
    runner.setIntervalHook(5'000, [&](std::uint64_t done) {
        snap.sample(done);
        for (std::size_t c = 0; c < cfgs.size(); ++c)
            perWindow[c].push_back(runner.controller(c).dynamicEnergy());
    });

    MarkovStream gen(specProfile("gcc"));
    RunConfig run;
    run.warmupAccesses = 10'000;
    run.measureAccesses = 50'000;
    runner.run(gen, run);

    EXPECT_EQ(snap.samples(), 10u);
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        ASSERT_EQ(perWindow[c].size(), 10u) << "scheme " << c;
        EXPECT_GT(perWindow[c].front(), 0.0) << "scheme " << c;
        for (std::size_t i = 1; i < perWindow[c].size(); ++i)
            EXPECT_GE(perWindow[c][i], perWindow[c][i - 1])
                << "scheme " << c << " window " << i;
    }

    // One JSON line per sample.
    const std::string text = series.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              snap.samples());
}

} // namespace
