/**
 * @file
 * Design-space explorer soak (DESIGN.md §12): the full cross-product
 * the roadmap's production-scale story is built around — every
 * calibrated SPEC profile × cache geometry × replacement × scheme ×
 * a three-point supply grid, reduced to per-workload Pareto frontiers.
 *
 * 25 workloads × 4 sizes × 3 ways × 2 blocks × 2 replacements
 * = 1200 cells × 4 schemes × 3 grid points = 14,400 config-runs,
 * comfortably past the 10^4 acceptance floor with the default window.
 * The run checkpoints into a throwaway directory (exercising the
 * serialize path) and reports config-runs/sec plus the stream-cache
 * hit rate — the dedup claim, measured.
 *
 * The per-run window defaults to 2000 measured accesses (ranking
 * designs needs far fewer accesses than absolute-rate reporting);
 * C8T_BENCH_ACCESSES overrides it like every other bench.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "bench/common.hh"
#include "core/explorer.hh"
#include "sram/cell.hh"
#include "stats/table.hh"

int
main()
{
    using namespace c8t;

    core::ExplorerSpec spec;
    spec.label = "bench_explorer";
    spec.workloads = trace::specBenchmarkNames();
    spec.sizesKb = {16, 32, 64, 128};
    spec.ways = {2, 4, 8};
    spec.blocks = {32, 64};
    spec.replacements = {mem::ReplKind::Lru, mem::ReplKind::Fifo};
    spec.vddGrid = {1.0, 0.9, 0.8};
    spec.cellsPerShard = 16;

    // Throwaway checkpoint directory: exercises the shard-serialize
    // path on every shard without leaving state behind.
    char ckpt[] = "/tmp/c8t_bench_explorer_XXXXXX";
    if (mkdtemp(ckpt))
        spec.checkpointDir = ckpt;

    core::RunConfig rc{200, 2000};
    if (std::getenv("C8T_BENCH_ACCESSES"))
        rc = bench::runConfig();
    else
        std::cerr << "bench: measuring " << rc.measureAccesses
                  << " accesses per config-run (set C8T_BENCH_ACCESSES "
                     "to override)\n";

    std::cerr << "bench_explorer: " << spec.configRunCount()
              << " config-runs over " << spec.cellCount() << " cells ("
              << spec.shardCount() << " shards)\n";
    const core::ExploreResult result = core::runExplore(spec, rc);

    stats::Table t("explore frontiers: best energy design per "
                   "workload (of " +
                   std::to_string(result.summaries.size()) +
                   " design points; energy pJ at min Vdd)");
    t.setHeader({"workload", "frontier", "config", "repl", "scheme",
                 "minVdd", "energy pJ", "miss%"});
    t.setPrecision(3);
    for (const std::string &w : result.workloads) {
        const auto front = result.frontier(w);
        const core::DesignPointSummary *best = nullptr;
        for (const core::DesignPointSummary *p : front) {
            if (!best || p->energyPerAccess < best->energyPerAccess)
                best = p;
        }
        if (!best)
            continue;
        std::ostringstream cfg;
        cfg << (best->sizeBytes >> 10) << "K/" << best->ways << "w/"
            << best->blockBytes << "B";
        t.addRow({w, static_cast<std::int64_t>(front.size()),
                  cfg.str(), mem::toString(best->repl), best->scheme,
                  best->minVdd, best->energyPerAccess * 1e12,
                  best->missRate * 100.0});
    }
    t.print(std::cout);

    std::cout << "\nexplore: " << result.configRunsExecuted
              << " config-runs (" << result.cellsSkipped
              << " cells skipped) in " << result.wallSeconds
              << " s = " << result.configRunsPerSec
              << " config-runs/s; stream-cache hit rate "
              << 100.0 * result.streamCacheHitRate << "%\n";

    if (!spec.checkpointDir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(spec.checkpointDir, ec);
    }
    return 0;
}
