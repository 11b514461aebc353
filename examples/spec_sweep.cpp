/**
 * @file
 * SPEC sweep: reproduce the paper's whole evaluation in one program.
 *
 * Runs every calibrated SPEC CPU2006 profile through all six write
 * schemes on the baseline cache and prints a compact comparison,
 * including the paper's headline averages. Accepts an optional access
 * count argument:
 *
 *   ./build/examples/spec_sweep [accesses_per_benchmark]
 */

#include <cstdlib>
#include <iostream>

#include "core/simulator.hh"
#include "stats/table.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

int
main(int argc, char **argv)
{
    using namespace c8t;
    using core::WriteScheme;

    std::uint64_t accesses = 300'000;
    if (argc > 1)
        accesses = std::strtoull(argv[1], nullptr, 10);

    const std::vector<WriteScheme> schemes = {
        WriteScheme::SixTDirect,    WriteScheme::Rmw,
        WriteScheme::LocalRmw,      WriteScheme::WordGranular,
        WriteScheme::WriteGrouping, WriteScheme::WriteGroupingReadBypass,
    };

    stats::Table t("Demand array accesses, normalised to RMW = 1.000 "
                   "(64KB/4w/32B/LRU, " + std::to_string(accesses) +
                   " accesses per benchmark)");
    t.setHeader({"benchmark", "6T", "RMW", "LocalRMW", "WordGran",
                 "WG", "WG+RB", "grouped %", "bypassed %"});
    t.setPrecision(3);

    double wg_sum = 0, rb_sum = 0;
    for (const auto &p : trace::specProfiles()) {
        trace::MarkovStream gen(p);
        std::vector<core::ControllerConfig> cfgs;
        for (WriteScheme s : schemes) {
            core::ControllerConfig c;
            c.scheme = s;
            cfgs.push_back(c);
        }
        core::MultiSchemeRunner runner(std::move(cfgs));
        const auto res = runner.run(gen, {accesses / 10, accesses});

        const double rmw = static_cast<double>(res[1].demandAccesses);
        std::vector<stats::Cell> row{p.name};
        for (const auto &r : res)
            row.emplace_back(r.demandAccesses / rmw);
        row.emplace_back(100.0 * res[4].groupedWrites /
                         std::max<std::uint64_t>(res[4].writes, 1));
        row.emplace_back(100.0 * res[5].bypassedReads /
                         std::max<std::uint64_t>(res[5].reads, 1));
        t.addRow(std::move(row));

        wg_sum += 100.0 * (1.0 - res[4].demandAccesses / rmw);
        rb_sum += 100.0 * (1.0 - res[5].demandAccesses / rmw);
    }
    t.print(std::cout);

    const double n = trace::specProfiles().size();
    std::cout << "\nAverage reduction vs RMW:  WG " << wg_sum / n
              << " %   WG+RB " << rb_sum / n
              << " %   (paper: 27 % and 33 %)\n";
    return 0;
}
