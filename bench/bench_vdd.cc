/**
 * @file
 * Voltage scaling — per-scheme min-operational-Vdd and energy/EDP
 * curves (DESIGN.md §10).
 *
 * The paper's power argument in one figure: the 6T baseline's read
 * stability collapses first, capping its minimum supply, while the 8T
 * schemes keep scaling; among the 8T schemes WG and WG+RB recoup the
 * RMW energy tax at every operating point, so the low-voltage 8T cache
 * comes out ahead on both axes. Each grid voltage runs every scheme on
 * the byte-identical stream with the voltage model attached; the
 * operational verdict comes from a Monte-Carlo SEC-DED fault map per
 * (cell type, Vdd).
 */

#include <iostream>
#include <sstream>

#include "bench/common.hh"
#include "core/vdd_sweep.hh"
#include "sram/cell.hh"
#include "stats/table.hh"

int
main()
{
    using namespace c8t;
    using core::WriteScheme;

    core::VddSweepSpec spec; // 64 KB / 4-way / 32 B; default grid
    const trace::StreamParams profile = trace::specProfile("gcc");
    spec.makeGenerator =
        [profile]() -> std::unique_ptr<trace::AccessGenerator> {
        return std::make_unique<trace::MarkovStream>(profile);
    };
    spec.streamKey = trace::streamSignature(profile);

    const core::VddSweepResult result =
        core::runVddSweep(spec, bench::runConfig());

    stats::Table t("Voltage sweep: energy per access (pJ; * = not "
                   "operational), " + result.workload + " on 64KB/4w/32B");
    t.setHeader({"vdd", "6T pJ", "RMW pJ", "WG pJ", "WG+RB pJ",
                 "WG+RB EDP (pJ*ns)"});
    t.setPrecision(3);
    const core::VddCurve &wgrb =
        *result.curve(WriteScheme::WriteGroupingReadBypass);
    for (std::size_t gi = 0; gi < result.grid.size(); ++gi) {
        std::vector<stats::Cell> row{result.grid[gi]};
        for (const core::VddCurve &c : result.curves) {
            std::ostringstream cell;
            cell.precision(3);
            cell << std::fixed
                 << c.points[gi].energyPerAccess * 1e12;
            if (!c.points[gi].operational)
                cell << '*';
            row.emplace_back(cell.str());
        }
        row.emplace_back(wgrb.points[gi].edpPerAccess * 1e21);
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\nmin operational Vdd (post-ECC word failure rate <= "
              << result.failureThreshold << "):";
    for (const core::VddCurve &c : result.curves) {
        std::cout << "  " << c.scheme << " (" << sram::toString(c.cell)
                  << ") " << c.minVdd << " V";
    }
    std::cout << "\n";

    // The two headline claims, checked over the whole grid.
    const core::VddCurve *sixt = result.curve(WriteScheme::SixTDirect);
    const core::VddCurve *rmw = result.curve(WriteScheme::Rmw);
    const core::VddCurve *wgrb2 =
        result.curve(WriteScheme::WriteGroupingReadBypass);
    bool dominates = true;
    for (std::size_t gi = 0; gi < result.grid.size(); ++gi) {
        if (wgrb2->points[gi].energyPerAccess >=
            rmw->points[gi].energyPerAccess)
            dominates = false;
    }
    std::cout << "8T min-Vdd below 6T: "
              << (rmw->minVdd < sixt->minVdd ? "yes" : "NO")
              << "; WG+RB below RMW energy at every Vdd: "
              << (dominates ? "yes" : "NO") << "\n";

    std::cout << "\nPaper reference: the decoupled 8T read stack keeps "
                 "read SNM equal to hold SNM, so the 8T schemes stay "
                 "operational several grid steps below the 6T baseline; "
                 "write grouping plus read bypass recoups the RMW tax, "
                 "making the low-voltage 8T cache cheaper than 8T-RMW "
                 "at every supply level.\n";
    return 0;
}
