/**
 * @file
 * Figure 8 — the worked request-stream example.
 *
 * Replays the paper's §4.3 stream (Ra, Wb, Wb, Rb, Rb, Wb, Wa[silent],
 * Rb, Ra with all blocks resident and the Tag-Buffer initially empty)
 * through RMW, WG and WG+RB, printing the per-request array operations
 * so the output can be compared line by line with the figure.
 */

#include <iomanip>
#include <iostream>
#include <vector>

#include "core/controller.hh"
#include "stats/table.hh"

namespace
{

using namespace c8t;
using core::AccessOutcome;
using core::CacheController;
using core::ControllerConfig;
using core::WriteScheme;
using trace::AccessType;
using trace::MemAccess;

constexpr std::uint64_t blockA = 0x20000;
constexpr std::uint64_t blockB = 0x20040;

MemAccess
R(std::uint64_t addr)
{
    MemAccess a;
    a.addr = addr;
    return a;
}

MemAccess
W(std::uint64_t addr, std::uint64_t data)
{
    MemAccess a;
    a.addr = addr;
    a.type = AccessType::Write;
    a.data = data;
    return a;
}

} // anonymous namespace

int
main()
{
    const std::vector<std::pair<const char *, MemAccess>> stream = {
        {"Ra", R(blockA)},    {"Wb", W(blockB, 1)},
        {"Wb", W(blockB, 2)}, {"Rb", R(blockB)},
        {"Rb", R(blockB)},    {"Wb", W(blockB, 3)},
        {"Wa (silent)", W(blockA, 0)},
        {"Rb", R(blockB)},    {"Ra", R(blockA)},
    };

    stats::Table t("Figure 8: array operations per request "
                   "(reads+writes after each request)");
    t.setHeader({"request", "RMW", "WG", "WG+RB"});

    std::vector<mem::FunctionalMemory> mems(3);
    std::vector<CacheController> ctrls;
    const WriteScheme schemes[] = {WriteScheme::Rmw,
                                   WriteScheme::WriteGrouping,
                                   WriteScheme::WriteGroupingReadBypass};
    for (int i = 0; i < 3; ++i) {
        ControllerConfig cfg;
        cfg.scheme = schemes[i];
        ctrls.emplace_back(cfg, mems[i]);
        // Pre-warm both blocks so the example runs hit-only.
        ctrls.back().access(R(blockA));
        ctrls.back().access(R(blockB));
        ctrls.back().resetStats();
    }

    for (const auto &[label, acc] : stream) {
        std::vector<stats::Cell> row{std::string(label)};
        for (auto &c : ctrls) {
            const std::uint64_t before = c.demandAccesses();
            const AccessOutcome out = c.access(acc);
            const std::uint64_t ops = c.demandAccesses() - before;
            std::string cell = std::to_string(ops);
            if (out.bypassed)
                cell += " (bypassed)";
            row.push_back(cell);
        }
        t.addRow(std::move(row));
    }

    std::vector<stats::Cell> total{std::string("TOTAL")};
    for (auto &c : ctrls)
        total.emplace_back(static_cast<std::int64_t>(c.demandAccesses()));
    t.addRow(std::move(total));

    t.print(std::cout);
    std::cout << "\nPaper reference (Figure 8): WG groups the Wb "
                 "writes and elides the silent Wa's write-back; WG+RB "
                 "additionally bypasses the Rb/Ra Tag-Buffer hits.\n";
    return 0;
}
