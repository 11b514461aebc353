/**
 * @file
 * c8ttrace — trace file utility.
 *
 *   c8ttrace gen  --workload spec:gcc --accesses 1000000 --out g.trc
 *   c8ttrace info g.trc           # header + Figure 3-5 style stats
 *   c8ttrace dump g.trc --limit 20  # human-readable records
 */

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/options.hh"
#include "core/simulator.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"

namespace
{

using namespace c8t;

int
cmdGen(const std::vector<std::string> &args)
{
    std::string workload = "spec:gcc";
    std::uint64_t accesses = 1'000'000;
    std::string out;

    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--workload" && i + 1 < args.size())
            workload = args[++i];
        else if (args[i] == "--accesses" && i + 1 < args.size())
            accesses = app::parseU64("--accesses", args[++i]);
        else if (args[i] == "--out" && i + 1 < args.size())
            out = args[++i];
        else
            throw std::invalid_argument("gen: unknown option " + args[i]);
    }
    if (out.empty())
        throw std::invalid_argument("gen: --out PATH is required");

    auto gen = trace::makeWorkload(workload)();
    trace::TraceWriter writer(out);
    trace::MemAccess a;
    for (std::uint64_t i = 0; i < accesses && gen->next(a); ++i)
        writer.write(a);
    writer.finish();
    std::cout << "wrote " << writer.count() << " accesses of '"
              << gen->name() << "' to " << out << "\n";
    return 0;
}

int
cmdInfo(const std::vector<std::string> &args)
{
    if (args.empty())
        throw std::invalid_argument("info: trace path required");

    trace::TraceReader reader(args[0]);
    std::cout << "trace:    " << args[0] << "\n"
              << "records:  " << reader.count() << "\n";

    const mem::AddrLayout layout(32, 512); // the paper's baseline
    const core::StreamStats s =
        core::analyzeStream(reader, layout, reader.count());

    std::cout << "instructions:      " << s.instructions << "\n"
              << "memory fraction:   "
              << 100.0 * s.accesses / s.instructions << " %\n"
              << "reads / writes:    "
              << 100.0 * s.readInstrFraction << " % / "
              << 100.0 * s.writeInstrFraction
              << " % of instructions\n"
              << "same-set pairs:    " << 100.0 * s.sameSetShare
              << " %  (RR " << 100.0 * s.rrShare << ", RW "
              << 100.0 * s.rwShare << ", WW " << 100.0 * s.wwShare
              << ", WR " << 100.0 * s.wrShare << ")\n"
              << "silent writes:     "
              << 100.0 * s.silentWriteFraction << " %\n";
    return 0;
}

int
cmdDump(const std::vector<std::string> &args)
{
    if (args.empty())
        throw std::invalid_argument("dump: trace path required");

    std::uint64_t limit = 50;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--limit" && i + 1 < args.size())
            limit = app::parseU64("--limit", args[++i]);
        else
            throw std::invalid_argument("dump: unknown option " +
                                        args[i]);
    }

    trace::TraceReader reader(args[0]);
    trace::MemAccess a;
    for (std::uint64_t i = 0; i < limit && reader.next(a); ++i)
        std::cout << a.toString() << "\n";
    return 0;
}

const char *usage =
    "c8ttrace — trace file utility\n"
    "\n"
    "  c8ttrace gen  --workload SPEC --accesses N --out PATH\n"
    "  c8ttrace info PATH\n"
    "  c8ttrace dump PATH [--limit N]\n"
    "\n"
    "Workload specifiers match c8tsim: spec:<bench>, kernel:<name>,\n"
    "trace:<path>.\n";

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.empty() || args[0] == "--help" || args[0] == "-h") {
            std::cout << usage;
            return args.empty() ? 1 : 0;
        }
        const std::string cmd = args[0];
        args.erase(args.begin());
        if (cmd == "gen")
            return cmdGen(args);
        if (cmd == "info")
            return cmdInfo(args);
        if (cmd == "dump")
            return cmdDump(args);
        throw std::invalid_argument("unknown command: " + cmd);
    } catch (const std::exception &e) {
        std::cerr << "c8ttrace: " << e.what() << "\n";
        return 1;
    }
}
