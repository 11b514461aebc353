/**
 * @file
 * Workload specifier parsing.
 */

#include "trace/workload.hh"

#include <stdexcept>
#include <utility>

#include "trace/kernels.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_io.hh"

namespace c8t::trace
{

namespace
{

/** The kernels, in kernelNames() order, sized so the default run
 *  lengths exercise them meaningfully (a trace file gives full
 *  control). */
const std::vector<std::pair<std::string, WorkloadFactory>> &
kernels()
{
    static const std::vector<std::pair<std::string, WorkloadFactory>> k{
        {"stream_copy",
         [] { return std::make_unique<StreamCopyKernel>(1'000'000, 4); }},
        {"stencil3",
         [] { return std::make_unique<StencilKernel>(1'000'000, 4); }},
        {"pointer_chase",
         [] {
             return std::make_unique<PointerChaseKernel>(1 << 16, 8'000'000);
         }},
        {"hash_update",
         [] {
             return std::make_unique<HashUpdateKernel>(1 << 14, 4'000'000,
                                                       0.35, 1.5);
         }},
        {"transpose",
         [] { return std::make_unique<TransposeKernel>(1024, 8); }},
        {"fill", [] { return std::make_unique<FillKernel>(500'000, 8); }},
    };
    return k;
}

} // anonymous namespace

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const auto &k : kernels())
        names.push_back(k.first);
    return names;
}

WorkloadFactory
makeWorkload(const std::string &spec)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos) {
        throw std::invalid_argument(
            "workload must be spec:<bench>, kernel:<name> or "
            "trace:<path>, got '" + spec + "'");
    }
    const std::string kind = spec.substr(0, colon);
    const std::string name = spec.substr(colon + 1);

    if (kind == "spec") {
        try {
            const StreamParams &profile = specProfile(name);
            return [profile] {
                return std::make_unique<MarkovStream>(profile);
            };
        } catch (const std::out_of_range &) {
            throw std::invalid_argument("unknown SPEC benchmark: " + name);
        }
    }
    if (kind == "trace")
        return [name] { return std::make_unique<TraceReader>(name); };
    if (kind == "kernel") {
        for (const auto &k : kernels()) {
            if (k.first == name)
                return k.second;
        }
        throw std::invalid_argument("unknown kernel: " + name);
    }
    throw std::invalid_argument("unknown workload kind: " + kind);
}

} // namespace c8t::trace
