/**
 * @file
 * The workload specifier syntax shared by every front end: c8tsim's
 * --workload flag, a c8td request's "workload" key (through
 * core::JobSpec) and c8ttrace gen.
 */

#ifndef C8T_TRACE_WORKLOAD_HH
#define C8T_TRACE_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace c8t::trace
{

/** Builds a fresh generator of one workload on every call. */
using WorkloadFactory = std::function<std::unique_ptr<AccessGenerator>()>;

/**
 * Parse the workload named by @p spec: spec:<benchmark> (one of the 25
 * calibrated SPEC profiles), kernel:<name> (see kernelNames()) or
 * trace:<path> (a binary trace file). The kind and the benchmark or
 * kernel name are checked here; nothing is built and no file is
 * opened until the returned factory is called.
 * @throws std::invalid_argument on an unknown specifier.
 * The factory throws std::runtime_error when a trace file cannot be
 * opened.
 */
WorkloadFactory makeWorkload(const std::string &spec);

/** All valid kernel names accepted by makeWorkload(). */
std::vector<std::string> kernelNames();

} // namespace c8t::trace

#endif // C8T_TRACE_WORKLOAD_HH
