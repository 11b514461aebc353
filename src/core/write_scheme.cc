/**
 * @file
 * Write scheme helpers.
 */

#include "core/write_scheme.hh"

#include <stdexcept>

namespace c8t::core
{

const char *
toString(WriteScheme s)
{
    switch (s) {
      case WriteScheme::SixTDirect:
        return "6T";
      case WriteScheme::Rmw:
        return "RMW";
      case WriteScheme::LocalRmw:
        return "LocalRMW";
      case WriteScheme::WordGranular:
        return "WordGranular";
      case WriteScheme::WriteGrouping:
        return "WG";
      case WriteScheme::WriteGroupingReadBypass:
        return "WG+RB";
    }
    return "?";
}

WriteScheme
parseWriteScheme(const std::string &name)
{
    if (name == "6T")
        return WriteScheme::SixTDirect;
    if (name == "RMW")
        return WriteScheme::Rmw;
    if (name == "LocalRMW")
        return WriteScheme::LocalRmw;
    if (name == "WordGranular")
        return WriteScheme::WordGranular;
    if (name == "WG")
        return WriteScheme::WriteGrouping;
    if (name == "WG+RB")
        return WriteScheme::WriteGroupingReadBypass;
    throw std::invalid_argument("unknown write scheme: " + name);
}

const std::vector<WriteScheme> &
voltageStorySchemes()
{
    static const std::vector<WriteScheme> schemes = {
        WriteScheme::SixTDirect, WriteScheme::Rmw, WriteScheme::WriteGrouping,
        WriteScheme::WriteGroupingReadBypass};
    return schemes;
}

} // namespace c8t::core
