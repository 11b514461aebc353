/**
 * @file
 * MemAccess helpers.
 */

#include "trace/access.hh"

#include <sstream>

namespace c8t::trace
{

const char *
toString(AccessType t)
{
    return t == AccessType::Read ? "R" : "W";
}

std::size_t
AccessGenerator::fillChunk(MemAccess *dst, std::size_t n)
{
    std::size_t i = 0;
    while (i < n && next(dst[i]))
        ++i;
    return i;
}

const char *
MemAccess::contractViolation() const
{
    if (type != AccessType::Read && type != AccessType::Write)
        return "type is neither read nor write";
    if (size != 1 && size != 2 && size != 4 && size != 8)
        return "size is not 1, 2, 4 or 8 bytes";
    if ((addr & 7) + size > 8)
        return "access straddles an 8-byte word";
    return nullptr;
}

std::string
MemAccess::toString() const
{
    std::ostringstream os;
    os << c8t::trace::toString(type) << " 0x" << std::hex << addr
       << std::dec << " sz=" << static_cast<unsigned>(size)
       << " gap=" << gap;
    if (isWrite())
        os << " data=0x" << std::hex << data << std::dec;
    return os.str();
}

} // namespace c8t::trace
