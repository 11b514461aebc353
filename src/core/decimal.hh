/**
 * @file
 * core::parseDecimal, the one parser of unsigned decimal numbers from
 * outside input: c8tsim/c8td flags (app::parseU64) and environment
 * variables (C8T_STREAM_CACHE_MB, C8T_JOBS, the bench overrides).
 */

#ifndef C8T_CORE_DECIMAL_HH
#define C8T_CORE_DECIMAL_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace c8t::core
{

/** @p text as a number when it is all decimal digits and fits 64 bits,
 *  else nullopt. A sign or a space is rejected, where std::stoull and
 *  strtoull read "-1" as 2^64 - 1. */
inline std::optional<std::uint64_t>
parseDecimal(std::string_view text)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return v;
}

} // namespace c8t::core

#endif // C8T_CORE_DECIMAL_HH
