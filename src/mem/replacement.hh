/**
 * @file
 * Replacement policy selector.
 *
 * The paper's baseline uses LRU; Tree-PLRU, FIFO and Random are
 * provided both as substrate completeness and for the replacement
 * sensitivity ablation (bench/abl_replacement). The policies run on
 * the TagArray's packed per-set encodings (mem/cache.hh).
 */

#ifndef C8T_MEM_REPLACEMENT_HH
#define C8T_MEM_REPLACEMENT_HH

#include <cstdint>
#include <string>

namespace c8t::mem
{

/** Replacement policy selector. */
enum class ReplKind : std::uint8_t {
    Lru,
    TreePlru,
    Fifo,
    Random,
};

/** Human readable policy name. */
const char *toString(ReplKind k);

/** Parse a policy name ("lru", "plru", "fifo", "random").
 *  @throws std::invalid_argument on unknown names. */
ReplKind parseReplKind(const std::string &name);

} // namespace c8t::mem

#endif // C8T_MEM_REPLACEMENT_HH
