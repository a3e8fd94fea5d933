/**
 * @file
 * Strict integer parsing shared by the spec reader, the command-line
 * options and the environment knobs, so every front end accepts and
 * rejects the same spellings.
 */

#ifndef CLOUDMC_COMMON_PARSE_HH
#define CLOUDMC_COMMON_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "bitutils.hh"

namespace mcsim {

/**
 * Parse a decimal unsigned integer. Digits only: strtoull would
 * silently wrap "-1" to 2^64-1 and saturate an overflowing value to
 * the same number, so signs, whitespace, trailing text and values
 * past 2^64-1 are all rejected. @p out is untouched on failure.
 */
inline bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Parse a nonzero power-of-two count that fits a 32-bit field
 *  (channel and vault counts). */
inline bool
parsePowerOf2Count(const std::string &text, std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!parseUint(text, v) || !isPowerOf2(v) ||
        v > std::numeric_limits<std::uint32_t>::max()) {
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

} // namespace mcsim

#endif // CLOUDMC_COMMON_PARSE_HH
