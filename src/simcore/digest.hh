/**
 * @file
 * Output digesting for determinism checks.
 *
 * One tiny, dependency-free hash (FNV-1a, 64-bit) rendered as 16 hex
 * digits.  Golden tests and benches all funnel rendered output
 * through the same function, so "the same digest" means the same
 * thing everywhere: byte-identical text.
 */

#ifndef IOAT_SIMCORE_DIGEST_HH
#define IOAT_SIMCORE_DIGEST_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace ioat::sim {

/** FNV-1a over @p text, as 16 lowercase hex digits. */
inline std::string
digestOf(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
}

} // namespace ioat::sim

#endif // IOAT_SIMCORE_DIGEST_HH
