/**
 * @file
 * FNV-1a-64, the tree's one content hash: checkpoint fingerprints and
 * journal line checksums (core/checkpoint) and the fault-log
 * fingerprint (net/fault) all use it.
 */
#ifndef ORION_BASE_HASH_HH
#define ORION_BASE_HASH_HH

#include <cstdint>
#include <string_view>

namespace orion::core {

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** FNV-1a-64 over the bytes of @p s, continuing from @p h. */
constexpr std::uint64_t
fnv1a64(std::string_view s, std::uint64_t h = kFnvOffset)
{
    for (const char ch : s)
        h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    return h;
}

/** FNV-1a-64 over @p v's 8 little-endian bytes, continuing from
 * @p h. */
constexpr std::uint64_t
fnv1a64(std::uint64_t v, std::uint64_t h)
{
    for (unsigned i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    return h;
}

} // namespace orion::core

#endif // ORION_BASE_HASH_HH
