/**
 * @file
 * FNV-1a 64-bit hashing, fed field by field.
 *
 * One shared implementation for every content fingerprint in the tree:
 * the ArchContext fabric fingerprint (arch/arch_context.cc), the
 * canonical DFG hash (dfg/canonical.cc), and the serve result-cache
 * checksums (serve/cache.cc). Multi-byte integers are folded low byte
 * first, so a hash is stable across host endianness — required because
 * the LSRV cache file and the model .meta files persist these values to
 * disk and validate them on load. Each fold consumes exactly the value's own
 * width (i32 -> 4 bytes, u64 -> 8): widening a field changes every
 * downstream fingerprint and silently invalidates those files, so the
 * widths here are part of the on-disk format.
 */

#ifndef LISA_SUPPORT_FNV_HH
#define LISA_SUPPORT_FNV_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lisa::support {

/** FNV-1a 64-bit offset basis and prime. */
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/** Incremental FNV-1a 64-bit hasher. */
struct Fnv1a
{
    uint64_t h = kFnvOffsetBasis;

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= kFnvPrime;
        }
    }

    /** Fold a 64-bit value low byte first (endianness-stable). */
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= kFnvPrime;
        }
    }

    /** Fold a 32-bit value low byte first (endianness-stable). */
    void
    i32(int32_t v)
    {
        const auto u = static_cast<uint32_t>(v);
        for (int i = 0; i < 4; ++i) {
            h ^= (u >> (8 * i)) & 0xff;
            h *= kFnvPrime;
        }
    }

    void
    str(std::string_view s)
    {
        bytes(s.data(), s.size());
    }
};

/** One-shot FNV-1a over a byte string. */
inline uint64_t
fnv1a(std::string_view s)
{
    Fnv1a f;
    f.str(s);
    return f.h;
}

} // namespace lisa::support

#endif // LISA_SUPPORT_FNV_HH
