/**
 * @file
 * FNV-1a 64-bit hashing over byte streams.
 *
 * One accumulator serves every content hash in the project: the ISA
 * encoder's semantic ops hash (persisted in `.bin` sections), the
 * bytecode engine's function fingerprint, the disk cache's entry
 * filenames and the composer's loop-schedule memo key. Callers feed
 * multi-byte values in an explicit byte order, so a hash never
 * depends on the host's endianness.
 */

#ifndef VVSP_SUPPORT_FNV_HH
#define VVSP_SUPPORT_FNV_HH

#include <cstdint>
#include <string>

namespace vvsp
{

/** FNV-1a 64 accumulator. */
class Fnv1a64
{
  public:
    /** The standard FNV-1a 64 offset basis. */
    static constexpr uint64_t kOffsetBasis = 14695981039346656037ull;
    /**
     * The standard basis with its last decimal digit dropped. The
     * function fingerprint and the disk cache's filenames were
     * defined with this seed; it is kept so that their values (and
     * every cache file already on disk) stay valid. Its hashes are
     * as well distributed as the standard basis's.
     */
    static constexpr uint64_t kTruncatedBasis = 1469598103934665603ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    explicit Fnv1a64(uint64_t seed = kOffsetBasis) : h_(seed) {}

    void
    byte(uint8_t b)
    {
        h_ ^= b;
        h_ *= kPrime;
    }

    /** The low `bytes` bytes of `v`, most significant first. */
    void
    bigEndian(uint64_t v, int bytes)
    {
        for (int i = bytes - 1; i >= 0; --i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** The low `bytes` bytes of `v`, least significant first. */
    void
    littleEndian(uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** The characters of `s` (no length prefix). */
    void
    chars(const std::string &s)
    {
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
};

} // namespace vvsp

#endif // VVSP_SUPPORT_FNV_HH
