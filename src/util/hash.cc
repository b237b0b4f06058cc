#include "util/hash.hh"

#include <cstring>

namespace spg {

std::uint64_t
contentHash(const void *data, std::size_t bytes, std::uint64_t seed)
{
    constexpr std::uint64_t kPrime = 1099511628211ull;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t lane[4] = {14695981039346656037ull ^ seed,
                             0x9ae16a3b2f90404full,
                             0xc949d7c7509e6557ull,
                             0xff51afd7ed558ccdull};
    std::size_t i = 0;
    for (; i + 32 <= bytes; i += 32) {
        std::uint64_t word[4];
        std::memcpy(word, p + i, 32);
        for (int l = 0; l < 4; ++l) {
            lane[l] ^= word[l];
            lane[l] *= kPrime;
        }
    }
    for (; i < bytes; ++i) {
        lane[0] ^= p[i];
        lane[0] *= kPrime;
    }
    std::uint64_t h = lane[0];
    for (int l = 1; l < 4; ++l)
        h = (h ^ lane[l]) * kPrime + (h >> 29);
    return h;
}

} // namespace spg
