/**
 * @file
 * SplitMix64 (Steele, Lea and Flood): one Weyl step followed by a
 * 64-bit finalizer. A bijection on 64-bit words with good avalanche,
 * used both as a hash and, over a Weyl counter, as a random stream.
 */
#pragma once

#include <cstdint>

namespace cosmic {

/** Golden-ratio Weyl increment of SplitMix64. */
inline constexpr uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/** The SplitMix64 output for state @p x (the state advanced by one
 *  Weyl step, then finalized). */
inline uint64_t
splitmix64(uint64_t x)
{
    x += kSplitMixGamma;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace cosmic
