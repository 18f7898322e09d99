/**
 * @file
 * FNV-1a hashing for event-stream fingerprints.
 *
 * The determinism auditor folds every executed simulator event into a
 * rolling 64-bit FNV-1a hash; two runs of the same configuration must
 * end with the same fingerprint. FNV is chosen for the same reasons
 * trace checksummers usually choose it: cheap enough for the event hot
 * path, stateless (one word of state), and order-sensitive, so any
 * divergence in event execution order changes the final digest.
 */
// wave-domain: neutral
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace wave::check {

/** 64-bit FNV-1a offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** kFnvPrimePow[k] == kFnvPrime^k (mod 2^64), for k in 0..8. */
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
    std::array<std::uint64_t, 9> pow{};
    pow[0] = 1;
    for (std::size_t k = 1; k < pow.size(); ++k) {
        pow[k] = pow[k - 1] * kFnvPrime;
    }
    return pow;
}();

/** Folds one byte into the running hash. */
constexpr std::uint64_t
FnvByte(std::uint64_t hash, std::uint8_t byte)
{
    return (hash ^ byte) * kFnvPrime;
}

/**
 * Folds a 64-bit word into the running hash, little-endian bytewise.
 *
 * Folding a zero byte only multiplies by the prime, so the word's high
 * zero bytes fold as one multiply by the matching prime power; the
 * result is bit-identical to eight FnvByte calls.
 */
constexpr std::uint64_t
FnvWord(std::uint64_t hash, std::uint64_t word)
{
    const int significant = (std::bit_width(word) + 7) / 8;
    for (int i = 0; i < significant; ++i) {
        hash = FnvByte(hash, static_cast<std::uint8_t>(word >> (i * 8)));
    }
    return hash * kFnvPrimePow[static_cast<std::size_t>(8 - significant)];
}

}  // namespace wave::check
