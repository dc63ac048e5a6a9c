/**
 * @file
 * The PE datapath's number format: Q16.16 fixed point.
 *
 * The template's ALUs are built from DSP slices operating on 32-bit
 * fixed-point words. This model keeps one number format per run,
 * `Numeric`: F64 runs every engine in exact doubles; Q16 rounds each
 * value a PE writes back (inputs, constants and every operation
 * result) to the nearest Q16.16 word, saturating at the int32 rails,
 * after the operation itself ran in double precision. There is no
 * fixed-point multiplier or adder here: the model bounds what the
 * storage format does to training, and the quantized-engine tests
 * show convergence is unaffected, which is why the paper can use
 * fixed-point DSPs at all.
 *
 * roundQ16 is the one rounding every engine, the Q16 wire codec and
 * the rewrite's constant-fold guard call; toQ16Word/fromQ16Word are
 * its two halves, the word conversions the wire needs.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace cosmic::accel {

/** How values are held between operations. */
enum class Numeric : uint8_t
{
    /** IEEE-754 doubles (exact). */
    F64 = 0,
    /** Q16.16 fixed point (the PE number format). */
    Q16 = 1,
};

/** "f64" or "q16": the spelling of job specs and CLI flags. */
constexpr const char *
numericName(Numeric n)
{
    return n == Numeric::Q16 ? "q16" : "f64";
}

/** Inverse of numericName; nullopt for any other text. */
constexpr std::optional<Numeric>
parseNumeric(std::string_view text)
{
    if (text == "f64")
        return Numeric::F64;
    if (text == "q16")
        return Numeric::Q16;
    return std::nullopt;
}

/** Q16.16 value of one unit in the last place: 2^-16. */
constexpr double kQ16Epsilon = 1.0 / 65536.0;

/**
 * The Q16.16 word nearest @p v: NaN becomes 0, values beyond the
 * int32 rails saturate, and ties round half away from zero.
 */
inline int32_t
toQ16Word(double v)
{
    constexpr double kMax = std::numeric_limits<int32_t>::max();
    constexpr double kMin = std::numeric_limits<int32_t>::min();
    if (std::isnan(v))
        return 0;
    const double scaled = v * 65536.0;
    if (scaled >= kMax)
        return std::numeric_limits<int32_t>::max();
    if (scaled <= kMin)
        return std::numeric_limits<int32_t>::min();
    return static_cast<int32_t>(std::llround(scaled));
}

/** The real value of Q16.16 word @p word (exact). */
constexpr double
fromQ16Word(int32_t word)
{
    return static_cast<double>(word) * kQ16Epsilon;
}

/** @p v rounded to the nearest Q16.16 point: what a PE holds after
 *  one writeback. Idempotent. */
inline double
roundQ16(double v)
{
    return fromQ16Word(toQ16Word(v));
}

/** @p v as format @p n holds it. */
inline double
roundTo(Numeric n, double v)
{
    return n == Numeric::Q16 ? roundQ16(v) : v;
}

/** roundTo for a format fixed at compile time (the F64 form is the
 *  identity, so engine loops templated on it stay plain loops). */
template <Numeric N>
inline double
roundTo(double v)
{
    if constexpr (N == Numeric::Q16)
        return roundQ16(v);
    else
        return v;
}

} // namespace cosmic::accel
