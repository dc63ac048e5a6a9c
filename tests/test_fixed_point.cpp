/**
 * @file
 * Q16.16 number-format tests: the one rounding (accel::roundQ16)
 * pinned against an exact-integer reference on its edge values, the
 * Q16 wire codec equal to it, saturation at the int32 rails, and — the
 * load-bearing result — that training through the quantized
 * interpreter converges like the exact one, justifying the hardware's
 * 32-bit fixed-point DSP datapath.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "accel/fixed_point.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "net/wire.h"

namespace cosmic::accel {
namespace {

constexpr int32_t kWordMax = std::numeric_limits<int32_t>::max();
constexpr int32_t kWordMin = std::numeric_limits<int32_t>::min();

/**
 * The Q16.16 word nearest @p v, computed without floating-point
 * rounding: v = m * 2^e with an integer mantissa m, so v * 2^16 is m
 * shifted by e + 16 bits; a right shift rounds half away from zero on
 * the magnitude. NaN maps to 0 and out-of-range values to the rails.
 */
int32_t
referenceWord(double v)
{
    if (std::isnan(v))
        return 0;
    if (std::isinf(v))
        return v > 0 ? kWordMax : kWordMin;
    int exp = 0;
    const double frac = std::frexp(v, &exp); // v = frac * 2^exp
    // |frac| in [0.5, 1): 53 significant bits as an integer.
    const int64_t mant = static_cast<int64_t>(std::ldexp(frac, 53));
    const int shift = exp - 53 + 16; // v * 2^16 = mant * 2^shift
    const bool negative = mant < 0;
    const uint64_t mag = static_cast<uint64_t>(negative ? -mant : mant);
    // Magnitudes beyond 2^32 saturate either way; cap the shift so
    // the integer arithmetic cannot overflow.
    __int128 q = 0;
    if (shift >= 0) {
        q = shift > 40 ? (static_cast<__int128>(1) << 80)
                       : static_cast<__int128>(mag) << shift;
    } else if (-shift < 64) {
        const int s = -shift;
        q = mag >> s;
        if ((mag >> (s - 1)) & 1) // the dropped fraction is >= 1/2
            ++q;
    }
    if (negative)
        q = -q;
    if (q > kWordMax)
        return kWordMax;
    if (q < kWordMin)
        return kWordMin;
    return static_cast<int32_t>(q);
}

/** ±0, NaN, ±inf, ±1e9, ±32767.9 and exact half-steps
 *  (k + 0.5) * 2^-16 of both signs, each with its nextafter
 *  neighbours. */
std::vector<double>
edgeValues()
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> centers = {0.0,     -0.0,   inf,     -inf,
                                   1e9,     -1e9,   32767.9, -32767.9};
    for (double k : {0.0, 1.0, 2.0, 3.0, 7.0, 1000.0, 65535.0,
                     1048575.0, 2147483646.0, 2147483647.0}) {
        centers.push_back((k + 0.5) * kQ16Epsilon);
        centers.push_back(-(k + 0.5) * kQ16Epsilon);
    }
    std::vector<double> values = {std::nan("")};
    for (double c : centers) {
        values.push_back(c);
        values.push_back(std::nextafter(c, inf));
        values.push_back(std::nextafter(c, -inf));
    }
    return values;
}

bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

TEST(Fixed, RoundTripAndEpsilon)
{
    EXPECT_DOUBLE_EQ(roundQ16(1.0), 1.0);
    EXPECT_DOUBLE_EQ(roundQ16(-2.5), -2.5);
    EXPECT_NEAR(roundQ16(0.1), 0.1, kQ16Epsilon);
    EXPECT_DOUBLE_EQ(kQ16Epsilon, 1.0 / 65536.0);
    EXPECT_EQ(toQ16Word(1.0), 65536);
    EXPECT_EQ(fromQ16Word(-98304), -1.5);
}

TEST(Fixed, RoundingMatchesExactIntegerReference)
{
    for (double v : edgeValues()) {
        SCOPED_TRACE(testing::Message() << std::hexfloat << v);
        const int32_t want = referenceWord(v);
        EXPECT_EQ(toQ16Word(v), want);
        const double rounded = roundQ16(v);
        EXPECT_TRUE(sameBits(rounded, fromQ16Word(want)));
        // Never -0 (so quantized slots never hold one) and idempotent.
        EXPECT_FALSE(rounded == 0.0 && std::signbit(rounded));
        EXPECT_TRUE(sameBits(roundQ16(rounded), rounded));
    }
    EXPECT_TRUE(sameBits(roundQ16(-0.0), 0.0));
    EXPECT_TRUE(sameBits(roundQ16(std::nan("")), 0.0));
    // Exact half-steps round away from zero.
    EXPECT_EQ(toQ16Word(0.5 * kQ16Epsilon), 1);
    EXPECT_EQ(toQ16Word(-0.5 * kQ16Epsilon), -1);
    EXPECT_EQ(toQ16Word(2.5 * kQ16Epsilon), 3);
}

TEST(Fixed, Q16WireRoundTripIsTheRounding)
{
    sys::Message msg;
    msg.payload = edgeValues();
    std::vector<uint8_t> bytes;
    net::encodeMessage(msg, Numeric::Q16, bytes);
    net::WireHeader hdr;
    size_t frame_bytes = 0;
    ASSERT_EQ(net::peekFrame(bytes.data(), bytes.size(), hdr, frame_bytes),
              net::FrameStatus::Ready);
    sys::Message out;
    net::decodeMessage(hdr, bytes.data(), out, nullptr);
    ASSERT_EQ(out.payload.size(), msg.payload.size());
    for (size_t i = 0; i < msg.payload.size(); ++i)
        EXPECT_TRUE(sameBits(out.payload[i], roundQ16(msg.payload[i])))
            << std::hexfloat << msg.payload[i];
}

TEST(Fixed, SaturatesInsteadOfWrapping)
{
    // Q16.16 holds integers up to 32767; beyond that the word sits on
    // a rail rather than wrapping around.
    EXPECT_EQ(toQ16Word(30000.0 * 30000.0), kWordMax);
    EXPECT_EQ(toQ16Word(-30000.0 * 30000.0), kWordMin);
    EXPECT_EQ(toQ16Word(60000.0), kWordMax);
    EXPECT_EQ(roundQ16(-32768.0), -32768.0);
    EXPECT_EQ(roundQ16(32768.0), fromQ16Word(kWordMax));
}

TEST(Fixed, QuantizeHelper)
{
    EXPECT_DOUBLE_EQ(roundQ16(0.5), 0.5);
    EXPECT_NEAR(roundQ16(1.0 / 3.0), 1.0 / 3.0, kQ16Epsilon);
    EXPECT_DOUBLE_EQ(roundQ16(1e9), fromQ16Word(kWordMax));
    EXPECT_DOUBLE_EQ(roundQ16(-1e9), fromQ16Word(kWordMin));
}

TEST(QuantizedInterpreter, GradientsCloseToExact)
{
    const auto &w = ml::Workload::byName("tumor");
    const double scale = 64.0;
    auto tr = compile::translateSource(w.dslSource(scale));
    dfg::Interpreter exact(tr);
    dfg::Interpreter quantized(tr, Numeric::Q16);

    Rng rng(51);
    auto ds = ml::DatasetGenerator::generate(w, scale, 8, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);
    std::vector<double> ge, gq;
    for (int64_t r = 0; r < ds.count; ++r) {
        exact.run(ds.record(r), model, ge);
        quantized.run(ds.record(r), model, gq);
        for (size_t i = 0; i < ge.size(); ++i)
            EXPECT_NEAR(gq[i], ge[i], 64 * kQ16Epsilon);
    }
}

TEST(QuantizedInterpreter, TrainingStillConverges)
{
    // The paper's datapath is fixed point; training must not care.
    const auto &w = ml::Workload::byName("face");
    const double scale = 64.0;
    auto tr = compile::translateSource(w.dslSource(scale));
    dfg::Interpreter quantized(tr, Numeric::Q16);
    ml::Reference ref(w, scale);

    Rng rng(52);
    auto ds = ml::DatasetGenerator::generate(w, scale, 192, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

    double before = ref.meanLoss(ds.data, ds.count, model);
    std::vector<double> grad;
    for (int epoch = 0; epoch < 8; ++epoch)
        for (int64_t r = 0; r < ds.count; ++r) {
            quantized.run(ds.record(r), model, grad);
            for (size_t i = 0; i < model.size(); ++i)
                model[i] -= 0.4 * grad[i];
        }
    double after = ref.meanLoss(ds.data, ds.count, model);
    EXPECT_LT(after, before * 0.5)
        << "fixed-point quantization broke training";
}

} // namespace
} // namespace cosmic::accel
