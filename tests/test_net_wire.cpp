/**
 * @file
 * Wire-protocol tests: serialization round-trips bit-exactly for both
 * payload encodings, and the frame parser rejects — never mis-parses —
 * truncated or corrupt streams.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "accel/fixed_point.h"
#include "common/rng.h"
#include "net/wire.h"

namespace cosmic::net {
namespace {

sys::Message
randomMessage(Rng &rng, size_t max_words)
{
    sys::Message msg;
    msg.from = static_cast<int>(rng.uniform(0.0, 64.0));
    msg.seq = static_cast<uint64_t>(rng.uniform(0.0, 1e9));
    msg.contributors = static_cast<int>(rng.uniform(1.0, 1000.0));
    msg.kind = rng.uniform(0.0, 1.0) < 0.5 ? sys::MsgKind::Update
                                           : sys::MsgKind::Model;
    msg.epoch = static_cast<uint64_t>(rng.uniform(0.0, 1e9));
    msg.offset = static_cast<uint32_t>(rng.uniform(0.0, 1e6));
    const size_t words =
        static_cast<size_t>(rng.uniform(0.0, double(max_words + 1)));
    msg.payload.resize(words);
    // Stay inside Q16.16 range so the fixed-point encoding is a
    // quantization, not a saturation.
    for (auto &v : msg.payload)
        v = rng.uniform(-100.0, 100.0);
    return msg;
}

/** Encode → peek → decode; returns the decoded message. */
sys::Message
roundTrip(const sys::Message &msg, accel::Numeric kind)
{
    std::vector<uint8_t> bytes;
    const size_t appended = encodeMessage(msg, kind, bytes);
    EXPECT_EQ(appended, bytes.size());
    EXPECT_EQ(bytes.size(),
              kFrameHeaderBytes + msg.payload.size() * wordBytes(kind));

    WireHeader hdr;
    size_t frame_bytes = 0;
    EXPECT_EQ(peekFrame(bytes.data(), bytes.size(), hdr, frame_bytes),
              FrameStatus::Ready);
    EXPECT_EQ(frame_bytes, bytes.size());
    EXPECT_EQ(hdr.frame, FrameKind::Partial);
    EXPECT_EQ(hdr.payload, kind);
    EXPECT_EQ(hdr.kind, msg.kind);
    EXPECT_EQ(hdr.from, msg.from);
    EXPECT_EQ(hdr.seq, msg.seq);
    EXPECT_EQ(hdr.contributors, msg.contributors);
    EXPECT_EQ(hdr.words, msg.payload.size());
    EXPECT_EQ(hdr.offset, msg.offset);
    EXPECT_EQ(hdr.epoch, msg.epoch);

    sys::Message out;
    decodeMessage(hdr, bytes.data(), out, nullptr);
    return out;
}

TEST(NetWire, RoundTripF64IsBitExactAcrossSeeds)
{
    // Property test: 20 seeds of random header fields and payloads.
    // F64 ships the doubles verbatim, so every bit must survive.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        sys::Message msg = randomMessage(rng, 300);
        sys::Message out = roundTrip(msg, accel::Numeric::F64);
        EXPECT_EQ(out.from, msg.from);
        EXPECT_EQ(out.seq, msg.seq);
        EXPECT_EQ(out.contributors, msg.contributors);
        EXPECT_EQ(out.kind, msg.kind);
        EXPECT_EQ(out.epoch, msg.epoch);
        EXPECT_EQ(out.offset, msg.offset);
        ASSERT_EQ(out.payload.size(), msg.payload.size());
        for (size_t i = 0; i < msg.payload.size(); ++i)
            EXPECT_EQ(std::memcmp(&out.payload[i], &msg.payload[i],
                                  sizeof(double)),
                      0)
                << "seed " << seed << " word " << i;
    }
}

TEST(NetWire, RoundTripQ16MatchesFixedPointQuantization)
{
    // Q16 is lossy exactly once: the decoded value must equal the
    // accel::roundQ16 rounding of the source, and a second trip of
    // the quantized value must be bit-exact (idempotence — what keeps
    // multi-hop broadcasts deterministic).
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed ^ 0x9e3779b9);
        sys::Message msg = randomMessage(rng, 300);
        sys::Message out = roundTrip(msg, accel::Numeric::Q16);
        ASSERT_EQ(out.payload.size(), msg.payload.size());
        for (size_t i = 0; i < msg.payload.size(); ++i) {
            const double expected = accel::roundQ16(msg.payload[i]);
            EXPECT_EQ(std::memcmp(&out.payload[i], &expected,
                                  sizeof(double)),
                      0)
                << "seed " << seed << " word " << i;
        }
        sys::Message again = roundTrip(out, accel::Numeric::Q16);
        ASSERT_EQ(again.payload.size(), out.payload.size());
        for (size_t i = 0; i < out.payload.size(); ++i)
            EXPECT_EQ(std::memcmp(&again.payload[i], &out.payload[i],
                                  sizeof(double)),
                      0)
                << "seed " << seed << " word " << i;
    }
}

TEST(NetWire, QuantizePayloadMatchesTheWire)
{
    // The in-process backend's Q16 emulation must be exactly one
    // encode/decode hop.
    Rng rng(7);
    sys::Message msg = randomMessage(rng, 128);
    std::vector<double> emulated = msg.payload;
    quantizePayload(emulated);
    sys::Message wire = roundTrip(msg, accel::Numeric::Q16);
    ASSERT_EQ(emulated.size(), wire.payload.size());
    for (size_t i = 0; i < emulated.size(); ++i)
        EXPECT_EQ(std::memcmp(&emulated[i], &wire.payload[i],
                              sizeof(double)),
                  0);
}

TEST(NetWire, EmptyAndExtremeMessagesRoundTrip)
{
    sys::Message empty;
    empty.from = 0;
    empty.seq = 0;
    empty.contributors = 0;
    sys::Message out = roundTrip(empty, accel::Numeric::F64);
    EXPECT_TRUE(out.payload.empty());

    sys::Message extreme;
    extreme.from = std::numeric_limits<int32_t>::max();
    extreme.seq = std::numeric_limits<uint64_t>::max();
    extreme.contributors = std::numeric_limits<int32_t>::max();
    extreme.kind = sys::MsgKind::Model;
    extreme.epoch = std::numeric_limits<uint64_t>::max();
    extreme.offset = std::numeric_limits<uint32_t>::max();
    extreme.payload = {0.0, -0.0, 1e-300, -1e300};
    out = roundTrip(extreme, accel::Numeric::F64);
    EXPECT_EQ(out.from, extreme.from);
    EXPECT_EQ(out.seq, extreme.seq);
    EXPECT_EQ(out.contributors, extreme.contributors);
    EXPECT_EQ(out.kind, extreme.kind);
    EXPECT_EQ(out.epoch, extreme.epoch);
    EXPECT_EQ(out.offset, extreme.offset);
    ASSERT_EQ(out.payload.size(), extreme.payload.size());
    for (size_t i = 0; i < out.payload.size(); ++i)
        EXPECT_EQ(std::memcmp(&out.payload[i], &extreme.payload[i],
                              sizeof(double)),
                  0);
}

TEST(NetWire, HelloRoundTrip)
{
    std::vector<uint8_t> bytes;
    encodeHello(/*node=*/5, /*epoch=*/42, bytes);
    WireHeader hdr;
    size_t frame_bytes = 0;
    EXPECT_EQ(peekFrame(bytes.data(), bytes.size(), hdr, frame_bytes),
              FrameStatus::Ready);
    EXPECT_EQ(hdr.frame, FrameKind::Hello);
    EXPECT_EQ(hdr.from, 5);
    EXPECT_EQ(hdr.seq, 42u);
    EXPECT_EQ(hdr.words, 0u);
    EXPECT_EQ(frame_bytes, kFrameHeaderBytes);
}

TEST(NetWire, TruncatedFramesNeedMoreAtEveryPrefix)
{
    // A partial frame must never parse and never be declared corrupt:
    // every strict prefix is "wait for more bytes".
    Rng rng(11);
    sys::Message msg = randomMessage(rng, 64);
    msg.payload.resize(64); // ensure a non-empty payload
    std::vector<uint8_t> bytes;
    encodeMessage(msg, accel::Numeric::F64, bytes);
    WireHeader hdr;
    size_t frame_bytes = 0;
    for (size_t len = 0; len < bytes.size(); ++len)
        EXPECT_EQ(peekFrame(bytes.data(), len, hdr, frame_bytes),
                  FrameStatus::NeedMore)
            << "prefix " << len;
}

TEST(NetWire, CorruptFramesAreRejected)
{
    Rng rng(13);
    sys::Message msg = randomMessage(rng, 16);
    std::vector<uint8_t> good;
    encodeMessage(msg, accel::Numeric::F64, good);

    WireHeader hdr;
    size_t frame_bytes = 0;
    auto expectCorrupt = [&](std::vector<uint8_t> bytes,
                             const char *what) {
        EXPECT_EQ(peekFrame(bytes.data(), bytes.size(), hdr,
                            frame_bytes),
                  FrameStatus::Corrupt)
            << what;
    };

    { // Wrong magic.
        auto b = good;
        b[0] ^= 0xFF;
        expectCorrupt(b, "bad magic");
    }
    { // Unknown protocol version.
        auto b = good;
        b[8] = kWireVersion + 1;
        expectCorrupt(b, "bad version");
    }
    { // Unknown frame kind.
        auto b = good;
        b[9] = 0x7F;
        expectCorrupt(b, "bad frame kind");
    }
    { // Unknown payload kind.
        auto b = good;
        b[10] = 0x7F;
        expectCorrupt(b, "bad payload kind");
    }
    { // Unknown message kind.
        auto b = good;
        b[11] = 0x7F;
        expectCorrupt(b, "bad message kind");
    }
    { // Nonzero reserved word.
        auto b = good;
        b[44] = 1;
        expectCorrupt(b, "reserved word set");
    }
    { // Sizing guard: the length field disagrees with the word count
      // (a short length would silently truncate the payload).
        auto b = good;
        uint32_t length;
        std::memcpy(&length, b.data() + 4, 4);
        length -= 8; // claim one fewer F64 word than `words` says
        std::memcpy(b.data() + 4, &length, 4);
        expectCorrupt(b, "length/words mismatch");
    }
    { // Absurd word count (corruption guard, > kMaxFrameWords).
        auto b = good;
        const uint32_t words = kMaxFrameWords + 1;
        const uint32_t length = static_cast<uint32_t>(
            kFrameHeaderBytes - 8 +
            words * 8ull); // keep length consistent: still corrupt
        std::memcpy(b.data() + 4, &length, 4);
        std::memcpy(b.data() + 28, &words, 4);
        expectCorrupt(b, "oversized word count");
    }
}

TEST(NetWire, V1FramesAreRejectedNotMisparsed)
{
    // Decode compatibility across the v1 -> v2 header change: a
    // hand-crafted v1 frame (32-byte header, no message kind / chunk
    // offset / epoch fields) must be flagged Corrupt — the peer is
    // running an incompatible protocol and the connection drops —
    // never parsed as a v2 frame with garbage field values.
    std::vector<uint8_t> v1;
    auto put32 = [&](uint32_t v) {
        const uint8_t *p = reinterpret_cast<const uint8_t *>(&v);
        v1.insert(v1.end(), p, p + 4);
    };
    auto put64 = [&](uint64_t v) {
        const uint8_t *p = reinterpret_cast<const uint8_t *>(&v);
        v1.insert(v1.end(), p, p + 8);
    };
    put32(kWireMagic);
    put32(24 + 2 * 8);     // v1 length: 24 header-tail bytes + payload
    v1.push_back(1);       // v1 protocol version
    v1.push_back(1);       // frame kind: Partial
    v1.push_back(0);       // payload kind: F64
    v1.push_back(0);       // v1 reserved byte
    put32(3);              // from
    put64(7);              // seq
    put32(1);              // contributors
    put32(2);              // words
    const double payload[2] = {1.5, -2.5};
    const uint8_t *p = reinterpret_cast<const uint8_t *>(payload);
    v1.insert(v1.end(), p, p + sizeof(payload));
    ASSERT_EQ(v1.size(), 48u); // 32-byte v1 header + 2 F64 words

    WireHeader hdr;
    size_t frame_bytes = 0;
    EXPECT_EQ(peekFrame(v1.data(), v1.size(), hdr, frame_bytes),
              FrameStatus::Corrupt);
}

TEST(NetWire, BackToBackFramesParseInSequence)
{
    // Stream reassembly: two frames concatenated must come out as
    // two frames at the right offsets.
    Rng rng(17);
    sys::Message a = randomMessage(rng, 32);
    sys::Message b = randomMessage(rng, 32);
    std::vector<uint8_t> bytes;
    encodeMessage(a, accel::Numeric::Q16, bytes);
    const size_t first = bytes.size();
    encodeMessage(b, accel::Numeric::Q16, bytes);

    WireHeader hdr;
    size_t frame_bytes = 0;
    ASSERT_EQ(peekFrame(bytes.data(), bytes.size(), hdr, frame_bytes),
              FrameStatus::Ready);
    EXPECT_EQ(frame_bytes, first);
    EXPECT_EQ(hdr.from, a.from);
    ASSERT_EQ(peekFrame(bytes.data() + first, bytes.size() - first,
                        hdr, frame_bytes),
              FrameStatus::Ready);
    EXPECT_EQ(frame_bytes, bytes.size() - first);
    EXPECT_EQ(hdr.from, b.from);
}

} // namespace
} // namespace cosmic::net
