#include "net/wire.h"

#include <cstring>

#include "common/error.h"

namespace cosmic::net {

namespace {

template <typename T>
void
put(std::vector<uint8_t> &out, T value)
{
    uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out.insert(out.end(), raw, raw + sizeof(T));
}

template <typename T>
T
get(const uint8_t *data)
{
    T value;
    std::memcpy(&value, data, sizeof(T));
    return value;
}

size_t
encodeHeader(FrameKind frame, accel::Numeric payload, sys::MsgKind kind,
             int32_t from, uint64_t seq, int32_t contributors,
             uint32_t words, uint32_t offset, uint64_t epoch,
             std::vector<uint8_t> &out)
{
    const size_t start = out.size();
    const uint32_t length = static_cast<uint32_t>(
        kFrameHeaderBytes - 8 + words * wordBytes(payload));
    put<uint32_t>(out, kWireMagic);
    put<uint32_t>(out, length);
    put<uint8_t>(out, kWireVersion);
    put<uint8_t>(out, static_cast<uint8_t>(frame));
    put<uint8_t>(out, static_cast<uint8_t>(payload));
    put<uint8_t>(out, static_cast<uint8_t>(kind));
    put<int32_t>(out, from);
    put<uint64_t>(out, seq);
    put<int32_t>(out, contributors);
    put<uint32_t>(out, words);
    put<uint32_t>(out, offset);
    put<uint64_t>(out, epoch);
    put<uint32_t>(out, 0); // reserved
    return out.size() - start;
}

} // namespace

size_t
encodeMessage(const sys::Message &msg, accel::Numeric payload,
              std::vector<uint8_t> &out)
{
    const size_t start = out.size();
    const uint32_t words = static_cast<uint32_t>(msg.payload.size());
    COSMIC_ASSERT(words <= kMaxFrameWords,
                  "message payload of " << words
                  << " words exceeds the wire limit");
    encodeHeader(FrameKind::Partial, payload, msg.kind, msg.from,
                 msg.seq, msg.contributors, words, msg.offset,
                 msg.epoch, out);
    if (payload == accel::Numeric::F64) {
        const size_t bytes = words * sizeof(double);
        const size_t off = out.size();
        out.resize(off + bytes);
        // An empty payload's data() may be null, and memcpy from null
        // is undefined even for zero bytes.
        if (bytes > 0)
            std::memcpy(out.data() + off, msg.payload.data(), bytes);
    } else {
        const size_t off = out.size();
        out.resize(off + words * sizeof(int32_t));
        uint8_t *dst = out.data() + off;
        for (uint32_t i = 0; i < words; ++i) {
            const int32_t raw = accel::toQ16Word(msg.payload[i]);
            std::memcpy(dst + i * sizeof(int32_t), &raw,
                        sizeof(int32_t));
        }
    }
    return out.size() - start;
}

size_t
encodeHello(int node, uint32_t epoch, std::vector<uint8_t> &out)
{
    return encodeHeader(FrameKind::Hello, accel::Numeric::F64,
                        sys::MsgKind::Update, node, epoch, 0, 0, 0, 0,
                        out);
}

FrameStatus
peekFrame(const uint8_t *data, size_t size, WireHeader &hdr,
          size_t &frame_bytes)
{
    if (size < 8)
        return FrameStatus::NeedMore;
    if (get<uint32_t>(data) != kWireMagic)
        return FrameStatus::Corrupt;
    hdr.length = get<uint32_t>(data + 4);
    if (hdr.length < kFrameHeaderBytes - 8 ||
        hdr.length >
            kFrameHeaderBytes - 8 + static_cast<size_t>(kMaxFrameWords) * 8)
        return FrameStatus::Corrupt;
    if (size < kFrameHeaderBytes)
        return FrameStatus::NeedMore;

    hdr.version = get<uint8_t>(data + 8);
    const uint8_t frame_raw = get<uint8_t>(data + 9);
    const uint8_t payload_raw = get<uint8_t>(data + 10);
    const uint8_t kind_raw = get<uint8_t>(data + 11);
    hdr.from = get<int32_t>(data + 12);
    hdr.seq = get<uint64_t>(data + 16);
    hdr.contributors = get<int32_t>(data + 24);
    hdr.words = get<uint32_t>(data + 28);
    hdr.offset = get<uint32_t>(data + 32);
    hdr.epoch = get<uint64_t>(data + 36);
    const uint32_t reserved = get<uint32_t>(data + 44);

    if (hdr.version != kWireVersion || reserved != 0)
        return FrameStatus::Corrupt;
    if (frame_raw > static_cast<uint8_t>(FrameKind::Partial) ||
        payload_raw > static_cast<uint8_t>(accel::Numeric::Q16) ||
        kind_raw > static_cast<uint8_t>(sys::MsgKind::CancelJob))
        return FrameStatus::Corrupt;
    hdr.frame = static_cast<FrameKind>(frame_raw);
    hdr.payload = static_cast<accel::Numeric>(payload_raw);
    hdr.kind = static_cast<sys::MsgKind>(kind_raw);
    if (hdr.words > kMaxFrameWords)
        return FrameStatus::Corrupt;
    // The sizing guard: the declared word count must agree with the
    // byte length — a frame that lies about either is corrupt, never
    // silently resized.
    if (hdr.length !=
        kFrameHeaderBytes - 8 + hdr.words * wordBytes(hdr.payload))
        return FrameStatus::Corrupt;

    frame_bytes = 8 + hdr.length;
    if (size < frame_bytes)
        return FrameStatus::NeedMore;
    return FrameStatus::Ready;
}

void
decodeMessage(const WireHeader &hdr, const uint8_t *data,
              sys::Message &out, sys::BufferPool *pool)
{
    COSMIC_ASSERT(hdr.frame == FrameKind::Partial,
                  "decodeMessage on a non-Partial frame");
    out.from = hdr.from;
    out.seq = hdr.seq;
    out.contributors = hdr.contributors;
    out.kind = hdr.kind;
    out.offset = hdr.offset;
    out.epoch = hdr.epoch;
    out.payload = pool ? pool->acquire(hdr.words)
                       : std::vector<double>(hdr.words);
    const uint8_t *body = data + kFrameHeaderBytes;
    if (hdr.payload == accel::Numeric::F64) {
        if (hdr.words > 0) // an empty payload's data() may be null
            std::memcpy(out.payload.data(), body,
                        hdr.words * sizeof(double));
    } else {
        for (uint32_t i = 0; i < hdr.words; ++i) {
            int32_t raw;
            std::memcpy(&raw, body + i * sizeof(int32_t),
                        sizeof(int32_t));
            out.payload[i] = accel::fromQ16Word(raw);
        }
    }
}

void
quantizePayload(std::vector<double> &payload)
{
    for (double &v : payload)
        v = accel::roundQ16(v);
}

uint32_t
packText(const std::string &text, std::vector<double> &words)
{
    COSMIC_ASSERT(text.size() <= size_t(kMaxFrameWords) * 8,
                  "service text of " << text.size()
                  << " bytes exceeds the wire limit");
    words.assign((text.size() + 7) / 8, 0.0);
    if (!text.empty())
        std::memcpy(words.data(), text.data(), text.size());
    return static_cast<uint32_t>(text.size());
}

std::string
unpackText(const sys::Message &msg)
{
    const size_t capacity = msg.payload.size() * 8;
    if (msg.offset > capacity)
        COSMIC_FATAL("service frame declares "
                     << msg.offset << " text bytes but carries only "
                     << capacity);
    std::string text(msg.offset, '\0');
    if (msg.offset)
        std::memcpy(text.data(), msg.payload.data(), msg.offset);
    return text;
}

} // namespace cosmic::net
