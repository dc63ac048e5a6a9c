/**
 * @file
 * The CoSMIC wire protocol: length-prefixed, versioned frames.
 *
 * Every byte that crosses a TCP connection between two nodes is part
 * of a frame. A version-2 frame is a fixed 48-byte header followed by
 * the payload words:
 *
 *   offset  size  field
 *   ------  ----  ------------------------------------------------
 *        0     4  magic (0xC051C17A, little-endian)
 *        4     4  length — bytes after this field (40 + payload)
 *        8     1  protocol version (kWireVersion)
 *        9     1  frame kind (Hello | Partial)
 *       10     1  payload kind (F64 | Q16)
 *       11     1  message kind (Update | Model | SubmitJob |
 *                 JobStatus | JobResult | CancelJob)
 *       12     4  from — sending node id (int32)
 *       16     8  seq — iteration sequence number (uint64)
 *       24     4  contributors — k-of-n weight (int32)
 *       28     4  words — payload word count (uint32)
 *       32     4  chunk offset — first word within the round vector
 *       36     8  epoch — model epoch (bounded-staleness SGD)
 *       44     4  reserved (must be 0)
 *       48     …  payload (words x 8 bytes F64, words x 4 bytes Q16)
 *
 * Version history: v1 had a 32-byte header ending at `words`, with no
 * message kind, chunk offset or epoch. v2 (the pipelined/async
 * protocol) is not wire-compatible with v1 — a v1 frame fails the
 * version check and the connection is dropped, never mis-parsed
 * (decode-compat is regression-tested in test_net_wire.cpp).
 *
 * The length prefix lets a receiver skip to the next frame boundary
 * without understanding the body; the magic/version/kind/width checks
 * reject corrupt or truncated streams instead of mis-parsing them.
 *
 * Payload kinds: F64 ships IEEE-754 doubles verbatim (bit-exact);
 * Q16 ships Q16.16 fixed-point words — the PE datapath's number
 * format — rounding each value with accel::toQ16Word on encode.
 * The rounding is idempotent, so a value that is already a Q16.16
 * point (e.g. a master model quantized once at the source) round-trips
 * bit-exactly through any number of hops.
 *
 * Service frames (msgKinds 2-5, the cosmicd front door) reuse the same
 * format. Text bodies — a SubmitJob's DSL program + dataset
 * descriptor, a failed job's error string — ride as raw bytes packed
 * 8-per-word into an F64 payload (packText/unpackText below); because
 * the F64 codec memcpy's words verbatim, arbitrary byte patterns
 * survive the trip. Service frames therefore always use the F64
 * payload kind, whatever encoding the job's own training traffic
 * selects.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/fixed_point.h"
#include "system/buffer_pool.h"
#include "system/channel.h"

namespace cosmic::net {

/** How payload words are encoded on the wire: F64 as IEEE-754
 *  doubles, 8 bytes per word (lossless); Q16 as Q16.16 words, 4 bytes
 *  per word (the PE number format). The alias only keeps the older
 *  spelling net::PayloadKind::{F64,Q16} compiling. */
using PayloadKind = accel::Numeric;

/** What a frame carries. */
enum class FrameKind : uint8_t
{
    /** Connection handshake: from = node id, seq = topology epoch. */
    Hello = 0,
    /** A Message (partial update or model broadcast). */
    Partial = 1,
};

constexpr uint32_t kWireMagic = 0xC051C17A;
constexpr uint8_t kWireVersion = 2;
/** Fixed frame header size (magic through the reserved word). */
constexpr size_t kFrameHeaderBytes = 48;
/** Corruption guard: no sane frame carries more words than this. */
constexpr uint32_t kMaxFrameWords = 1u << 26;

/** A decoded frame header. */
struct WireHeader
{
    uint32_t length = 0;
    uint8_t version = 0;
    FrameKind frame = FrameKind::Hello;
    accel::Numeric payload = accel::Numeric::F64;
    sys::MsgKind kind = sys::MsgKind::Update;
    int32_t from = -1;
    uint64_t seq = 0;
    int32_t contributors = 0;
    uint32_t words = 0;
    uint32_t offset = 0;
    uint64_t epoch = 0;
};

/** Outcome of inspecting a receive buffer for the next frame. */
enum class FrameStatus
{
    /** Not enough bytes buffered yet to complete a frame. */
    NeedMore,
    /** A complete, well-formed frame starts at the buffer head. */
    Ready,
    /** The stream is corrupt (bad magic/version/kind/width); the
     *  connection cannot be resynchronized and must be dropped. */
    Corrupt,
};

/** Bytes one payload word occupies on the wire. */
constexpr size_t
wordBytes(accel::Numeric kind)
{
    return kind == accel::Numeric::F64 ? 8 : 4;
}

/**
 * Appends the encoded frame for @p msg to @p out.
 * Q16 payloads are rounded with accel::toQ16Word word by word.
 * @return Bytes appended.
 */
size_t encodeMessage(const sys::Message &msg, accel::Numeric payload,
                     std::vector<uint8_t> &out);

/** Appends a handshake frame: node id + topology epoch. */
size_t encodeHello(int node, uint32_t epoch, std::vector<uint8_t> &out);

/**
 * Inspects @p size buffered bytes for a frame at the head. On Ready,
 * @p hdr holds the parsed header and @p frame_bytes the total frame
 * size (header + payload) to consume.
 */
FrameStatus peekFrame(const uint8_t *data, size_t size,
                      WireHeader &hdr, size_t &frame_bytes);

/**
 * Decodes a Ready Partial frame (starting at @p data, as validated by
 * peekFrame) into @p out. The payload vector is acquired from @p pool
 * when given, so the zero-copy aggregation path downstream recycles it.
 */
void decodeMessage(const WireHeader &hdr, const uint8_t *data,
                   sys::Message &out, sys::BufferPool *pool);

/**
 * Applies the Q16 wire quantization in place — what a payload looks
 * like after one encode/decode hop. The in-process transport uses this
 * to stay bit-identical with the TCP backend in Q16 mode.
 */
void quantizePayload(std::vector<double> &payload);

/**
 * Packs @p text into a payload-word vector (8 bytes per F64 word,
 * zero-padded tail) for a service frame. The exact byte length rides
 * in the frame's `offset` field — set @p msg.offset from the return
 * value and ship with accel::Numeric::F64.
 * @return The text's byte length.
 */
uint32_t packText(const std::string &text, std::vector<double> &words);

/** Recovers a packText'd string from a decoded service message
 *  (@p msg.offset carries the byte length). Throws CosmicError when
 *  the declared length does not fit the payload. */
std::string unpackText(const sys::Message &msg);

} // namespace cosmic::net
