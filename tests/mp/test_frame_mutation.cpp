// Seeded mutation test over the TCP frame decoder (mp::FrameParser), the
// byte-facing half of the wire grammar in docs/protocol.md.  A stream of
// data and control frames is damaged three ways: a header field
// overwritten and its CRC resealed, seeded bytes flipped, or the stream
// cut short.  Each damaged stream is decoded whole and in seeded random
// chunks.  Every case must end in frames, "need more bytes" or
// mp::ProtocolError and nothing else; the frames before the damage must
// be the originals; and the chunking must not change the outcome.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "mp/tcp_world.hpp"
#include "store/crc32.hpp"

namespace pm = plinger::mp;

namespace {

using Bytes = std::vector<unsigned char>;

/// The pristine stream and where each of its frames starts.
struct Stream {
  Bytes bytes;
  std::vector<pm::Frame> frames;
  std::vector<std::size_t> starts;
};

Stream pristine_stream() {
  std::vector<double> long_payload(700);
  for (std::size_t i = 0; i < long_payload.size(); ++i) {
    long_payload[i] = 1.0 / static_cast<double>(i + 1) - 0.25;
  }
  Stream s;
  const auto add = [&s](int tag, int source, std::vector<double> payload) {
    s.starts.push_back(s.bytes.size());
    const Bytes b = pm::encode_frame(tag, source, payload);
    s.bytes.insert(s.bytes.end(), b.begin(), b.end());
    s.frames.push_back(pm::Frame{tag, source, std::move(payload)});
  };
  add(pm::kCtrlHello, 2, {double(pm::kWireVersion)});
  add(pm::kCtrlWelcome, 0, {double(pm::kWireVersion), 2.0, 3.0});
  add(2, 2, {});
  add(3, 0, {7.0});
  add(4, 2, long_payload);
  add(5, 2, {0.125, -0.0});
  add(7, 1, {0.0, 1.0});
  add(pm::kCtrlGoodbye, 2, {});
  return s;
}

/// How a decode ended: the frames it produced, then a ProtocolError or,
/// without one, the bytes still waiting for more (0: every byte parsed).
struct Outcome {
  std::vector<pm::Frame> frames;
  bool protocol_error = false;
  std::size_t buffered = 0;
};

/// Decode `bytes` fed whole (rng == nullptr) or in seeded chunks of
/// 1..97 bytes, stopping at the first ProtocolError as a connection
/// would.  Any other exception escapes and fails the test.
Outcome decode(const Bytes& bytes, std::mt19937* rng) {
  pm::FrameParser parser;
  Outcome out;
  std::size_t at = 0;
  do {
    const std::size_t n =
        rng ? std::min<std::size_t>(1 + (*rng)() % 97, bytes.size() - at)
            : bytes.size();
    parser.feed({bytes.data() + at, n});
    at += n;
    try {
      while (auto f = parser.next()) out.frames.push_back(std::move(*f));
    } catch (const pm::ProtocolError&) {
      out.protocol_error = true;
      return out;
    }
  } while (at < bytes.size());
  out.buffered = parser.buffered_bytes();
  return out;
}

bool same_frame(const pm::Frame& a, const pm::Frame& b) {
  return a.tag == b.tag && a.source == b.source &&
         a.payload.size() == b.payload.size() &&
         (a.payload.empty() ||
          std::memcmp(a.payload.data(), b.payload.data(),
                      a.payload.size() * sizeof(double)) == 0);
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  if (a.protocol_error != b.protocol_error || a.buffered != b.buffered ||
      a.frames.size() != b.frames.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    if (!same_frame(a.frames[i], b.frames[i])) return false;
  }
  return true;
}

/// Decode whole and in three seeded chunkings; every run must agree,
/// and the frames before frame `damaged` must be the pristine ones.
Outcome check_stream(const Bytes& bytes, const Stream& pristine,
                     std::size_t damaged, unsigned seed) {
  const Outcome whole = decode(bytes, nullptr);
  for (unsigned c = 0; c < 3; ++c) {
    std::mt19937 rng(seed * 7919u + c);
    EXPECT_TRUE(same_outcome(whole, decode(bytes, &rng)))
        << "chunking " << c << " changed the outcome";
  }
  EXPECT_GE(whole.frames.size(), damaged)
      << "a frame before the damage went missing";
  const std::size_t before = std::min(damaged, whole.frames.size());
  for (std::size_t i = 0; i < before; ++i) {
    EXPECT_TRUE(same_frame(whole.frames[i], pristine.frames[i]))
        << "frame " << i << " before the damage changed";
  }
  return whole;
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Recompute the CRC of the frame at `at` over the payload its (possibly
/// rewritten) length declares, when the stream holds that much.
void reseal(Bytes& b, std::size_t at) {
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= std::uint32_t{b[at + 4 + static_cast<std::size_t>(i)]} << (8 * i);
  }
  const std::size_t payload_bytes = std::size_t{n} * sizeof(double);
  if (payload_bytes > b.size() - at - pm::kFrameHeaderBytes) return;
  std::uint32_t crc = plinger::store::crc32({b.data() + at, 16});
  crc = plinger::store::crc32(
      {b.data() + at + pm::kFrameHeaderBytes, payload_bytes}, crc);
  put_u32(b, at + 16, crc);
}

constexpr unsigned kSeeds = 1000;

}  // namespace

TEST(TcpFrameMutation, PristineStreamDecodesWholeAndChunked) {
  const Stream s = pristine_stream();
  const Outcome o = check_stream(s.bytes, s, s.frames.size(), 1);
  EXPECT_FALSE(o.protocol_error);
  EXPECT_EQ(o.buffered, 0u);
  EXPECT_EQ(o.frames.size(), s.frames.size());
}

TEST(TcpFrameMutation, ResealedHeaderFieldsDecodeOrFailTyped) {
  const Stream s = pristine_stream();
  const std::uint32_t lengths[] = {0u, pm::kMaxFrameDoubles,
                                   pm::kMaxFrameDoubles + 1,
                                   std::numeric_limits<std::uint32_t>::max()};
  for (unsigned seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937 rng(seed);
    const std::size_t i = rng() % s.frames.size();
    const std::size_t at = s.starts[i];
    Bytes b = s.bytes;
    const unsigned field = seed % 3;  // 0 length, 1 tag, 2 source
    const std::uint32_t value = field == 0
                                    ? lengths[(seed / 3) % 4]
                                    : static_cast<std::uint32_t>(rng());
    put_u32(b, at + 4 + 4 * field, value);
    reseal(b, at);
    const Outcome o = check_stream(b, s, i, seed);

    if (field != 0) {
      // A resealed tag or source is a valid frame: everything decodes,
      // the damaged frame carries the new field.
      ASSERT_FALSE(o.protocol_error);
      ASSERT_EQ(o.buffered, 0u);
      ASSERT_EQ(o.frames.size(), s.frames.size());
      pm::Frame want = s.frames[i];
      (field == 1 ? want.tag : want.source) = static_cast<int>(value);
      EXPECT_TRUE(same_frame(o.frames[i], want));
    } else if (value > pm::kMaxFrameDoubles) {
      EXPECT_TRUE(o.protocol_error);  // over the ceiling: never allocated
      EXPECT_EQ(o.frames.size(), i);
    } else if (value == pm::kMaxFrameDoubles) {
      EXPECT_FALSE(o.protocol_error);  // legal, waits for 32 MiB
      EXPECT_EQ(o.frames.size(), i);
      EXPECT_EQ(o.buffered, s.bytes.size() - at);
    } else {
      // Length 0: the frame decodes empty; its old payload (if any) then
      // sits where the next header should be.
      ASSERT_GT(o.frames.size(), i);
      EXPECT_TRUE(o.frames[i].payload.empty());
      if (s.frames[i].payload.empty()) {
        EXPECT_EQ(o.frames.size(), s.frames.size());
      } else {
        EXPECT_TRUE(o.protocol_error);
      }
    }
  }
}

TEST(TcpFrameMutation, FlippedBytesDecodeOrFailTyped) {
  const Stream s = pristine_stream();
  for (unsigned seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937 rng(1000 + seed);
    Bytes b = s.bytes;
    std::size_t first = b.size();
    const unsigned n_flips = 1 + seed % 4;
    for (unsigned f = 0; f < n_flips; ++f) {
      const std::size_t pos = rng() % b.size();
      b[pos] ^= static_cast<unsigned char>(1 + rng() % 255);
      first = std::min(first, pos);
    }
    const std::size_t damaged = static_cast<std::size_t>(
        std::upper_bound(s.starts.begin(), s.starts.end(), first) -
        s.starts.begin() - 1);
    const Outcome o = check_stream(b, s, damaged, seed);
    // Unsealed damage never passes the CRC as the original frame.
    if (o.frames.size() > damaged) {
      EXPECT_FALSE(same_frame(o.frames[damaged], s.frames[damaged]));
    }
    EXPECT_TRUE(o.protocol_error || o.buffered > 0 ||
                o.frames.size() != s.frames.size());
  }
}

TEST(TcpFrameMutation, TruncatedStreamWaitsForMoreBytes) {
  const Stream s = pristine_stream();
  for (unsigned seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937 rng(2000 + seed);
    const std::size_t cut = rng() % s.bytes.size();
    const Bytes b(s.bytes.begin(),
                  s.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    // Frames wholly before the cut decode; the torn one waits.
    std::size_t whole_frames = 0;
    while (whole_frames < s.frames.size() &&
           (whole_frames + 1 < s.starts.size()
                ? s.starts[whole_frames + 1]
                : s.bytes.size()) <= cut) {
      ++whole_frames;
    }
    const Outcome o = check_stream(b, s, whole_frames, seed);
    EXPECT_FALSE(o.protocol_error);
    EXPECT_EQ(o.frames.size(), whole_frames);
    const std::size_t torn_start =
        whole_frames < s.starts.size() ? s.starts[whole_frames] : cut;
    EXPECT_EQ(o.buffered, cut - torn_start);
  }
}
