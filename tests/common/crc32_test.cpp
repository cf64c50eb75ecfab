#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string_view>

#include "common/buffer.hpp"

namespace fmx {
namespace {

ByteSpan span_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(crc32(span_of("")), 0x00000000u);
  EXPECT_EQ(crc32(span_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(span_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, RocksoftModelVectors) {
  // The classic Rocksoft/zlib test battery for CRC-32/ISO-HDLC.
  EXPECT_EQ(crc32(span_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(span_of("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(span_of("message digest")), 0x20159D7Fu);
  EXPECT_EQ(crc32(span_of("abcdefghijklmnopqrstuvwxyz")), 0x4C2750BDu);
  EXPECT_EQ(crc32(span_of("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuv"
                          "wxyz0123456789")),
            0x1FC2E6D2u);
  EXPECT_EQ(crc32(span_of("1234567890123456789012345678901234567890123456789"
                          "0123456789012345678901234567890")),
            0x7CA94A72u);
}

TEST(Crc32, NonAsciiVectors) {
  // Zero bytes and 0xFF runs are degenerate inputs where table-lookup or
  // reflection bugs show: known values from the reference implementation.
  const std::byte zeros[4] = {};
  EXPECT_EQ(crc32(ByteSpan{zeros}), 0x2144DF1Cu);
  std::byte ffs[4];
  std::memset(ffs, 0xFF, sizeof(ffs));
  EXPECT_EQ(crc32(ByteSpan{ffs}), 0xFFFFFFFFu);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data = pattern_bytes(7, 1000);
  auto whole = crc32(data);
  std::uint32_t st = crc32_init();
  st = crc32_update(st, ByteSpan{data}.subspan(0, 137));
  st = crc32_update(st, ByteSpan{data}.subspan(137, 600));
  st = crc32_update(st, ByteSpan{data}.subspan(737));
  EXPECT_EQ(crc32_final(st), whole);
}

TEST(Crc32, ByteAtATimeMatchesOneShot) {
  // The finest-grained chunking possible must agree with the one-shot CRC
  // (this is how the NIC model could stream a packet through the checker).
  Bytes data = pattern_bytes(13, 300);
  std::uint32_t st = crc32_init();
  for (std::size_t i = 0; i < data.size(); ++i) {
    st = crc32_update(st, ByteSpan{data}.subspan(i, 1));
  }
  EXPECT_EQ(crc32_final(st), crc32(data));
}

TEST(Crc32, EmptyUpdateIsIdentity) {
  Bytes data = pattern_bytes(21, 64);
  std::uint32_t st = crc32_init();
  st = crc32_update(st, ByteSpan{data});
  st = crc32_update(st, ByteSpan{});  // zero-length chunk changes nothing
  EXPECT_EQ(crc32_final(st), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = pattern_bytes(42, 256);
  auto good = crc32(data);
  for (std::size_t pos : {std::size_t{0}, std::size_t{100}, std::size_t{255}}) {
    Bytes bad = data;
    bad[pos] ^= std::byte{0x10};
    EXPECT_NE(crc32(bad), good) << "flip at " << pos;
  }
}

class Crc32Param : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Crc32Param, SplitInvariance) {
  // Property: CRC is invariant under any chunking of the input.
  const std::size_t len = 512;
  Bytes data = pattern_bytes(99, len);
  auto whole = crc32(data);
  std::size_t split = GetParam();
  std::uint32_t st = crc32_init();
  st = crc32_update(st, ByteSpan{data}.subspan(0, split));
  st = crc32_update(st, ByteSpan{data}.subspan(split));
  EXPECT_EQ(crc32_final(st), whole);
}

INSTANTIATE_TEST_SUITE_P(Splits, Crc32Param,
                         ::testing::Values(0, 1, 7, 64, 255, 256, 511, 512));

// Every kernel crc32_update may pick must agree with the bytewise reference
// on every input: all lengths through 4,200 bytes plus a 16 KiB span, start
// offsets 0-15 (the CLMUL kernel's 16-byte loads are unaligned), random
// non-initial states, and two-chunk splits on either side of the 64-byte
// CLMUL threshold. Lengths from 64 up make the CLMUL kernel fold, and each
// tail length 0-15 exercises its slice-by-8 hand-off; under ASan/UBSan
// (the `kernel` label) every vector load is bounds-checked.
using Kernel = std::uint32_t (*)(std::uint32_t, std::span<const std::byte>);

void expect_matches_bytewise(Kernel kernel) {
  constexpr std::size_t kMaxLen = 4200;
  constexpr std::size_t kBig = 16384;
  const Bytes data = pattern_bytes(1234, kBig + 16);
  const ByteSpan all{data};
  std::mt19937 rng(20261017);
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  auto check = [&](std::uint32_t state, ByteSpan in) {
    ++cases;
    if (kernel(state, in) != detail::crc32_update_bytewise(state, in) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << "length " << in.size() << " offset "
                    << (in.data() - all.data()) << " state 0x" << std::hex
                    << state;
    }
  };

  // Every length, each at a rotating offset, from the initial and from a
  // random mid-stream state.
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    check(crc32_init(), all.subspan(len % 16, len));
    check(rng(), all.subspan((len * 7 + 3) % 16, len));
  }
  // Every offset, across the threshold and for the 16 KiB span.
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 160; ++len) {
      check(rng(), all.subspan(off, len));
    }
    check(rng(), all.subspan(off, kBig));
  }
  // Two chunks: the kernel's state after chunk one seeds chunk two, and
  // the pair must equal the reference over the whole span.
  for (std::size_t len : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{127}, std::size_t{128},
                          std::size_t{129}, std::size_t{200}}) {
    for (std::size_t split = 0; split <= len; ++split) {
      const std::uint32_t st = rng();
      const ByteSpan in = all.subspan(split % 16, len);
      ++cases;
      const std::uint32_t got =
          kernel(kernel(st, in.first(split)), in.subspan(split));
      if (got != detail::crc32_update_bytewise(st, in) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "length " << len << " split at " << split;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
}

TEST(Crc32Kernels, Slice8MatchesBytewise) {
  expect_matches_bytewise(&detail::crc32_update_slice8);
}

TEST(Crc32Kernels, ClmulMatchesBytewise) {
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1; crc32_update uses slice-by-8";
  }
  expect_matches_bytewise(&detail::crc32_update_clmul);
}

}  // namespace
}  // namespace fmx
