#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/crc32.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"

namespace ipipe::crypto {
namespace {

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(Crc32, KnownVectors) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(bytes_of(s)), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  const std::string abc = "abc";
  EXPECT_EQ(crc32(bytes_of(abc)), 0x352441C2u);
}

TEST(Crc32, ChainedEqualsWhole) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  const auto whole = crc32(bytes_of(s));
  // CRC of concatenation via seed chaining.
  const std::string a = s.substr(0, 20);
  const std::string b = s.substr(20);
  const auto chained = crc32(bytes_of(b), crc32(bytes_of(a)));
  EXPECT_EQ(whole, chained);
}

// Bit-at-a-time reference over the same reflected polynomial.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBitwiseAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(1100 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + align, len);
      for (const std::uint32_t seed : {0u, 0xCBF43926u}) {
        ASSERT_EQ(crc32(data, seed), crc32_bitwise(data, seed))
            << "align=" << align << " len=" << len << " seed=" << seed;
      }
    }
  }
}

// The PCLMULQDQ folding against the slicing-by-8 reference: every length
// across the fold's 64-byte minimum, its 16-byte blocks and its tail, at
// every start offset within a 16-byte lane, fresh and chained.
TEST(Crc32, HardwareMatchesPortable) {
  if (!hardware_crc32()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  std::vector<std::uint8_t> buf(4096 + 16);
  std::uint32_t x = 0x2545F491u;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  std::uint32_t chained = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, chained}) {
        ASSERT_EQ(crc32(data, seed), detail::crc32_portable(data, seed))
            << "offset=" << offset << " len=" << len << " seed=" << seed;
      }
      chained = crc32(data, chained);
    }
  }
  // A buffer split anywhere chains to the CRC of the whole.
  const std::span<const std::uint8_t> whole(buf.data(), 4096);
  const std::uint32_t expect = detail::crc32_portable(whole);
  for (std::size_t cut = 0; cut <= whole.size(); cut += 7) {
    ASSERT_EQ(crc32(whole.subspan(cut), crc32(whole.first(cut))), expect)
        << "cut=" << cut;
  }
}

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(to_hex(Md5::hash({})), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(to_hex(Md5::hash(bytes_of("a"))),
            "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(to_hex(Md5::hash(bytes_of("abc"))),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(to_hex(Md5::hash(bytes_of("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(to_hex(Md5::hash(bytes_of(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Md5 md5;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, msg.size() - i);
    md5.update(bytes_of(msg.substr(i, n)));
  }
  EXPECT_EQ(to_hex(md5.finalize()), to_hex(Md5::hash(bytes_of(msg))));
}

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha1::hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(Sha1::hash({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(Sha1::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 sha;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.update(bytes_of(chunk));
  EXPECT_EQ(to_hex(sha.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(HmacSha1, Rfc2202Vectors) {
  // Test case 1.
  const std::vector<std::uint8_t> key1(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha1(key1, bytes_of("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  // Test case 2.
  EXPECT_EQ(to_hex(hmac_sha1(bytes_of("Jefe"),
                             bytes_of("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  // Test case 3: 20x 0xaa key, 50x 0xdd data.
  const std::vector<std::uint8_t> key3(20, 0xaa);
  const std::vector<std::uint8_t> data3(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha1(key3, data3)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, Rfc2202LongKeyVectors) {
  // Test cases 6 and 7: an 80-byte key is longer than the block, so it is
  // hashed first.
  const std::vector<std::uint8_t> key(80, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha1(
                key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
  EXPECT_EQ(to_hex(hmac_sha1(key, bytes_of("Test Using Larger Than Block-Size Key "
                                           "and Larger Than One Block-Size Data"))),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
}

TEST(HmacSha1, KeyedOnceMatchesOneShot) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  for (const std::size_t key_len : {0u, 1u, 20u, 64u, 65u, 90u}) {
    const std::vector<std::uint8_t> key(key_len, static_cast<std::uint8_t>(key_len));
    const HmacSha1 keyed(key);
    for (const std::size_t len : {0u, 1u, 43u, 44u, 64u, 119u, 300u}) {
      const std::span<const std::uint8_t> msg(data.data(), len);
      const auto expected = hmac_sha1(key, msg);
      ASSERT_EQ(keyed.mac(msg), expected) << "key_len=" << key_len << " len=" << len;
      // Streamed in two pieces through the same keyed hasher.
      Sha1 inner = keyed.begin();
      inner.update(msg.first(len / 3));
      inner.update(msg.subspan(len / 3));
      ASSERT_EQ(keyed.finish(inner), expected) << "key_len=" << key_len << " len=" << len;
    }
  }
}

TEST(Sha1, SplitAtEveryOffsetMatchesOneShot) {
  // Messages of 0-130 bytes cross the 55/56/63/64-byte padding edges once
  // and twice; every split point must give the one-shot digest.
  std::vector<std::uint8_t> msg(130);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 13 + 7);
  }
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const std::span<const std::uint8_t> whole(msg.data(), len);
    const auto expected = Sha1::hash(whole);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      Sha1 sha;
      sha.update(whole.first(cut));
      sha.update(whole.subspan(cut));
      ASSERT_EQ(sha.finalize(), expected) << "len=" << len << " cut=" << cut;
    }
  }
}

// SHA-1 on the portable compressor alone: FIPS 180-4 padding around
// detail::sha1_compress_portable, the reference for the SHA-NI path.
Sha1::Digest portable_sha1(std::span<const std::uint8_t> msg) {
  std::array<std::uint32_t, 5> state = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                        0x10325476u, 0xC3D2E1F0u};
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  detail::sha1_compress_portable(state, padded.data(), padded.size() / 64);
  Sha1::Digest digest;
  for (std::size_t i = 0; i < 20; ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

// RFC 2104 over portable_sha1.
Sha1::Digest portable_hmac_sha1(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> msg) {
  std::array<std::uint8_t, 64> key_block{};
  if (key.size() > 64) {
    const auto digest = portable_sha1(key);
    std::copy(digest.begin(), digest.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }
  std::vector<std::uint8_t> inner(64), outer(64);
  for (std::size_t i = 0; i < 64; ++i) {
    inner[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    outer[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5C);
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const auto inner_digest = portable_sha1(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return portable_sha1(outer);
}

TEST(Sha1, HardwareMatchesPortable) {
  if (!hardware_sha1()) {
    GTEST_SKIP() << "CPU lacks SHA-NI: Sha1 runs the portable path only";
  }
  ASSERT_EQ(to_hex(portable_sha1(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  std::vector<std::uint8_t> msg(9 * 64 + 37);
  std::uint32_t x = 0x2545F491u;
  for (auto& b : msg) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  // Runs of 1-9 whole blocks, each reaching the compressor in one call.
  for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
    const std::span<const std::uint8_t> whole(msg.data(), blocks * 64);
    Sha1 sha;
    sha.update(whole);
    ASSERT_EQ(sha.finalize(), portable_sha1(whole)) << "blocks=" << blocks;
  }
  // Every split of the longest message, and every split of every message
  // up to three blocks.
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    if (len > 3 * 64 && len < msg.size()) continue;
    const std::span<const std::uint8_t> whole(msg.data(), len);
    const auto expected = portable_sha1(whole);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      Sha1 sha;
      sha.update(whole.first(cut));
      sha.update(whole.subspan(cut));
      ASSERT_EQ(sha.finalize(), expected) << "len=" << len << " cut=" << cut;
    }
  }
  for (const std::size_t key_len : {0u, 20u, 64u, 65u, 90u}) {
    const std::span<const std::uint8_t> key(msg.data() + 100, key_len);
    const HmacSha1 keyed(key);
    for (const std::size_t len : {0u, 1u, 55u, 64u, 119u, 448u, 600u}) {
      const std::span<const std::uint8_t> data(msg.data(), len);
      ASSERT_EQ(keyed.mac(data), portable_hmac_sha1(key, data))
          << "key_len=" << key_len << " len=" << len;
    }
  }
}

TEST(Aes, Fips197Aes128) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t out[16];
  aes.encrypt_block(plain.data(), out);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(out, 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes.decrypt_block(out, back);
  EXPECT_EQ(0, std::memcmp(back, plain.data(), 16));
}

TEST(Aes, Fips197Aes256) {
  const auto key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  EXPECT_EQ(aes.rounds(), 14);
  std::uint8_t out[16];
  aes.encrypt_block(plain.data(), out);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(out, 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, Fips197Aes192) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  EXPECT_EQ(aes.rounds(), 12);
  std::uint8_t out[16];
  aes.encrypt_block(plain.data(), out);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(out, 16)),
            "dda97ca4864cdfe06eaf70a0ec0d7191");
  std::uint8_t back[16];
  aes.decrypt_block(out, back);
  EXPECT_EQ(0, std::memcmp(back, plain.data(), 16));
}

TEST(Aes, BlockRoundTripEveryKeySize) {
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    std::vector<std::uint8_t> key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<std::uint8_t>(i * 29 + key_len);
    }
    const Aes aes(key);
    std::uint8_t block[16];
    for (int trial = 0; trial < 64; ++trial) {
      for (int i = 0; i < 16; ++i) {
        block[i] = static_cast<std::uint8_t>(trial * 37 + i * 11);
      }
      std::uint8_t cipher[16];
      std::uint8_t back[16];
      aes.encrypt_block(block, cipher);
      EXPECT_NE(0, std::memcmp(cipher, block, 16));
      aes.decrypt_block(cipher, back);
      ASSERT_EQ(0, std::memcmp(back, block, 16))
          << "key_len=" << key_len << " trial=" << trial;
      aes.encrypt_block(block, block);  // in place
      ASSERT_EQ(0, std::memcmp(block, cipher, 16));
    }
  }
}

TEST(Aes, CtrSp800_38aAes256FourBlocks) {
  // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt; the second block's counter
  // carries out of byte 15.
  const auto key = from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const auto plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  const auto iv = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::array<std::uint8_t, 16> counter{};
  std::copy(iv.begin(), iv.end(), counter.begin());
  Aes aes(key);
  std::vector<std::uint8_t> out(plain.size());
  aes_ctr_crypt(aes, counter, plain, out);
  EXPECT_EQ(to_hex(out),
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6");
}

TEST(Aes, CtrCounterCarriesAcrossBytes) {
  // Counter ..00 fe: block 0 uses ..00fe, block 1 ..00ff, block 2 carries
  // into byte 14 (..0100).  Check every keystream block against
  // encrypt_block, including a partial last block.
  const std::vector<std::uint8_t> key(32, 0x5c);
  const Aes aes(key);
  std::array<std::uint8_t, 16> counter{};
  for (std::size_t i = 0; i < 14; ++i) counter[i] = static_cast<std::uint8_t>(0xa0 + i);
  counter[14] = 0x00;
  counter[15] = 0xfe;
  std::vector<std::uint8_t> zeros(4 * 16 + 5, 0);
  std::vector<std::uint8_t> stream(zeros.size());
  aes_ctr_crypt(aes, counter, zeros, stream);

  std::array<std::uint8_t, 16> expect_ctr = counter;
  const std::uint8_t low[5][2] = {{0x00, 0xfe}, {0x00, 0xff}, {0x01, 0x00},
                                  {0x01, 0x01}, {0x01, 0x02}};
  for (std::size_t blk = 0; blk < 5; ++blk) {
    expect_ctr[14] = low[blk][0];
    expect_ctr[15] = low[blk][1];
    std::uint8_t ks[16];
    aes.encrypt_block(expect_ctr.data(), ks);
    const std::size_t n = std::min<std::size_t>(16, stream.size() - blk * 16);
    ASSERT_EQ(0, std::memcmp(stream.data() + blk * 16, ks, n)) << "block " << blk;
  }
}

TEST(Aes, CtrModeRfc3686Style) {
  // NIST SP 800-38A F.5.1 CTR-AES128.
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto plain = from_hex("6bc1bee22e409f96e93d7e117393172a");
  std::array<std::uint8_t, 16> counter{};
  const auto iv = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(iv.begin(), iv.end(), counter.begin());
  Aes aes(key);
  std::vector<std::uint8_t> out(plain.size());
  aes_ctr_crypt(aes, counter, plain, out);
  EXPECT_EQ(to_hex(out), "874d6191b620e3261bef6864990db6ce");
}

TEST(Aes, CtrRoundTripArbitraryLength) {
  const std::vector<std::uint8_t> key(32, 0x42);
  Aes aes(key);
  std::array<std::uint8_t, 16> counter{};
  counter[15] = 1;
  std::vector<std::uint8_t> plain(1000);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::vector<std::uint8_t> cipher(plain.size());
  aes_ctr_crypt(aes, counter, plain, cipher);
  EXPECT_NE(plain, cipher);
  std::vector<std::uint8_t> back(plain.size());
  aes_ctr_crypt(aes, counter, cipher, back);
  EXPECT_EQ(plain, back);
}

TEST(Aes, CtrHardwareMatchesPortable) {
  if (!hardware_aes()) {
    GTEST_SKIP() << "CPU lacks AES-NI: aes_ctr_crypt runs the portable path only";
  }
  std::vector<std::uint8_t> plain(1000 + 1);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : plain) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  std::vector<std::array<std::uint8_t, 16>> counters(4);
  counters[0][15] = 1;  // the IPSec gateway's block counter starts at 1
  for (std::size_t i = 0; i < 16; ++i) counters[1][i] = plain[i + 500];
  // Low 64 bits ...FFFF_FFF0: the carry reaches the high half at block 16.
  for (std::size_t i = 0; i < 8; ++i) {
    counters[2][i] = static_cast<std::uint8_t>(0x10 + i);
  }
  for (std::size_t i = 8; i < 16; ++i) counters[2][i] = 0xFF;
  counters[2][15] = 0xF0;
  counters[3].fill(0xFF);  // wraps to all zeros at block 1
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const std::span<const std::uint8_t> key(plain.data() + 700, key_len);
    const Aes aes(key);
    for (std::size_t c = 0; c < counters.size(); ++c) {
      for (std::size_t len = 0; len <= 1000; ++len) {
        // Input one byte off alignment.
        const std::span<const std::uint8_t> in(plain.data() + 1, len);
        std::vector<std::uint8_t> hw(len), ref(len);
        aes_ctr_crypt(aes, counters[c], in, hw);
        detail::aes_ctr_crypt_portable(aes, counters[c], in, ref);
        ASSERT_EQ(hw, ref) << "key_len=" << key_len << " counter=" << c
                           << " len=" << len;
        std::vector<std::uint8_t> in_place(in.begin(), in.end());
        aes_ctr_crypt(aes, counters[c], in_place, in_place);
        ASSERT_EQ(in_place, ref) << "in place: key_len=" << key_len
                                 << " counter=" << c << " len=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace ipipe::crypto
