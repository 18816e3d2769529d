#include "apps/nf/ipsec.h"

#include <cassert>
#include <cstring>

namespace ipipe::nf {

IpsecGateway::IpsecGateway(std::span<const std::uint8_t> aes_key,
                           const std::vector<std::uint8_t>& hmac_key,
                           std::uint32_t spi)
    : aes_(aes_key), hmac_(hmac_key), spi_(spi) {
  assert(aes_key.size() == 32 && "IPSec datapath uses AES-256 (§5.7)");
}

std::array<std::uint8_t, 16> IpsecGateway::counter_block(
    const EspPacket& pkt) const {
  // RFC 3686-style: nonce (spi) || IV || block counter starting at 1.
  std::array<std::uint8_t, 16> ctr{};
  std::memcpy(ctr.data(), &pkt.spi, 4);
  std::memcpy(ctr.data() + 4, pkt.iv.data(), 8);
  ctr[15] = 1;
  return ctr;
}

std::array<std::uint8_t, 12> IpsecGateway::compute_icv(
    const EspPacket& pkt) const {
  // Authenticated data: spi || seq || iv || ciphertext.
  crypto::Sha1 mac = hmac_.begin();
  mac.update({reinterpret_cast<const std::uint8_t*>(&pkt.spi), 4});
  mac.update({reinterpret_cast<const std::uint8_t*>(&pkt.seq), 8});
  mac.update(pkt.iv);
  mac.update(pkt.ciphertext);
  const auto digest = hmac_.finish(mac);
  std::array<std::uint8_t, 12> icv;
  std::memcpy(icv.data(), digest.data(), 12);  // RFC 2404 96-bit truncation
  return icv;
}

IpsecGateway::EspPacket IpsecGateway::encapsulate(
    std::span<const std::uint8_t> plaintext) {
  EspPacket pkt;
  pkt.spi = spi_;
  pkt.seq = ++seq_;
  // Deterministic IV derived from the sequence number (unique per SA).
  std::memcpy(pkt.iv.data(), &pkt.seq, 8);
  pkt.ciphertext.resize(plaintext.size());
  crypto::aes_ctr_crypt(aes_, counter_block(pkt), plaintext, pkt.ciphertext);
  pkt.icv = compute_icv(pkt);
  return pkt;
}

std::optional<std::vector<std::uint8_t>> IpsecGateway::decapsulate(
    const EspPacket& pkt) {
  if (pkt.seq <= highest_seen_) {
    ++replays_;
    return std::nullopt;
  }
  if (compute_icv(pkt) != pkt.icv) {
    ++auth_failures_;
    return std::nullopt;
  }
  highest_seen_ = pkt.seq;
  std::vector<std::uint8_t> plaintext(pkt.ciphertext.size());
  crypto::aes_ctr_crypt(aes_, counter_block(pkt), pkt.ciphertext, plaintext);
  return plaintext;
}

}  // namespace ipipe::nf
