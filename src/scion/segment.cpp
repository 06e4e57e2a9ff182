#include "scion/segment.hpp"

#include "crypto/sha256.hpp"
#include "util/strings.hpp"

namespace pan::scion {
namespace {

void write_link_meta(ByteWriter& w, const LinkMeta& m) {
  w.u64(static_cast<std::uint64_t>(m.latency.nanos()));
  w.u64(static_cast<std::uint64_t>(m.bandwidth_bps));
  w.u32(static_cast<std::uint32_t>(m.mtu));
  w.u32(static_cast<std::uint32_t>(m.loss_rate * 1e9));
  w.u64(static_cast<std::uint64_t>(m.jitter.nanos()));
  w.u64(static_cast<std::uint64_t>(m.co2_g_per_gb * 1e3));
  w.u64(static_cast<std::uint64_t>(m.cost_per_gb * 1e3));
}

void write_as_meta(ByteWriter& w, const AsMeta& m) {
  w.lp_str(m.country);
  w.u32(static_cast<std::uint32_t>(m.ethics_rating * 1e3));
  w.u8(m.qos_capable ? 1 : 0);
  w.u8(m.allied ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(m.internal_co2_g_per_gb * 1e3));
}

}  // namespace

void write_entry_body(ByteWriter& w, const AsEntry& entry) {
  serialize_hop_field(w, entry.hop);
  write_link_meta(w, entry.ingress_link);
  write_as_meta(w, entry.as_meta);
  w.u16(static_cast<std::uint16_t>(entry.peers.size()));
  for (const PeerEntry& peer : entry.peers) {
    serialize_hop_field(w, peer.hop);
    w.u64(peer.peer_as.packed());
    w.u16(peer.peer_if);
    write_link_meta(w, peer.peer_link);
  }
}

const char* to_string(SegmentType t) {
  switch (t) {
    case SegmentType::kCore: return "core";
    case SegmentType::kDown: return "down";
  }
  return "?";
}

std::string PathSegment::id() const {
  crypto::Sha256 h;
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(origin.packed());
  w.u32(origin_ts);
  for (const AsEntry& entry : entries) {
    w.u64(entry.hop.isd_as.packed());
    w.u16(entry.hop.in_if);
    w.u16(entry.hop.out_if);
  }
  h.update(std::span<const std::uint8_t>(w.bytes()));
  return crypto::hex_digest(h.finalize()).substr(0, 16);
}

SegmentHasher::SegmentHasher(const PathSegment& segment) {
  body_.u8(static_cast<std::uint8_t>(segment.type));
  body_.u64(segment.origin.packed());
  body_.u32(segment.origin_ts);
  sha_.update(std::span<const std::uint8_t>(body_.bytes()));
}

crypto::Digest SegmentHasher::absorb_body(const AsEntry& entry) {
  body_.clear();
  write_entry_body(body_, entry);
  sha_.update(std::span<const std::uint8_t>(body_.bytes()));
  return digest();
}

void SegmentHasher::absorb_signature(const crypto::Signature& sig) {
  // The bytes ByteWriter::lp_bytes(sig.serialize()) writes, hashed straight
  // from the preimage array (contiguous, no padding) with no 8 KB copy.
  static_assert(sizeof(sig.revealed) == crypto::kSignatureBits * crypto::kSha256DigestSize);
  const std::uint8_t length[2] = {static_cast<std::uint8_t>(sizeof(sig.revealed) >> 8),
                                  static_cast<std::uint8_t>(sizeof(sig.revealed))};
  sha_.update(std::span<const std::uint8_t>(length));
  sha_.update(std::span<const std::uint8_t>(sig.revealed.front().data(), sizeof(sig.revealed)));
}

crypto::Digest SegmentHasher::digest() const {
  crypto::Sha256 fork = sha_;
  return fork.finalize();
}

SegmentDigests digest_segment(const PathSegment& segment) {
  SegmentDigests out;
  out.signing.reserve(segment.entries.size());
  SegmentHasher hasher(segment);
  for (const AsEntry& entry : segment.entries) {
    out.signing.push_back(hasher.absorb_body(entry));
    hasher.absorb_signature(entry.signature);
  }
  out.content = hasher.digest();
  return out;
}

bool verify_segment(const PathSegment& segment, std::span<const crypto::Digest> signing_digests,
                    const TrustStore& trust, crypto::PreimageCache* cache) {
  if (segment.entries.empty() || signing_digests.size() != segment.entries.size()) return false;
  if (segment.origin != segment.entries.front().hop.isd_as) return false;
  for (std::size_t i = 0; i < segment.entries.size(); ++i) {
    const AsEntry& entry = segment.entries[i];
    const crypto::PublicKey* key = trust.verified_key(entry.hop.isd_as);
    if (key == nullptr ||
        !crypto::verify_digest(*key, signing_digests[i], entry.signature, cache)) {
      return false;
    }
  }
  return true;
}

bool verify_segment(const PathSegment& segment, const TrustStore& trust,
                    crypto::PreimageCache* cache) {
  return verify_segment(segment, digest_segment(segment).signing, trust, cache);
}

}  // namespace pan::scion
