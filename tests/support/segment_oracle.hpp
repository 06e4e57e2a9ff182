// The byte-rebuilding segment digests that scion::SegmentHasher replaced,
// kept as the oracle for its one-pass digests. Header-only.
//
// signing_input(i) serializes the segment info, every entry before i with
// its signature, and entry i without: the bytes entry i signs. The content
// digest hashes the whole segment as the wire carries it. Both rebuild every
// earlier entry from scratch, so a segment of n entries costs O(n^2) bytes of
// hashing; SegmentHasher produces the same digests in one pass.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "scion/segment.hpp"
#include "scion/topology.hpp"

namespace pan::testsupport {

inline void write_segment_info(ByteWriter& w, const scion::PathSegment& segment) {
  w.u8(static_cast<std::uint8_t>(segment.type));
  w.u64(segment.origin.packed());
  w.u32(segment.origin_ts);
}

inline void write_signed_entry(ByteWriter& w, const scion::AsEntry& entry) {
  scion::write_entry_body(w, entry);
  const Bytes sig = entry.signature.serialize();
  w.lp_bytes(sig);
}

/// Bytes signed by entry `index`.
inline Bytes signing_input(const scion::PathSegment& segment, std::size_t index) {
  ByteWriter w;
  write_segment_info(w, segment);
  for (std::size_t i = 0; i < index && i < segment.entries.size(); ++i) {
    write_signed_entry(w, segment.entries[i]);
  }
  if (index < segment.entries.size()) scion::write_entry_body(w, segment.entries[index]);
  return std::move(w).take();
}

/// Digest of the whole segment's wire bytes, signatures included.
inline crypto::Digest content_digest(const scion::PathSegment& segment) {
  ByteWriter w;
  write_segment_info(w, segment);
  for (const scion::AsEntry& entry : segment.entries) write_signed_entry(w, entry);
  return crypto::sha256(std::span<const std::uint8_t>(w.bytes()));
}

/// Every segment a topology's beaconing registered: the down segments of
/// each AS and the core segments between each pair of core ASes.
inline std::vector<const scion::PathSegment*> all_segments(const scion::Topology& topo) {
  std::vector<const scion::PathSegment*> out;
  const scion::PathServerInfra& infra = topo.path_infra();
  for (const scion::IsdAsn ia : topo.all_ases()) {
    for (const scion::PathSegment& seg : infra.down_segments(ia)) out.push_back(&seg);
    for (const scion::IsdAsn end : topo.all_ases()) {
      for (const scion::PathSegment* seg : infra.core_segments(ia, end)) out.push_back(seg);
    }
  }
  return out;
}

/// Where scion::digest_segment disagrees with the oracle on `segment`, or
/// "" when every signing digest and the content digest match.
inline std::string oracle_mismatch(const scion::PathSegment& segment) {
  const scion::SegmentDigests digests = scion::digest_segment(segment);
  if (digests.signing.size() != segment.entries.size()) return segment.id() + ": digest count";
  for (std::size_t i = 0; i < segment.entries.size(); ++i) {
    if (digests.signing[i] !=
        crypto::sha256(std::span<const std::uint8_t>(signing_input(segment, i)))) {
      return segment.id() + ": signing digest of entry " + std::to_string(i);
    }
  }
  if (digests.content != content_digest(segment)) return segment.id() + ": content digest";
  return "";
}

}  // namespace pan::testsupport
