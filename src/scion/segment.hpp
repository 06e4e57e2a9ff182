// Path segments: the product of beaconing.
//
// A PathSegment is an authenticated record of one beacon's journey: segment
// info (origin AS, origination timestamp) plus one AsEntry per AS traversed.
// Each AsEntry carries the hop field (data-plane authorization), the
// metadata decorations of the link the beacon crossed to reach that AS, a
// snapshot of per-AS metadata, and a signature chaining over everything that
// precedes it — so a downstream AS cannot rewrite upstream history.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/signature.hpp"
#include "scion/hopfield.hpp"
#include "scion/pki.hpp"
#include "scion/types.hpp"

namespace pan::scion {

enum class SegmentType : std::uint8_t { kCore, kDown };

[[nodiscard]] const char* to_string(SegmentType t);

/// A peering shortcut offered by an AS: a second, alternatively-sealed hop
/// field whose ingress is the peering interface instead of the parent link.
/// Replacing the main hop field with it authorizes traffic to leave (or
/// enter) the segment sideways across the peering link — SCION's peering
/// path construction.
struct PeerEntry {
  /// in_if = local peering interface, out_if = the entry's beacon-direction
  /// egress (toward the leaf; 0 at the segment end). Sealed by this AS.
  HopField hop;
  IsdAsn peer_as;
  /// The peer's interface id on the peering link.
  IfaceId peer_if = kNoIface;
  LinkMeta peer_link;
};

struct AsEntry {
  HopField hop;
  /// Decorations of the link crossed from the previous AS in beacon
  /// direction (zeroed for the origin AS, which has no ingress link).
  LinkMeta ingress_link;
  AsMeta as_meta;
  /// Peering shortcuts this AS offers at this position in the segment.
  std::vector<PeerEntry> peers;
  crypto::Signature signature;
};

struct PathSegment {
  SegmentType type = SegmentType::kDown;
  IsdAsn origin;
  /// Origination timestamp, seconds (also the hop-field MAC epoch).
  std::uint32_t origin_ts = 0;

  std::vector<AsEntry> entries;

  [[nodiscard]] IsdAsn first_as() const { return entries.front().hop.isd_as; }
  [[nodiscard]] IsdAsn last_as() const { return entries.back().hop.isd_as; }
  [[nodiscard]] std::size_t length() const { return entries.size(); }

  /// Stable identifier: hash over the AS/interface sequence.
  [[nodiscard]] std::string id() const;
};

/// Writes an entry's wire bytes without its signature: hop field, ingress
/// link and AS metadata, peering entries. On the wire each entry is these
/// bytes followed by its signature as a u16-length-prefixed blob.
void write_entry_body(ByteWriter& w, const AsEntry& entry);

/// Running SHA-256 over a segment's wire bytes, fed in wire order: the
/// segment info (type, origin, timestamp), then each entry's body and its
/// signature. The digest right after an entry's body is what that entry
/// signs: the segment info, every previous entry with its signature (the
/// chain a downstream AS cannot rewrite), and the entry itself. The digest
/// after the last signature is the segment's content digest.
class SegmentHasher {
 public:
  /// Absorbs `segment`'s info; its entries are not read.
  explicit SegmentHasher(const PathSegment& segment);

  /// Absorbs `entry` without its signature and returns the digest that the
  /// entry's signature signs.
  [[nodiscard]] crypto::Digest absorb_body(const AsEntry& entry);
  /// Absorbs a signature as the wire carries it (length, then preimages).
  void absorb_signature(const crypto::Signature& sig);
  /// The digest of everything absorbed so far.
  [[nodiscard]] crypto::Digest digest() const;

 private:
  crypto::Sha256 sha_;
  ByteWriter body_;  // reused across entries
};

/// What one SegmentHasher pass over a whole segment yields.
struct SegmentDigests {
  /// signing[i] is the digest entries[i].signature signs.
  std::vector<crypto::Digest> signing;
  /// Full-content digest covering every field *including signatures*:
  /// unlike id(), two segments share it only if they are byte-identical on
  /// the wire. This is the key for verified-segment memos: a re-signed or
  /// tampered variant of the same AS path digests differently and therefore
  /// cannot hit a stale memo entry.
  crypto::Digest content{};
};

[[nodiscard]] SegmentDigests digest_segment(const PathSegment& segment);

/// Verifies every entry's signature against chain-validated AS certificates
/// from `trust`, given the segment's signing digests (digest_segment).
/// Returns false if any key is missing/invalid or any signature fails. Pass
/// a PreimageCache to amortize preimage hashing across segments signed by
/// the same (reused) keys.
[[nodiscard]] bool verify_segment(const PathSegment& segment,
                                  std::span<const crypto::Digest> signing_digests,
                                  const TrustStore& trust, crypto::PreimageCache* cache = nullptr);

/// The same, hashing the segment in one pass first.
[[nodiscard]] bool verify_segment(const PathSegment& segment, const TrustStore& trust,
                                  crypto::PreimageCache* cache = nullptr);

}  // namespace pan::scion
