#include "crypto/merkle.hpp"

#include <cassert>

namespace nonrep::crypto {

namespace {

Digest hash_pair(const Digest& l, const Digest& r) {
  Sha256 h;
  h.update(BytesView(l.data(), l.size()));
  h.update(BytesView(r.data(), r.size()));
  return h.finish();
}

constexpr std::size_t kLamportSigSize = 256 * 32;
constexpr std::size_t kLamportPubSize = 256 * 2 * kSha256DigestSize;

}  // namespace

Result<MerkleSigner> MerkleSigner::create(Drbg& rng, std::size_t height) {
  if (height < 1 || height > 12) {
    return Error::make("merkle.bad_height",
                       "supported tree heights are 1..12, got " + std::to_string(height));
  }
  MerkleSigner signer;
  signer.build(rng, height);
  return signer;
}

void MerkleSigner::build(Drbg& rng, std::size_t height) {
  const std::size_t n = std::size_t{1} << height;
  leaves_.reserve(n);
  std::vector<Digest> level;
  level.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves_.push_back(Leaf{lamport_generate(rng), false});
    level.push_back(leaves_.back().keys.pub.fingerprint());
  }
  levels_.push_back(level);
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Digest> next;
    next.reserve(prev.size() / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      next.push_back(hash_pair(prev[i], prev[i + 1]));
    }
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

std::vector<Digest> MerkleSigner::auth_path(std::size_t leaf) const {
  std::vector<Digest> path;
  std::size_t index = leaf;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    path.push_back(levels_[lvl][index ^ 1]);
    index >>= 1;
  }
  return path;
}

Result<Bytes> MerkleSigner::sign(BytesView msg) {
  if (exhausted()) {
    return Error::make("merkle.exhausted", "all one-time keys consumed");
  }
  const std::size_t leaf = next_leaf_++;
  Leaf& l = leaves_[leaf];
  assert(!l.consumed);  // internal invariant: next_leaf_ only moves forward
  l.consumed = true;

  Bytes out;
  out.push_back(static_cast<std::uint8_t>(leaf >> 24));
  out.push_back(static_cast<std::uint8_t>(leaf >> 16));
  out.push_back(static_cast<std::uint8_t>(leaf >> 8));
  out.push_back(static_cast<std::uint8_t>(leaf));
  append(out, lamport_sign(l.keys.priv, msg));
  append(out, l.keys.pub.encode());
  for (const Digest& d : auth_path(leaf)) append(out, BytesView(d.data(), d.size()));

  // Forward security: wipe the consumed one-time private key.
  for (auto& pair : l.keys.priv.preimages) {
    for (auto& pre : pair) pre.assign(pre.size(), 0);
  }
  return out;
}

std::optional<MerkleSignatureView> parse_merkle_signature(BytesView signature,
                                                          std::size_t tree_height) {
  const std::size_t expected =
      4 + kLamportSigSize + kLamportPubSize + tree_height * kSha256DigestSize;
  if (signature.size() != expected) return std::nullopt;

  MerkleSignatureView v;
  v.leaf_index = (static_cast<std::uint32_t>(signature[0]) << 24) |
                 (static_cast<std::uint32_t>(signature[1]) << 16) |
                 (static_cast<std::uint32_t>(signature[2]) << 8) |
                 static_cast<std::uint32_t>(signature[3]);
  if (v.leaf_index >= (std::uint32_t{1} << tree_height)) return std::nullopt;
  v.lamport_signature = signature.subspan(4, kLamportSigSize);
  v.public_key = signature.subspan(4 + kLamportSigSize, kLamportPubSize);
  std::size_t off = 4 + kLamportSigSize + kLamportPubSize;
  for (std::size_t i = 0; i < tree_height; ++i) {
    Digest d{};
    if (!digest_from_bytes(signature.subspan(off, kSha256DigestSize), d)) return std::nullopt;
    v.auth_path.push_back(d);
    off += kSha256DigestSize;
  }
  return v;
}

bool merkle_verify(const Digest& root, std::size_t tree_height, BytesView msg,
                   BytesView signature) {
  const auto parsed = parse_merkle_signature(signature, tree_height);
  if (!parsed) return false;

  // Rebuild the Lamport public key and check the one-time signature.
  LamportPublicKey pub;
  std::size_t off = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      if (!digest_from_bytes(parsed->public_key.subspan(off, kSha256DigestSize),
                             pub.hashes[i][b])) {
        return false;
      }
      off += kSha256DigestSize;
    }
  }
  if (!lamport_verify(pub, msg, parsed->lamport_signature)) return false;

  // Walk the authentication path up to the root.
  Digest node = pub.fingerprint();
  std::size_t index = parsed->leaf_index;
  for (const Digest& sibling : parsed->auth_path) {
    node = (index & 1) ? hash_pair(sibling, node) : hash_pair(node, sibling);
    index >>= 1;
  }
  return constant_time_equal(BytesView(node.data(), node.size()),
                             BytesView(root.data(), root.size()));
}

}  // namespace nonrep::crypto

