// Merkle signature scheme (MSS) over Lamport one-time keys.
//
// A tree of 2^h Lamport key pairs is committed to by a single Merkle root
// (the long-term public key). Each signature reveals one leaf key plus its
// authentication path, and the signer advances a monotonic leaf index,
// discarding used private keys — giving the forward security property the
// paper cites ([25]): compromise of current state cannot forge signatures
// for already-used indices.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "util/result.hpp"

namespace nonrep::crypto {

class MerkleSigner {
 public:
  /// Builds 2^height one-time keys. Heights outside [1, 12] are a caller
  /// error (2^height Lamport key pairs are materialized up front), reported
  /// as "merkle.bad_height" rather than asserted.
  static Result<MerkleSigner> create(Drbg& rng, std::size_t height);

  const Digest& root() const noexcept { return root_; }
  std::size_t height() const noexcept { return levels_.size() - 1; }
  std::size_t capacity() const noexcept { return leaves_.size(); }
  std::size_t used() const noexcept { return next_leaf_; }
  bool exhausted() const noexcept { return next_leaf_ >= leaves_.size(); }

  /// Signs and irreversibly consumes one leaf; error when exhausted.
  Result<Bytes> sign(BytesView msg);

 private:
  struct Leaf {
    LamportKeyPair keys;
    bool consumed = false;
  };

  MerkleSigner() = default;  // only create() builds instances
  void build(Drbg& rng, std::size_t height);
  std::vector<Digest> auth_path(std::size_t leaf) const;

  std::vector<Leaf> leaves_;
  std::vector<std::vector<Digest>> levels_;  // levels_[0] = leaf fingerprints
  Digest root_{};
  std::size_t next_leaf_ = 0;
};

/// Stateless verification against the Merkle root public key.
bool merkle_verify(const Digest& root, std::size_t tree_height, BytesView msg,
                   BytesView signature);

/// Wire helpers (exposed for tests of malformed input handling).
struct MerkleSignatureView {
  std::uint32_t leaf_index;
  BytesView lamport_signature;
  BytesView public_key;          // serialized Lamport public key
  std::vector<Digest> auth_path;
};
std::optional<MerkleSignatureView> parse_merkle_signature(BytesView signature,
                                                          std::size_t tree_height);

}  // namespace nonrep::crypto
