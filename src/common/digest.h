// Byte-wise 64-bit FNV-1a, the one fold behind every pinned digest: the
// datacenter ledger, the oracle, the bench checksums and the metamorphic
// test digests. Values fold least-significant byte first; doubles fold by
// bit pattern, so a digest pins exact floating-point results, not
// approximations.

#ifndef OASIS_SRC_COMMON_DIGEST_H_
#define OASIS_SRC_COMMON_DIGEST_H_

#include <bit>
#include <cstdint>

namespace oasis {

class Fnv1a {
 public:
  // The FNV-1a offset basis.
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  // The offset basis with its last decimal digit dropped. The datacenter
  // ledger, the oracle and the oracle benches start from it, and their
  // printed digests are pinned, so they keep it.
  static constexpr uint64_t kShortBasis = 1469598103934665603ull;

  explicit Fnv1a(uint64_t basis = kOffsetBasis) : hash_(basis) {}

  void Fold(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Fold(double value) { Fold(std::bit_cast<uint64_t>(value)); }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_;
};

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_DIGEST_H_
