// Identifier spaces and distance metrics shared by every DHT in the library.
//
// All DHTs in the paper operate on N-bit integer identifiers. Chord-family
// networks measure distance clockwise on the ring [0, 2^N); Kademlia/CAN
// measure distance with the XOR metric. Both metrics are provided here as
// small value types parameterized by the bit width.
#ifndef CANON_COMMON_IDS_H
#define CANON_COMMON_IDS_H

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace canon {

/// A node or key identifier. Only the low `bits` (<= 64) are meaningful.
using NodeId = std::uint64_t;

/// A node's position 0..n-1 in an ID-sorted population. Deliberately 32
/// bits: every CSR row, routing scratch buffer and query-engine shard
/// stores node *indices*, so the compact type halves the resident
/// link-table footprint and doubles the candidates per cache line on the
/// greedy scans. 64-bit NodeId is kept only for key-space arithmetic.
/// 2^32 - 1 nodes is far beyond the 10^6..10^7 populations the scale
/// benches target (see docs/PERFORMANCE.md "Scaling to millions of
/// nodes").
using NodeIndex = std::uint32_t;

/// Sentinel for "no node" in NodeIndex-valued hot paths (RingView::kNone
/// aliases it).
inline constexpr NodeIndex kInvalidNodeIndex = 0xFFFFFFFFu;

/// Number of bits in the default identifier space (matches the paper's
/// 32-bit experiments).
inline constexpr int kDefaultIdBits = 32;

/// Integer floor(log2(x)) for x >= 1; floor_log2(0) == 0.
constexpr int floor_log2(std::uint64_t x) {
  return static_cast<int>(std::bit_width(x | 1)) - 1;
}

/// Integer ceil(log2(x)) for x >= 1; ceil_log2(0) == 0.
constexpr int ceil_log2(std::uint64_t x) {
  return x <= 1 ? 0 : static_cast<int>(std::bit_width(x - 1));
}

/// An N-bit identifier space. Provides masking and the two distance
/// metrics used throughout the library.
class IdSpace {
 public:
  /// Constructs an identifier space of `bits` bits, 1 <= bits <= 64.
  explicit constexpr IdSpace(int bits = kDefaultIdBits) : bits_(bits) {
    if (bits < 1 || bits > 64) {
      throw std::invalid_argument("IdSpace: bits must be in [1, 64]");
    }
  }

  constexpr int bits() const { return bits_; }

  /// Bit mask covering the identifier space (2^bits - 1).
  constexpr NodeId mask() const {
    return bits_ == 64 ? ~NodeId{0} : (NodeId{1} << bits_) - 1;
  }

  /// Size of the space as a double (exact up to 2^53; used for ratios only).
  constexpr double size() const {
    return bits_ == 64 ? 18446744073709551616.0
                       : static_cast<double>(NodeId{1} << bits_);
  }

  /// Reduces an arbitrary integer into the space.
  constexpr NodeId wrap(NodeId x) const { return x & mask(); }

  /// Clockwise (ring) distance from `a` to `b`: the number of steps to walk
  /// clockwise (in increasing-ID direction, wrapping) from a to b.
  constexpr NodeId ring_distance(NodeId a, NodeId b) const {
    return (b - a) & mask();
  }

  /// XOR distance between `a` and `b` (symmetric).
  constexpr NodeId xor_distance(NodeId a, NodeId b) const {
    return (a ^ b) & mask();
  }

  /// The ID at clockwise offset `d` from `a`.
  constexpr NodeId advance(NodeId a, NodeId d) const { return (a + d) & mask(); }

  friend constexpr bool operator==(const IdSpace&, const IdSpace&) = default;

 private:
  int bits_;
};

/// Renders an ID as a fixed-width hex string (for logs and error messages).
std::string id_to_hex(NodeId id, int bits = kDefaultIdBits);

}  // namespace canon

#endif  // CANON_COMMON_IDS_H
