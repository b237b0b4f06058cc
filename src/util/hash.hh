/**
 * @file
 * The content hash behind every cache staleness check.
 *
 * PackedWeightCache (packed GEMM weights, sparse weight plans) and
 * SparsePlanCache (CT-CSR error plans) key their entries on a pointer
 * plus geometry, and re-validate each lookup against a hash of the
 * current bytes, so a caller that mutates a tensor in place is never
 * served a stale entry. The hash runs on every lookup — once per
 * minibatch phase — so it must cost far less than the pack or encode
 * it guards: four independent FNV-style lanes over 64-bit words hide
 * the multiply latency and run near load bandwidth. Every byte still
 * feeds the result, so any in-place mutation changes the hash.
 */

#ifndef SPG_UTIL_HASH_HH
#define SPG_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace spg {

/**
 * @return a 64-bit hash of @p bytes bytes at @p data. A non-zero
 * @p seed chains hashes: contentHash(b, nb, contentHash(a, na)) covers
 * both buffers.
 */
std::uint64_t contentHash(const void *data, std::size_t bytes,
                          std::uint64_t seed = 0);

} // namespace spg

#endif // SPG_UTIL_HASH_HH
