// Exhaustive check of the library's own exp (tensor/kernels): every one of
// the 2^32 float bit patterns through the scalar reference and through the
// exp entry of every vector tier up to the active one (STGNN_ISA caps it),
// compared bit for bit. On glibc hosts with FMA the reference is also
// compared with the host expf, which there runs __expf_fma, the algorithm
// the reference reproduces (glibc's non-FMA variant differs on 2 inputs).
//
// About 20 s for the three vector tiers on a 4-core AVX-512 host, so it
// carries its own ctest label ("exhaustive") and stays out of tier1|tier2;
// simd_kernels_test checks a strided sample of the same space in tier-1.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/cpuid.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/kernels/kernels.h"

namespace stgnn {
namespace {

namespace kn = tensor::kernels;

// Vector tiers the host runs, up to the active one. The scalar tier's exp
// entry is the reference itself.
std::vector<const kn::KernelTable*> VectorTiersUpToActive() {
  std::vector<const kn::KernelTable*> tiers;
  for (common::Isa isa : {common::Isa::kAvx2, common::Isa::kAvx512,
                          common::Isa::kAvx512Vnni}) {
    if (!common::IsaSupported(isa)) continue;
    if (static_cast<int>(isa) > static_cast<int>(common::ActiveIsa())) break;
    tiers.push_back(&kn::TableFor(isa));
  }
  return tiers;
}

bool HostExpfIsFmaGlibc() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 27)
  return common::IsaSupported(common::Isa::kAvx2);
#else
  return false;
#endif
}

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(ExpExhaustive, EveryTierAndHostExpfMatchTheReferenceOnAllFloats) {
  const std::vector<const kn::KernelTable*> tiers = VectorTiersUpToActive();
  const bool check_host = HostExpfIsFmaGlibc();
  constexpr int64_t kBlock = int64_t{1} << 16;
  constexpr int64_t kBlocks = (int64_t{1} << 32) / kBlock;
  // Per tier (and one slot for the host expf): mismatch count and the first
  // mismatching bit pattern.
  const size_t slots = tiers.size() + 1;
  std::vector<std::atomic<int64_t>> mismatches(slots);
  std::vector<std::atomic<uint32_t>> first(slots);
  for (size_t s = 0; s < slots; ++s) {
    mismatches[s] = 0;
    first[s] = 0xFFFFFFFFu;
  }
  // 256 blocks per chunk: the three scratch vectors are allocated once per
  // chunk, not once per block.
  common::ParallelFor(0, kBlocks, 256, [&](int64_t bb, int64_t be) {
    std::vector<float> in(kBlock), ref(kBlock), got(kBlock);
    for (int64_t b = bb; b < be; ++b) {
      for (int64_t i = 0; i < kBlock; ++i) {
        const uint32_t u = static_cast<uint32_t>(b * kBlock + i);
        std::memcpy(&in[i], &u, sizeof(u));
        ref[i] = kn::ScalarExpf(in[i]);
      }
      auto tally = [&](size_t slot, int64_t i) {
        if (mismatches[slot]++ == 0) first[slot] = Bits(in[i]);
      };
      for (size_t t = 0; t < tiers.size(); ++t) {
        tiers[t]->exp(in.data(), got.data(), kBlock);
        for (int64_t i = 0; i < kBlock; ++i) {
          if (Bits(got[i]) != Bits(ref[i])) tally(t, i);
        }
      }
      if (check_host) {
        for (int64_t i = 0; i < kBlock; ++i) {
          if (Bits(std::exp(in[i])) != Bits(ref[i])) tally(tiers.size(), i);
        }
      }
    }
  });
  for (size_t t = 0; t < tiers.size(); ++t) {
    EXPECT_EQ(mismatches[t].load(), 0)
        << tiers[t]->name << " exp differs from the reference, first at bits "
        << std::hex << first[t].load();
  }
  if (check_host) {
    EXPECT_EQ(mismatches[tiers.size()].load(), 0)
        << "the reference differs from the host expf, first at bits "
        << std::hex << first[tiers.size()].load();
  }
}

}  // namespace
}  // namespace stgnn
