#include "ccsim/sim/random.h"

#include <cmath>

#include "ccsim/sim/check.h"

namespace ccsim::sim {

namespace {

// MT19937-64 ([rand.predef]): n = 312 (RandomStream::kStateWords),
// m = 156, r = 31, a = kMatrixA.
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One twist step: the upper bit of `upper` and the lower r bits of `lower`,
// shifted and conditionally xored with a, then xored into `far`.
std::uint64_t TwistWord(std::uint64_t upper, std::uint64_t lower,
                        std::uint64_t far) {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

// SplitMix64: decorrelates (master_seed, stream_id) pairs into engine seeds.
std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// [rand.util.seedseq] generate() of the s = 4 words v into the n = 624
// words b that seed an MT19937-64 (two 32-bit words per state word): t = 11,
// p = (n - t) / 2, q = p + t, m = n. The steps are the standard's; the
// indices k + p and k + q advance with k and wrap at n instead of being
// taken mod n, and b[k - 1], written by the previous step, is carried in
// `prev` instead of reloaded.
constexpr std::size_t kSeedWords = 624;
constexpr std::size_t kSeedP = (kSeedWords - 11) / 2;
constexpr std::size_t kSeedQ = kSeedP + 11;

void ExpandSeed(const std::uint32_t (&v)[4], std::uint32_t (&b)[kSeedWords]) {
  constexpr std::size_t n = kSeedWords;
  for (std::uint32_t& w : b) w = 0x8b8b8b8bu;
  // k = 0.
  b[kSeedP] += 1371501266u;
  b[kSeedQ] += 1371501266u + 4u;  // + s
  std::uint32_t prev = b[0] = 1371501266u + 4u;
  // k = 1 .. n - 1; the first s steps add v[k - 1].
  std::size_t kp = kSeedP + 1, kq = kSeedQ + 1;
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint32_t arg = b[k] ^ b[kp] ^ prev;
    const std::uint32_t r1 = 1664525u * (arg ^ (arg >> 27));
    const std::uint32_t r2 =
        r1 + static_cast<std::uint32_t>(k) + (k <= 4 ? v[k - 1] : 0u);
    b[kp] += r1;
    b[kq] += r2;
    b[k] = prev = r2;
    if (++kp == n) kp = 0;
    if (++kq == n) kq = 0;
  }
  // k = m .. m + n - 1, writing b[k - m].
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t arg = b[k] + b[kp] + prev;
    const std::uint32_t r3 = 1566083941u * (arg ^ (arg >> 27));
    const std::uint32_t r4 = r3 - static_cast<std::uint32_t>(k);
    b[kp] ^= r3;
    b[kq] ^= r4;
    b[k] = prev = r4;
    if (++kp == n) kp = 0;
    if (++kq == n) kq = 0;
  }
}

}  // namespace

RandomStream::RandomStream(std::uint64_t master_seed, std::uint64_t stream_id) {
  std::uint64_t state = master_seed ^ (stream_id * 0xd1342543de82ef95ULL + 1);
  // seed_seq keeps the low 32 bits of each seed word.
  std::uint32_t v[4] = {};
  for (std::uint32_t& w : v) w = static_cast<std::uint32_t>(SplitMix64(state));
  static_assert(kSeedWords == 2 * kStateWords);
  std::uint32_t b[kSeedWords];  // ExpandSeed writes every word first
  ExpandSeed(v, b);
  // [rand.eng.mers] seed(q): state word i = b[2i] + 2^32 b[2i + 1]. A state
  // that is zero apart from the low r bits of word 0 never leaves zero, so
  // the engine sets word 0 to 2^63 instead.
  auto word = [&b](std::size_t i) {
    return b[2 * i] | std::uint64_t{b[2 * i + 1]} << 32;
  };
  state_[0] = word(0);
  std::uint64_t nonzero = state_[0] & kUpperMask;
  for (std::size_t i = 1; i < kStateWords; ++i) nonzero |= state_[i] = word(i);
  if (nonzero == 0) state_[0] = std::uint64_t{1} << 63;
}

void RandomStream::Twist() {
  constexpr std::size_t n = kStateWords;
  for (std::size_t k = 0; k < n - kM; ++k)
    state_[k] = TwistWord(state_[k], state_[k + 1], state_[k + kM]);
  for (std::size_t k = n - kM; k < n - 1; ++k)
    state_[k] = TwistWord(state_[k], state_[k + 1], state_[k + kM - n]);
  state_[n - 1] = TwistWord(state_[n - 1], state_[0], state_[kM - 1]);
  index_ = 0;
}

double RandomStream::Canonical(std::uint64_t bits) {
  const double u = static_cast<double>(bits) * 0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

double RandomStream::Exponential(double mean) {
  CCSIM_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0.0;
  ++draws_;
  // Dividing by the rate 1 / mean and multiplying by mean differ in the last
  // bit; the recorded output divides.
  return -std::log(1.0 - Canonical(Draw())) / (1.0 / mean);
}

double RandomStream::Uniform(double lo, double hi) {
  CCSIM_CHECK(lo <= hi);
  ++draws_;
  return Canonical(Draw()) * (hi - lo) + lo;
}

std::int64_t RandomStream::UniformInt(std::int64_t lo, std::int64_t hi) {
  CCSIM_CHECK(lo <= hi);
  ++draws_;
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
  if (range == ~std::uint64_t{0})
    return static_cast<std::int64_t>(base + Draw());
  // Lemire's nearly-divisionless method: the high word of draw x span is
  // uniform on [0, span) once products whose low word falls below
  // 2^64 mod span are rejected.
  __extension__ using Wide = unsigned __int128;
  const std::uint64_t span = range + 1;
  Wide product = Wide{Draw()} * span;
  if (static_cast<std::uint64_t>(product) < span) {
    const std::uint64_t threshold = -span % span;
    while (static_cast<std::uint64_t>(product) < threshold)
      product = Wide{Draw()} * span;
  }
  return static_cast<std::int64_t>(base +
                                   static_cast<std::uint64_t>(product >> 64));
}

bool RandomStream::Bernoulli(double p) {
  CCSIM_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  ++draws_;
  return Canonical(Draw()) < p;
}

}  // namespace ccsim::sim
