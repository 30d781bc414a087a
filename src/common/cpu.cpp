#include "common/cpu.hpp"

#include <atomic>

namespace storm::cpu {
namespace {

// Feature bits with kProbed set once the probe ran. Constant-initialised,
// so a kernel called during another translation unit's static
// initialisation still gets a correct answer; concurrent first calls race
// benignly to the same value.
constexpr unsigned kProbed = 1u << 31;
std::atomic<unsigned> g_features{0};

unsigned probe() {
  unsigned features = kProbed;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    features |= kClmul;
  }
  if (__builtin_cpu_supports("aes")) features |= kAesNi;
  if (__builtin_cpu_supports("avx2")) features |= kAvx2;
#endif
  return features;
}

}  // namespace

bool has(Feature feature) {
  unsigned features = g_features.load(std::memory_order_relaxed);
  if (features == 0) {
    features = probe();
    g_features.store(features, std::memory_order_relaxed);
  }
  return (features & feature) != 0;
}

}  // namespace storm::cpu
