// Run-time CPU feature probe for the hardware kernels: the CRC-32 fold,
// the AES-NI XTS kernel and the AVX2 ChaCha20 kernel. Each kernel is
// compiled with a function-level target attribute, so the build needs no
// flag, and runs only where the CPU reports its feature; every caller
// keeps a portable kernel as the fallback.
#pragma once

namespace storm::cpu {

enum Feature : unsigned {
  kClmul = 1u << 0,  // PCLMULQDQ and SSE4.1
  kAesNi = 1u << 1,
  kAvx2 = 1u << 2,
};

/// True when the running CPU has `feature`. Probed once per process on
/// first use; always false on builds for other architectures.
bool has(Feature feature);

}  // namespace storm::cpu
