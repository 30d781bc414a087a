// Tenant-defined encryption middle-box (paper case study 2): all data is
// AES-256-XTS ciphertext at rest on the provider's storage, with the key
// chosen by the tenant, while the VM sees plaintext — no in-guest agent,
// no volume reformatting.
//
//   $ ./encrypted_volumes
#include <cstdio>

#include "cloud/cloud.hpp"
#include "common/hash.hpp"
#include "core/platform.hpp"
#include "services/registry.hpp"

using namespace storm;

int main() {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  cloud.create_vm("db-vm", "acme", 0);
  auto volume = cloud.create_volume("pii-vol", 100'000);
  if (!volume.is_ok()) return 1;

  // Tenant-chosen key, passed through the policy.
  auto policy = core::parse_policy(R"(
tenant acme
volume db-vm pii-vol
  service encryption relay=active key=000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f
)");
  if (!policy.is_ok()) {
    std::fprintf(stderr, "%s\n", policy.status().to_string().c_str());
    return 1;
  }
  Status deployed = error(ErrorCode::kIoError, "pending");
  platform.apply_policy(
      policy.value(),
      [&](Result<std::vector<core::DeploymentHandle>> r) {
        deployed = r.status();
      });
  sim.run();
  if (!deployed.is_ok()) {
    std::fprintf(stderr, "%s\n", deployed.to_string().c_str());
    return 1;
  }

  // The VM writes customer data.
  cloud::Vm& vm = *cloud.find_vm("db-vm");
  Bytes customer_record = to_bytes(
      "name=Ada Lovelace; card=4000-0000-0000-0002; ssn=078-05-1120 ");
  while (customer_record.size() < 4096) {
    customer_record.push_back('.');
  }
  customer_record.resize(4096);

  bool ok = false;
  vm.disk()->write(1000, customer_record, [&](Status s) { ok = s.is_ok(); });
  sim.run();
  std::printf("VM wrote a 4 KB customer record: %s\n", ok ? "OK" : "FAIL");

  // What the provider's storage actually holds:
  Bytes at_rest = volume.value()->disk().store().read_sync(1000, 8);
  bool leaked = false;
  std::string needle = "Lovelace";
  for (std::size_t i = 0; i + needle.size() <= at_rest.size(); ++i) {
    if (std::equal(needle.begin(), needle.end(), at_rest.begin() + i)) {
      leaked = true;
    }
  }
  std::printf("storage backend sees plaintext: %s\n",
              leaked ? "YES (bad!)" : "no — ciphertext only");
  std::printf("  at-rest crc32: %08x\n", crc32(at_rest));
  std::printf("  plaintext crc32: %08x\n", crc32(customer_record));

  // And the VM reads its plaintext back, transparently.
  Bytes read_back;
  vm.disk()->read(1000, 8, [&](Status s, Bytes d) {
    if (s.is_ok()) read_back = std::move(d);
  });
  sim.run();
  bool match = read_back == customer_record;
  std::printf("VM reads the record back intact: %s\n",
              match ? "yes" : "NO (bug)");
  return (!leaked && match) ? 0 : 1;
}
