#include "services/encrypted_disk.hpp"

namespace storm::services {

EncryptedDisk::EncryptedDisk(block::BlockDevice& inner, sim::Cpu& cpu,
                             Bytes key, EncryptedDiskConfig config)
    : inner_(inner), cpu_(cpu), xts_(key), config_(config) {}

void EncryptedDisk::write(std::uint64_t lba, Bytes data, WriteCallback done) {
  if (data.size() % block::kSectorSize != 0) {
    done(error(ErrorCode::kInvalidArgument, "unaligned write"));
    return;
  }
  ciphered_ += data.size();
  sim::spawn(encrypt_and_write(lba, std::move(data), std::move(done)));
}

void EncryptedDisk::read(std::uint64_t lba, std::uint32_t count,
                         ReadCallback done) {
  sim::spawn(read_and_decrypt(lba, count, std::move(done)));
}

sim::Task<void> EncryptedDisk::cipher_work(std::size_t bytes) {
  // dm-crypt splits cipher work across per-CPU workqueues, so charge the
  // cost as parallel halves.
  sim::Duration half = cost_of(bytes) / 2;
  sim::Join join;
  for (int i = 0; i < 2; ++i) {
    cpu_.run(half, [done = join.add()] { done(Status::ok()); });
  }
  co_await join;
}

sim::Task<void> EncryptedDisk::encrypt_and_write(std::uint64_t lba, Bytes data,
                                                 WriteCallback done) {
  // Encrypt on the VM's CPU first (the submitting thread blocks on this,
  // dm-crypt style), then push ciphertext down.
  co_await cipher_work(data.size());
  xts_.encrypt_sectors(lba, data);
  inner_.write(lba, std::move(data), std::move(done));
}

sim::Task<void> EncryptedDisk::read_and_decrypt(std::uint64_t lba,
                                                std::uint32_t count,
                                                ReadCallback done) {
  auto [status, data] = co_await block::read(inner_, lba, count);
  if (!status.is_ok()) {
    done(status, std::move(data));
    co_return;
  }
  ciphered_ += data.size();
  co_await cipher_work(data.size());
  xts_.decrypt_sectors(lba, data);
  done(Status::ok(), std::move(data));
}

}  // namespace storm::services
