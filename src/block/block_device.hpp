// Block device abstraction. All I/O is asynchronous (completion
// callbacks), matching the event-driven simulation; MemDisk completes
// inline, SimDisk after a modeled service time. Coroutines await an I/O
// with co_await block::read(...) / block::write(...).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/buf.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "sim/task.hpp"

namespace storm::block {

inline constexpr std::uint32_t kSectorSize = 512;

class BlockDevice {
 public:
  using ReadCallback = std::function<void(Status, Bytes)>;
  using WriteCallback = std::function<void(Status)>;

  virtual ~BlockDevice() = default;

  /// Read `count` sectors starting at `lba`.
  virtual void read(std::uint64_t lba, std::uint32_t count,
                    ReadCallback done) = 0;

  /// Write `data` (must be sector-aligned in size) starting at `lba`.
  virtual void write(std::uint64_t lba, Bytes data, WriteCallback done) = 0;

  /// Scatter-gather write: the chunks are stored consecutively from
  /// `lba`; their total size must be sector-aligned. The default
  /// implementation flattens the chain (one counted copy) and calls
  /// write(); devices with direct store access override it to copy each
  /// chunk straight into place, so a burst assembled from wire segments
  /// never needs an intermediate contiguous buffer.
  virtual void write_gather(std::uint64_t lba, BufChain chunks,
                            WriteCallback done);

  virtual std::uint64_t num_sectors() const = 0;

  std::uint64_t size_bytes() const { return num_sectors() * kSectorSize; }

 protected:
  /// Validate an I/O range; shared by implementations.
  Status check_range(std::uint64_t lba, std::uint64_t sectors) const;
};

/// Instant in-memory disk; also the backing store for SimDisk.
class MemDisk : public BlockDevice {
 public:
  explicit MemDisk(std::uint64_t sectors)
      : sectors_(sectors), data_(sectors * kSectorSize, 0) {}

  void read(std::uint64_t lba, std::uint32_t count, ReadCallback done) override;
  void write(std::uint64_t lba, Bytes data, WriteCallback done) override;
  void write_gather(std::uint64_t lba, BufChain chunks,
                    WriteCallback done) override;
  std::uint64_t num_sectors() const override { return sectors_; }

  /// Synchronous accessors for tests, mkfs and the semantic engine's
  /// initial filesystem scan (dumpfs-style).
  Bytes read_sync(std::uint64_t lba, std::uint32_t count) const;
  void write_sync(std::uint64_t lba, std::span<const std::uint8_t> data);
  /// Gather form: chunks land back-to-back starting at `lba`.
  void write_sync_chain(std::uint64_t lba, const BufChain& chunks);

 private:
  std::uint64_t sectors_;
  Bytes data_;
};

/// co_await read(device, lba, count) yields {Status, Bytes}.
inline auto read(BlockDevice& device, std::uint64_t lba, std::uint32_t count) {
  return sim::until<Status, Bytes>([&device, lba, count](auto done) {
    device.read(lba, count, std::move(done));
  });
}

/// co_await write(device, lba, data) yields the write's Status.
inline auto write(BlockDevice& device, std::uint64_t lba, Bytes data) {
  return sim::until<Status>(
      [&device, lba, data = std::move(data)](auto done) mutable {
        device.write(lba, std::move(data), std::move(done));
      });
}

}  // namespace storm::block
