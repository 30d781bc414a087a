// SimExt: an ext2-style filesystem over a BlockDevice.
//
// Public operations are asynchronous (they generate real block I/O over
// the possibly-spliced storage path) and internally serialized, like a
// VFS holding a per-mount lock. Metadata blocks (bitmaps, inode tables,
// directory blocks) are cached on first touch; file data is never cached,
// so every file read/write reaches the device — which is what storage
// middle-boxes observe.
//
// An optional writeback delay models the guest page cache: metadata and
// data writes are deferred, so the block-level write sequence trails the
// file-op sequence (the effect the paper points out under Table I).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "block/block_device.hpp"
#include "fs/layout.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace storm::fs {

struct StatInfo {
  InodeType type = InodeType::kFree;
  std::uint64_t size = 0;
  std::uint32_t inode = 0;
};

struct SimExtOptions {
  /// 0 = write-through; otherwise writes are buffered and flushed after
  /// this delay (or at flush()).
  sim::Duration writeback_delay = 0;
};

class SimExt {
 public:
  using Options = SimExtOptions;

  using DoneCb = std::function<void(Status)>;
  using ReadCb = std::function<void(Status, Bytes)>;
  using ListCb = std::function<void(Status, std::vector<DirEntry>)>;
  using StatCb = std::function<void(Status, StatInfo)>;

  SimExt(sim::Executor executor, block::BlockDevice& device,
         Options options = {});

  SimExt(const SimExt&) = delete;
  SimExt& operator=(const SimExt&) = delete;

  /// Format a device (synchronous, direct store access — formatting
  /// happens before the volume is attached to any data path).
  static Status mkfs(block::MemDisk& disk);

  /// Read the superblock and prefetch allocation bitmaps.
  void mount(DoneCb done);
  bool mounted() const { return mounted_; }
  const SuperBlock& superblock() const { return sb_; }

  // All paths are absolute, '/'-separated.
  void create(const std::string& path, DoneCb done);
  void mkdir(const std::string& path, DoneCb done);
  void write_file(const std::string& path, std::uint64_t offset, Bytes data,
                  DoneCb done);
  void read_file(const std::string& path, std::uint64_t offset,
                 std::uint32_t length, ReadCb done);
  void unlink(const std::string& path, DoneCb done);
  void rename(const std::string& from, const std::string& to, DoneCb done);
  void readdir(const std::string& path, ListCb done);
  void stat(const std::string& path, StatCb done);

  /// Write out all buffered dirty blocks; completes when they are on the
  /// device.
  void flush(DoneCb done);

  /// Drop clean cached metadata (cold-cache behavior for experiments).
  void drop_caches();

  std::uint32_t free_data_blocks() const;

 private:
  // Every operation body is a sim::Task; the public calls above wrap them.

  // --- op queue (VFS lock): operations run one at a time, in order ---
  void enqueue(std::function<sim::Task<void>()> op);
  sim::Task<void> run_ops();

  // --- metadata cache ---
  sim::Task<Status> ensure_block(std::uint32_t block);
  /// Fetch every uncached block concurrently.
  sim::Task<Status> ensure_blocks(std::vector<std::uint32_t> blocks);
  Bytes& cached(std::uint32_t block);
  void mark_dirty(std::uint32_t block, sim::Join& join);
  void schedule_flush();
  sim::Task<Status> flush_dirty();

  // --- inode helpers (blocks must be ensured first) ---
  Inode get_inode(std::uint32_t ino);
  void put_inode(std::uint32_t ino, const Inode& inode, sim::Join& join);
  std::uint32_t inode_block(std::uint32_t ino) const;

  // --- allocation (bitmaps are always cached after mount) ---
  Result<std::uint32_t> alloc_inode(sim::Join& join);
  Result<std::uint32_t> alloc_block(sim::Join& join);
  /// A zeroed pointer-table block, stored in `slot`.
  Status alloc_table(std::uint32_t& slot, sim::Join& join);
  void free_inode(std::uint32_t ino, sim::Join& join);
  void free_block(std::uint32_t block, sim::Join& join);

  // --- path resolution ---
  struct Resolved {
    std::uint32_t parent = 0;       // parent directory inode
    std::uint32_t inode = 0;        // 0 when the leaf does not exist
    std::string leaf;
  };
  sim::Task<Result<Resolved>> resolve(std::string path);
  /// Where a directory entry lives; ino 0 when the name is absent.
  struct Slot {
    std::uint32_t ino = 0;
    std::uint32_t block = 0;
    std::uint32_t offset = 0;
  };
  /// Scan directory `dir` for `name`.
  sim::Task<Result<Slot>> dir_scan(Inode dir, std::string name);
  /// Every live entry of directory `ino`.
  sim::Task<Result<std::vector<DirEntry>>> dir_list(std::uint32_t ino);
  sim::Task<Status> dir_add_entry(std::uint32_t dir_ino, DirEntry entry);
  sim::Task<Status> dir_remove_entry(std::uint32_t dir_ino,
                                     std::string name);

  // --- file block mapping ---
  /// Absolute block number for file-block `index` (0 when unmapped and
  /// !allocate). With allocate, extends the mapping, updating `inode`
  /// in place (caller persists it); `join` collects the metadata writes.
  sim::Task<Result<std::uint32_t>> map_block(Inode& inode,
                                             std::uint32_t index,
                                             bool allocate, sim::Join* join);
  /// Free pointer table `table` and everything below it (`depth` 1: data
  /// blocks, 2: tables of data blocks).
  sim::Task<Status> free_table(std::uint32_t table, int depth,
                               sim::Join& join);
  sim::Task<Status> free_file_blocks(Inode inode, sim::Join& join);

  // --- op bodies ---
  sim::Task<Status> do_mount();
  sim::Task<Status> do_create(std::string path, InodeType type);
  sim::Task<Status> do_write(std::string path, std::uint64_t offset,
                             Bytes data);
  sim::Task<Result<Bytes>> do_read(std::string path, std::uint64_t offset,
                                   std::uint32_t length);
  sim::Task<Status> do_unlink(std::string path);
  sim::Task<Status> do_rename(std::string from, std::string to);
  sim::Task<Result<std::vector<DirEntry>>> do_readdir(std::string path);
  sim::Task<Result<StatInfo>> do_stat(std::string path);

  sim::Executor sim_;
  block::BlockDevice& dev_;
  Options options_;
  bool mounted_ = false;
  SuperBlock sb_;

  std::map<std::uint32_t, Bytes> cache_;
  std::set<std::uint32_t> dirty_;
  /// Write-through metadata writes coalesced within one event tick:
  /// block -> completion callbacks of the operations awaiting it.
  std::map<std::uint32_t, std::vector<std::function<void(Status)>>>
      pending_meta_;
  /// Deferred file-data writes (writeback mode only).
  std::vector<std::pair<std::uint64_t, Bytes>> pending_data_;
  bool flush_scheduled_ = false;

  std::deque<std::function<sim::Task<void>()>> op_queue_;
  bool op_running_ = false;
};

/// Split an absolute path into components; rejects empty names and
/// non-absolute paths.
Result<std::vector<std::string>> split_path(const std::string& path);

}  // namespace storm::fs
