#include "fs/simext.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace storm::fs {

// ---------------------------------------------------------------- utilities

Result<std::vector<std::string>> split_path(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    std::string part = path.substr(pos, next - pos);
    if (!part.empty()) {
      if (part.size() > kMaxNameLen) {
        return error(ErrorCode::kInvalidArgument, "name too long: " + part);
      }
      parts.push_back(std::move(part));
    }
    pos = next + 1;
  }
  return parts;
}

namespace {

std::uint64_t block_lba(std::uint32_t block) {
  return static_cast<std::uint64_t>(block) * kSectorsPerBlock;
}

/// Entry `index` of a pointer-table block (big-endian block numbers).
std::uint32_t get_pointer(const Bytes& table, std::uint32_t index) {
  const std::uint8_t* p = table.data() + index * 4;
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | p[3];
}

void set_pointer(Bytes& table, std::uint32_t index, std::uint32_t value) {
  std::uint8_t* p = table.data() + index * 4;
  p[0] = static_cast<std::uint8_t>(value >> 24);
  p[1] = static_cast<std::uint8_t>(value >> 16);
  p[2] = static_cast<std::uint8_t>(value >> 8);
  p[3] = static_cast<std::uint8_t>(value);
}

std::vector<std::uint32_t> direct_blocks(const Inode& inode) {
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t block : inode.direct) {
    if (block != 0) blocks.push_back(block);
  }
  return blocks;
}

DirEntry entry_at(const Bytes& block, std::uint32_t slot) {
  return DirEntry::parse(std::span<const std::uint8_t>(
      block.data() + slot * kDirEntrySize, kDirEntrySize));
}

/// Adapt a (Status, T) callback to a Result<T>: T{} on error.
template <typename T>
auto unpack(std::function<void(Status, T)> done) {
  return [done = std::move(done)](Result<T> result) {
    if (result.is_ok()) {
      done(Status::ok(), std::move(result).take());
    } else {
      done(result.status(), T{});
    }
  };
}

}  // namespace

// ------------------------------------------------------------------- mkfs

SimExt::SimExt(sim::Executor executor, block::BlockDevice& device,
               Options options)
    : sim_(executor), dev_(device), options_(options) {}

Status SimExt::mkfs(block::MemDisk& disk) {
  SuperBlock sb;
  sb.blocks_per_group = 1024;
  sb.inodes_per_group = 512;
  sb.total_blocks =
      static_cast<std::uint32_t>(disk.num_sectors() / kSectorsPerBlock);
  if (sb.total_blocks < 1 + sb.blocks_per_group) {
    return error(ErrorCode::kInvalidArgument,
                 "device too small for SimExt (needs >= " +
                     std::to_string((1 + sb.blocks_per_group) * kBlockSize) +
                     " bytes)");
  }
  sb.num_groups = (sb.total_blocks - 1) / sb.blocks_per_group;

  auto write_block = [&](std::uint32_t block, const Bytes& data) {
    disk.write_sync(static_cast<std::uint64_t>(block) * kSectorsPerBlock,
                    data);
  };

  write_block(0, sb.serialize());
  for (std::uint32_t g = 0; g < sb.num_groups; ++g) {
    Bytes block_bitmap(kBlockSize, 0);
    for (std::uint32_t i = 0; i < sb.group_meta_blocks(); ++i) {
      bitmap_set(block_bitmap, i, true);
    }
    write_block(sb.group_first_block(g), block_bitmap);

    Bytes inode_bitmap(kBlockSize, 0);
    if (g == 0) {
      bitmap_set(inode_bitmap, 0, true);          // inode 0 reserved
      bitmap_set(inode_bitmap, kRootInode, true);  // root directory
    }
    write_block(sb.group_first_block(g) + 1, inode_bitmap);
  }

  // Root directory inode (empty directory, no data blocks yet).
  Inode root;
  root.type = InodeType::kDirectory;
  root.links = 1;
  auto [root_block, root_off] = inode_location(sb, kRootInode);
  Bytes table_block(kBlockSize, 0);
  root.serialize_into(
      std::span<std::uint8_t>(table_block.data() + root_off, kInodeSize));
  write_block(root_block, table_block);
  return Status::ok();
}

// ------------------------------------------------------------------- mount

void SimExt::mount(DoneCb done) {
  sim::spawn(sim::then(do_mount(), std::move(done)));
}

sim::Task<Status> SimExt::do_mount() {
  auto [status, data] = co_await block::read(dev_, 0, kSectorsPerBlock);
  if (!status.is_ok()) co_return status;
  auto parsed = SuperBlock::parse(data);
  if (!parsed.is_ok()) co_return parsed.status();
  sb_ = parsed.value();
  // Prefetch every group's allocation bitmaps so allocation decisions
  // are synchronous afterwards (a mount-time metadata scan, like
  // loading group descriptors in ext*).
  std::vector<std::uint32_t> bitmaps;
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    bitmaps.push_back(sb_.group_first_block(g));
    bitmaps.push_back(sb_.group_first_block(g) + 1);
  }
  Status s = co_await ensure_blocks(std::move(bitmaps));
  if (s.is_ok()) mounted_ = true;
  co_return s;
}

// --------------------------------------------------------------- op queue

void SimExt::enqueue(std::function<sim::Task<void>()> op) {
  op_queue_.push_back(std::move(op));
  if (!op_running_) sim::spawn(run_ops());
}

sim::Task<void> SimExt::run_ops() {
  op_running_ = true;
  while (!op_queue_.empty()) {
    auto op = std::move(op_queue_.front());
    op_queue_.pop_front();
    co_await op();
    // The next operation starts in a fresh event, as a VFS lock handoff
    // wakes the next waiter.
    co_await sim::sleep(sim_, 0);
  }
  op_running_ = false;
}

// --------------------------------------------------------------- cache

sim::Task<Status> SimExt::ensure_block(std::uint32_t block) {
  if (cache_.contains(block)) co_return Status::ok();
  auto [status, data] =
      co_await block::read(dev_, block_lba(block), kSectorsPerBlock);
  if (status.is_ok()) cache_.emplace(block, std::move(data));
  co_return status;
}

sim::Task<Status> SimExt::ensure_blocks(std::vector<std::uint32_t> blocks) {
  sim::Join join;
  for (std::uint32_t block : blocks) {
    if (cache_.contains(block)) continue;
    dev_.read(block_lba(block), kSectorsPerBlock,
              [this, block, done = join.add()](Status status, Bytes data) {
                if (status.is_ok()) cache_.emplace(block, std::move(data));
                done(status);
              });
  }
  co_return co_await join;
}

Bytes& SimExt::cached(std::uint32_t block) {
  auto it = cache_.find(block);
  if (it == cache_.end()) {
    throw std::logic_error("SimExt: block not cached: " +
                           std::to_string(block));
  }
  return it->second;
}

void SimExt::mark_dirty(std::uint32_t block, sim::Join& join) {
  if (options_.writeback_delay == 0) {
    // Coalesce repeated dirtying of the same metadata block within one
    // event tick (e.g. 64 bitmap updates while mapping one large write)
    // into a single device write, as a real buffer cache would.
    auto [it, fresh] = pending_meta_.try_emplace(block);
    it->second.push_back(join.add());
    if (fresh) {
      sim_.schedule_in(0, [this, block] {
        auto node = pending_meta_.extract(block);
        if (node.empty()) return;
        Bytes copy = cached(block);
        dev_.write(block_lba(block), std::move(copy),
                   [waiters = std::move(node.mapped())](Status status) {
                     for (const auto& waiter : waiters) waiter(status);
                   });
      });
    }
    return;
  }
  dirty_.insert(block);
  schedule_flush();
}

void SimExt::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  sim_.schedule_in(options_.writeback_delay, [this] {
    flush_scheduled_ = false;
    sim::spawn(flush_dirty());
  });
}

sim::Task<Status> SimExt::flush_dirty() {
  sim::Join join;
  for (std::uint32_t block : dirty_) {
    Bytes copy = cached(block);
    dev_.write(block_lba(block), std::move(copy), join.add());
  }
  dirty_.clear();
  for (auto& [lba, data] : pending_data_) {
    dev_.write(lba, std::move(data), join.add());
  }
  pending_data_.clear();
  co_return co_await join;
}

void SimExt::flush(DoneCb done) {
  enqueue([this, done] { return sim::then(flush_dirty(), done); });
}

void SimExt::drop_caches() {
  // Keep bitmaps (allocator state) and anything dirty.
  std::set<std::uint32_t> keep = dirty_;
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    keep.insert(sb_.group_first_block(g));
    keep.insert(sb_.group_first_block(g) + 1);
  }
  std::erase_if(cache_, [&](const auto& kv) { return !keep.contains(kv.first); });
}

// --------------------------------------------------------------- inodes

std::uint32_t SimExt::inode_block(std::uint32_t ino) const {
  return inode_location(sb_, ino).first;
}

Inode SimExt::get_inode(std::uint32_t ino) {
  auto [block, offset] = inode_location(sb_, ino);
  const Bytes& data = cached(block);
  return Inode::parse(
      std::span<const std::uint8_t>(data.data() + offset, kInodeSize));
}

void SimExt::put_inode(std::uint32_t ino, const Inode& inode,
                       sim::Join& join) {
  auto [block, offset] = inode_location(sb_, ino);
  Bytes& data = cached(block);
  inode.serialize_into(std::span<std::uint8_t>(data.data() + offset,
                                               kInodeSize));
  mark_dirty(block, join);
}

// ------------------------------------------------------------- allocation

Result<std::uint32_t> SimExt::alloc_inode(sim::Join& join) {
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    std::uint32_t bitmap_block = sb_.group_first_block(g) + 1;
    Bytes& bitmap = cached(bitmap_block);
    auto index = bitmap_find_clear(bitmap, sb_.inodes_per_group);
    if (!index) continue;
    bitmap_set(bitmap, *index, true);
    mark_dirty(bitmap_block, join);
    return g * sb_.inodes_per_group + *index;
  }
  return error(ErrorCode::kOutOfSpace, "no free inodes");
}

Result<std::uint32_t> SimExt::alloc_block(sim::Join& join) {
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    std::uint32_t bitmap_block = sb_.group_first_block(g);
    Bytes& bitmap = cached(bitmap_block);
    auto index = bitmap_find_clear(bitmap, sb_.blocks_per_group);
    if (!index) continue;
    std::uint32_t block = sb_.group_first_block(g) + *index;
    if (block >= sb_.total_blocks) continue;  // truncated last group
    bitmap_set(bitmap, *index, true);
    mark_dirty(bitmap_block, join);
    return block;
  }
  return error(ErrorCode::kOutOfSpace, "no free blocks");
}

Status SimExt::alloc_table(std::uint32_t& slot, sim::Join& join) {
  auto block = alloc_block(join);
  if (!block.is_ok()) return block.status();
  slot = block.value();
  cache_[slot] = Bytes(kBlockSize, 0);
  mark_dirty(slot, join);
  return Status::ok();
}

void SimExt::free_inode(std::uint32_t ino, sim::Join& join) {
  std::uint32_t g = inode_group(sb_, ino);
  std::uint32_t bitmap_block = sb_.group_first_block(g) + 1;
  Bytes& bitmap = cached(bitmap_block);
  bitmap_set(bitmap, ino % sb_.inodes_per_group, false);
  mark_dirty(bitmap_block, join);
}

void SimExt::free_block(std::uint32_t block, sim::Join& join) {
  std::uint32_t g = (block - 1) / sb_.blocks_per_group;
  std::uint32_t bitmap_block = sb_.group_first_block(g);
  Bytes& bitmap = cached(bitmap_block);
  bitmap_set(bitmap, block - sb_.group_first_block(g), false);
  mark_dirty(bitmap_block, join);
  cache_.erase(block);
  dirty_.erase(block);
}

std::uint32_t SimExt::free_data_blocks() const {
  std::uint32_t free = 0;
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    auto it = cache_.find(sb_.group_first_block(g));
    if (it == cache_.end()) continue;
    for (std::uint32_t i = 0; i < sb_.blocks_per_group; ++i) {
      if (!bitmap_get(it->second, i)) ++free;
    }
  }
  return free;
}

// --------------------------------------------------------------- resolve

sim::Task<Result<SimExt::Resolved>> SimExt::resolve(std::string path) {
  auto parts = split_path(path);
  if (!parts.is_ok()) co_return parts.status();
  const std::vector<std::string>& names = parts.value();
  if (names.empty()) co_return Resolved{0, kRootInode, ""};
  std::uint32_t current = kRootInode;
  for (std::size_t i = 0;; ++i) {
    Status status = co_await ensure_block(inode_block(current));
    if (!status.is_ok()) co_return status;
    Inode dir = get_inode(current);
    if (dir.type != InodeType::kDirectory) {
      co_return error(ErrorCode::kInvalidArgument, "not a directory");
    }
    auto found = co_await dir_scan(dir, names[i]);
    if (!found.is_ok()) co_return found.status();
    std::uint32_t ino = found.value().ino;
    if (i + 1 == names.size()) co_return Resolved{current, ino, names[i]};
    if (ino == 0) {
      co_return error(ErrorCode::kNotFound,
                      "no such path component: " + names[i]);
    }
    current = ino;
  }
}

sim::Task<Result<SimExt::Slot>> SimExt::dir_scan(Inode dir,
                                                 std::string name) {
  std::vector<std::uint32_t> blocks = direct_blocks(dir);
  Status status = co_await ensure_blocks(blocks);
  if (!status.is_ok()) co_return status;
  for (std::uint32_t block : blocks) {
    const Bytes& data = cached(block);
    for (std::uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
      DirEntry entry = entry_at(data, slot);
      if (entry.inode != 0 && entry.name == name) {
        co_return Slot{entry.inode, block, slot * kDirEntrySize};
      }
    }
  }
  co_return Slot{};
}

sim::Task<Result<std::vector<DirEntry>>> SimExt::dir_list(
    std::uint32_t ino) {
  Status status = co_await ensure_block(inode_block(ino));
  if (!status.is_ok()) co_return status;
  Inode dir = get_inode(ino);
  if (dir.type != InodeType::kDirectory) {
    co_return error(ErrorCode::kInvalidArgument, "not a directory");
  }
  std::vector<std::uint32_t> blocks = direct_blocks(dir);
  status = co_await ensure_blocks(blocks);
  if (!status.is_ok()) co_return status;
  std::vector<DirEntry> entries;
  for (std::uint32_t block : blocks) {
    const Bytes& data = cached(block);
    for (std::uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
      DirEntry entry = entry_at(data, slot);
      if (entry.inode != 0) entries.push_back(std::move(entry));
    }
  }
  co_return entries;
}

sim::Task<Status> SimExt::dir_add_entry(std::uint32_t dir_ino,
                                        DirEntry entry) {
  Status status = co_await ensure_block(inode_block(dir_ino));
  if (!status.is_ok()) co_return status;
  status = co_await ensure_blocks(direct_blocks(get_inode(dir_ino)));
  if (!status.is_ok()) co_return status;
  sim::Join join;
  Inode dir = get_inode(dir_ino);
  // Find a free slot in existing blocks.
  for (std::uint32_t block : direct_blocks(dir)) {
    Bytes& data = cached(block);
    for (std::uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
      if (entry_at(data, slot).inode != 0) continue;
      entry.serialize_into(std::span<std::uint8_t>(
          data.data() + slot * kDirEntrySize, kDirEntrySize));
      mark_dirty(block, join);
      co_return co_await join;
    }
  }
  // All blocks full: grow the directory by one block.
  for (auto& slot : dir.direct) {
    if (slot != 0) continue;
    auto block = alloc_block(join);
    if (!block.is_ok()) {
      join.fail(block.status());
      co_return co_await join;
    }
    slot = block.value();
    dir.size += kBlockSize;
    // Inode first, then the new directory block: a block-level
    // observer must see the mapping before the mapped content
    // (semantics reconstruction relies on this ordering).
    put_inode(dir_ino, dir, join);
    cache_[slot] = Bytes(kBlockSize, 0);
    entry.serialize_into(
        std::span<std::uint8_t>(cached(slot).data(), kDirEntrySize));
    mark_dirty(slot, join);
    co_return co_await join;
  }
  join.fail(error(ErrorCode::kOutOfSpace, "directory full"));
  co_return co_await join;
}

sim::Task<Status> SimExt::dir_remove_entry(std::uint32_t dir_ino,
                                           std::string name) {
  Status status = co_await ensure_block(inode_block(dir_ino));
  if (!status.is_ok()) co_return status;
  auto found = co_await dir_scan(get_inode(dir_ino), std::move(name));
  if (!found.is_ok()) co_return found.status();
  const Slot& slot = found.value();
  if (slot.ino == 0) co_return error(ErrorCode::kNotFound, "entry not found");
  sim::Join join;
  std::memset(cached(slot.block).data() + slot.offset, 0, kDirEntrySize);
  mark_dirty(slot.block, join);
  co_return co_await join;
}

// ---------------------------------------------------------- block mapping

sim::Task<Result<std::uint32_t>> SimExt::map_block(Inode& inode,
                                                   std::uint32_t index,
                                                   bool allocate,
                                                   sim::Join* join) {
  if (index < kDirectBlocks) {
    if (inode.direct[index] == 0 && allocate) {
      auto block = alloc_block(*join);
      if (!block.is_ok()) co_return block.status();
      inode.direct[index] = block.value();
    }
    co_return inode.direct[index];
  }
  // Walk the pointer tables: one level below the indirect block, two
  // below the double-indirect one.
  std::uint32_t rel = index - kDirectBlocks;
  std::uint32_t* root = &inode.indirect;
  std::vector<std::uint32_t> path{rel};
  if (rel >= kPointersPerBlock) {
    rel -= kPointersPerBlock;
    if (rel >= kPointersPerBlock * kPointersPerBlock) {
      co_return error(ErrorCode::kInvalidArgument, "file too large");
    }
    root = &inode.dindirect;
    path = {rel / kPointersPerBlock, rel % kPointersPerBlock};
  }
  if (*root == 0) {
    if (!allocate) co_return 0u;
    Status s = alloc_table(*root, *join);
    if (!s.is_ok()) co_return s;
  }
  std::uint32_t table = *root;
  for (std::size_t level = 0; level < path.size(); ++level) {
    Status s = co_await ensure_block(table);
    if (!s.is_ok()) co_return s;
    std::uint32_t value = get_pointer(cached(table), path[level]);
    if (value == 0) {
      if (!allocate) co_return 0u;
      if (level + 1 == path.size()) {
        auto block = alloc_block(*join);
        if (!block.is_ok()) co_return block.status();
        value = block.value();
      } else {
        s = alloc_table(value, *join);
        if (!s.is_ok()) co_return s;
      }
      set_pointer(cached(table), path[level], value);
      mark_dirty(table, *join);
    }
    table = value;
  }
  co_return table;
}

sim::Task<Status> SimExt::free_table(std::uint32_t table, int depth,
                                     sim::Join& join) {
  if (table == 0) co_return Status::ok();
  Status status = co_await ensure_block(table);
  if (!status.is_ok()) co_return status;
  std::vector<std::uint32_t> children;
  const Bytes& data = cached(table);
  for (std::uint32_t i = 0; i < kPointersPerBlock; ++i) {
    std::uint32_t child = get_pointer(data, i);
    if (child != 0) children.push_back(child);
  }
  for (std::uint32_t child : children) {
    if (depth == 1) {
      free_block(child, join);
      continue;
    }
    status = co_await free_table(child, depth - 1, join);
    if (!status.is_ok()) co_return status;
  }
  free_block(table, join);
  co_return Status::ok();
}

sim::Task<Status> SimExt::free_file_blocks(Inode inode, sim::Join& join) {
  for (std::uint32_t block : direct_blocks(inode)) free_block(block, join);
  Status status = co_await free_table(inode.indirect, 1, join);
  if (!status.is_ok()) co_return status;
  co_return co_await free_table(inode.dindirect, 2, join);
}

// --------------------------------------------------------------- op bodies

void SimExt::create(const std::string& path, DoneCb done) {
  enqueue([this, path, done] {
    return sim::then(do_create(path, InodeType::kFile), done);
  });
}

void SimExt::mkdir(const std::string& path, DoneCb done) {
  enqueue([this, path, done] {
    return sim::then(do_create(path, InodeType::kDirectory), done);
  });
}

sim::Task<Status> SimExt::do_create(std::string path, InodeType type) {
  auto resolved = co_await resolve(std::move(path));
  if (!resolved.is_ok()) co_return resolved.status();
  const Resolved& where = resolved.value();
  if (where.inode != 0 || where.parent == 0) {
    co_return error(ErrorCode::kAlreadyExists, "path exists");
  }
  sim::Join join;
  auto ino = alloc_inode(join);
  if (!ino.is_ok()) {
    join.fail(ino.status());
    co_return co_await join;
  }
  std::uint32_t new_ino = ino.value();
  Status status = co_await ensure_block(inode_block(new_ino));
  if (!status.is_ok()) {
    join.fail(status);
    co_return co_await join;
  }
  Inode inode;
  inode.type = type;
  inode.links = 1;
  put_inode(new_ino, inode, join);
  DirEntry entry;
  entry.inode = new_ino;
  entry.type = type;
  entry.name = where.leaf;
  join.add(dir_add_entry(where.parent, std::move(entry)));
  co_return co_await join;
}

void SimExt::write_file(const std::string& path, std::uint64_t offset,
                        Bytes data, DoneCb done) {
  enqueue([this, path, offset, data = std::move(data), done]() mutable {
    return sim::then(do_write(path, offset, std::move(data)), done);
  });
}

sim::Task<Status> SimExt::do_write(std::string path, std::uint64_t offset,
                                   Bytes data) {
  auto resolved = co_await resolve(std::move(path));
  if (!resolved.is_ok()) co_return resolved.status();
  std::uint32_t ino = resolved.value().inode;
  if (ino == 0) co_return error(ErrorCode::kNotFound, "no such file");
  Status status = co_await ensure_block(inode_block(ino));
  if (!status.is_ok()) co_return status;
  Inode inode = get_inode(ino);
  if (inode.type != InodeType::kFile) {
    co_return error(ErrorCode::kInvalidArgument, "not a regular file");
  }
  sim::Join join;
  const std::uint64_t end = offset + data.size();
  const auto first_block = static_cast<std::uint32_t>(offset / kBlockSize);
  const auto last_block = static_cast<std::uint32_t>(
      data.empty() ? first_block : (end - 1) / kBlockSize);

  // Data bytes are staged during the mapping phase and issued only
  // after the inode (and any pointer blocks) have been written: a
  // block-level observer can then attribute every data write to its
  // file — the property StorM's semantics reconstruction depends on.
  std::vector<std::pair<std::uint64_t, Bytes>> staged;
  for (std::uint32_t index = first_block;
       !data.empty() && index <= last_block; ++index) {
    const std::uint64_t block_start =
        static_cast<std::uint64_t>(index) * kBlockSize;
    const std::uint64_t copy_from =
        std::max<std::uint64_t>(offset, block_start);
    const std::uint64_t copy_to =
        std::min<std::uint64_t>(end, block_start + kBlockSize);
    const bool full_block = copy_from == block_start &&
                            copy_to == block_start + kBlockSize;
    const bool existed_before = block_start < inode.size;  // old data?

    auto mapped = co_await map_block(inode, index, /*allocate=*/true, &join);
    if (!mapped.is_ok()) {
      join.fail(mapped.status());
      co_return co_await join;
    }
    const std::uint64_t lba = block_lba(mapped.value());
    auto src = std::span<const std::uint8_t>(data).subspan(
        copy_from - offset, copy_to - copy_from);
    Bytes bytes;
    if (full_block) {
      bytes.assign(src.begin(), src.end());
    } else if (!existed_before) {
      bytes.assign(kBlockSize, 0);
    } else {
      // Read-modify-write of an existing partial block.
      auto [rs, old] = co_await block::read(dev_, lba, kSectorsPerBlock);
      if (!rs.is_ok()) {
        join.fail(rs);
        co_return co_await join;
      }
      bytes = std::move(old);
    }
    if (!full_block) {
      std::memcpy(bytes.data() + (copy_from - block_start), src.data(),
                  src.size());
    }
    staged.emplace_back(lba, std::move(bytes));
  }

  inode.size = std::max(inode.size, end);
  put_inode(ino, inode, join);
  // Merge contiguous staged writes into single device I/Os, as a
  // kernel block layer would merge bios.
  std::vector<std::pair<std::uint64_t, Bytes>> merged;
  for (auto& [lba, bytes] : staged) {
    if (!merged.empty() &&
        merged.back().first + merged.back().second.size() / 512 == lba) {
      merged.back().second.insert(merged.back().second.end(), bytes.begin(),
                                  bytes.end());
    } else {
      merged.emplace_back(lba, std::move(bytes));
    }
  }
  // Issue data after the same-tick metadata flush (see mark_dirty): the
  // post below runs after the pending-meta posts already scheduled by
  // put_inode/alloc, keeping the metadata-before-data device order
  // reconstruction relies on.
  for (auto& [lba, bytes] : merged) {
    if (options_.writeback_delay == 0) {
      sim_.schedule_in(0, [this, lba = lba, bytes = std::move(bytes),
                           done = join.add()]() mutable {
        dev_.write(lba, std::move(bytes), std::move(done));
      });
    } else {
      pending_data_.emplace_back(lba, std::move(bytes));
      schedule_flush();
    }
  }
  co_return co_await join;
}

void SimExt::read_file(const std::string& path, std::uint64_t offset,
                       std::uint32_t length, ReadCb done) {
  enqueue([this, path, offset, length, done] {
    return sim::then(do_read(path, offset, length), unpack(done));
  });
}

sim::Task<Result<Bytes>> SimExt::do_read(std::string path,
                                         std::uint64_t offset,
                                         std::uint32_t length) {
  auto resolved = co_await resolve(std::move(path));
  if (!resolved.is_ok()) co_return resolved.status();
  std::uint32_t ino = resolved.value().inode;
  if (ino == 0) co_return error(ErrorCode::kNotFound, "no such file");
  Status status = co_await ensure_block(inode_block(ino));
  if (!status.is_ok()) co_return status;
  Inode inode = get_inode(ino);
  if (inode.type != InodeType::kFile) {
    co_return error(ErrorCode::kInvalidArgument, "not a regular file");
  }
  if (offset >= inode.size) co_return Bytes{};
  const std::uint64_t end =
      std::min<std::uint64_t>(inode.size, offset + length);
  const auto first_block = static_cast<std::uint32_t>(offset / kBlockSize);
  const auto last_block = static_cast<std::uint32_t>((end - 1) / kBlockSize);

  // Phase 1: map every affected file block (metadata only — the
  // pointer blocks are cached after the first touch), merging
  // contiguous blocks into runs as the kernel block layer merges bios.
  struct Run {
    std::uint32_t first_index;
    std::uint32_t first_block;  // 0 = hole
    std::uint32_t count;
  };
  std::vector<Run> runs;
  for (std::uint32_t index = first_block; index <= last_block; ++index) {
    auto mapped = co_await map_block(inode, index, /*allocate=*/false, nullptr);
    if (!mapped.is_ok()) co_return mapped.status();
    std::uint32_t block = mapped.value();
    bool contiguous =
        !runs.empty() &&
        ((block == 0 && runs.back().first_block == 0) ||
         (block != 0 && runs.back().first_block != 0 &&
          runs.back().first_block + runs.back().count == block));
    if (contiguous) {
      ++runs.back().count;
    } else {
      runs.push_back(Run{index, block, 1});
    }
  }

  // Phase 2: one device read per run.
  Bytes result;
  result.reserve(end - offset);
  for (const Run& run : runs) {
    std::uint64_t run_start =
        static_cast<std::uint64_t>(run.first_index) * kBlockSize;
    std::uint64_t from = std::max<std::uint64_t>(offset, run_start);
    std::uint64_t to = std::min<std::uint64_t>(
        end, run_start + static_cast<std::uint64_t>(run.count) * kBlockSize);
    if (run.first_block == 0) {  // hole
      result.insert(result.end(), to - from, 0);
      continue;
    }
    auto [rs, data] = co_await block::read(dev_, block_lba(run.first_block),
                                           run.count * kSectorsPerBlock);
    if (!rs.is_ok()) co_return rs;
    result.insert(result.end(),
                  data.begin() + static_cast<std::ptrdiff_t>(from - run_start),
                  data.begin() + static_cast<std::ptrdiff_t>(to - run_start));
  }
  co_return result;
}

void SimExt::unlink(const std::string& path, DoneCb done) {
  enqueue([this, path, done] { return sim::then(do_unlink(path), done); });
}

sim::Task<Status> SimExt::do_unlink(std::string path) {
  auto resolved = co_await resolve(std::move(path));
  if (!resolved.is_ok()) co_return resolved.status();
  const Resolved where = resolved.value();
  if (where.inode == 0 || where.parent == 0) {
    co_return error(ErrorCode::kNotFound, "no such path");
  }
  Status status = co_await ensure_block(inode_block(where.inode));
  if (!status.is_ok()) co_return status;
  Inode inode = get_inode(where.inode);
  {
    sim::Join freed;
    if (inode.type == InodeType::kDirectory) {
      auto entries = co_await dir_list(where.inode);
      if (!entries.is_ok()) co_return entries.status();
      if (!entries.value().empty()) {
        co_return error(ErrorCode::kFailedPrecondition, "directory not empty");
      }
      for (std::uint32_t block : direct_blocks(inode)) free_block(block, freed);
    } else {
      freed.fail(co_await free_file_blocks(inode, freed));
    }
    status = co_await freed;
    if (!status.is_ok()) co_return status;
  }
  sim::Join join;
  join.add(dir_remove_entry(where.parent, where.leaf));
  free_inode(where.inode, join);
  put_inode(where.inode, Inode{}, join);  // type kFree, all zero
  co_return co_await join;
}

void SimExt::rename(const std::string& from, const std::string& to,
                    DoneCb done) {
  enqueue([this, from, to, done] {
    return sim::then(do_rename(from, to), done);
  });
}

sim::Task<Status> SimExt::do_rename(std::string from, std::string to) {
  auto src = co_await resolve(std::move(from));
  if (!src.is_ok()) co_return src.status();
  if (src.value().inode == 0 || src.value().parent == 0) {
    co_return error(ErrorCode::kNotFound, "rename source missing");
  }
  auto dst = co_await resolve(std::move(to));
  if (!dst.is_ok()) co_return dst.status();
  if (dst.value().inode != 0 || dst.value().parent == 0) {
    co_return error(ErrorCode::kAlreadyExists, "rename target exists");
  }
  std::uint32_t ino = src.value().inode;
  Status status = co_await ensure_block(inode_block(ino));
  if (!status.is_ok()) co_return status;
  DirEntry entry;
  entry.inode = ino;
  entry.type = get_inode(ino).type;
  entry.name = dst.value().leaf;
  status = co_await dir_remove_entry(src.value().parent, src.value().leaf);
  if (!status.is_ok()) co_return status;
  co_return co_await dir_add_entry(dst.value().parent, std::move(entry));
}

void SimExt::readdir(const std::string& path, ListCb done) {
  enqueue([this, path, done] {
    return sim::then(do_readdir(path), unpack(done));
  });
}

sim::Task<Result<std::vector<DirEntry>>> SimExt::do_readdir(std::string path) {
  auto resolved = co_await resolve(std::move(path));
  if (!resolved.is_ok()) co_return resolved.status();
  if (resolved.value().inode == 0) {
    co_return error(ErrorCode::kNotFound, "no such directory");
  }
  co_return co_await dir_list(resolved.value().inode);
}

void SimExt::stat(const std::string& path, StatCb done) {
  enqueue([this, path, done] {
    return sim::then(do_stat(path), unpack(done));
  });
}

sim::Task<Result<StatInfo>> SimExt::do_stat(std::string path) {
  auto resolved = co_await resolve(std::move(path));
  if (!resolved.is_ok()) co_return resolved.status();
  std::uint32_t ino = resolved.value().inode;
  if (ino == 0) co_return error(ErrorCode::kNotFound, "no such path");
  Status status = co_await ensure_block(inode_block(ino));
  if (!status.is_ok()) co_return status;
  Inode inode = get_inode(ino);
  co_return StatInfo{inode.type, inode.size, ino};
}

}  // namespace storm::fs
