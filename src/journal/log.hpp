// Log-structured journal engine: the (simulated) NVRAM backend behind
// the active relay's early-ACK consistency guarantee, rebuilt from the
// per-burst store into a real storage engine (ROADMAP item 3; cortx-motr
// be/ is the structural exemplar).
//
//   * Append-only segmented log. Records from many streams (one stream
//     per chain/session direction) multiplex into one shared Device —
//     thousands of chains share one journal device instead of each
//     keeping a private buffer.
//   * CRC-framed records (segment.hpp): replay walks the byte image and
//     accepts exactly the fully-stored prefix; a torn or bit-flipped
//     frame ends the log. This is what makes power-failure recovery a
//     byte-exact, testable operation (tests/journal_testutil.hpp sweeps
//     kills across every record boundary and mid-record).
//   * Group commit: appends store their bytes into NVRAM immediately
//     (byte-addressable persistence — the store itself is power-fail
//     safe, which is what lets the relay early-ACK without waiting), but
//     the device write pipeline that makes commit *latency* visible
//     drains them in batches: one simulated NVRAM write (fixed latency +
//     per-byte cost) covers every record staged while the previous write
//     was in flight, amortizing the per-write latency that a
//     one-write-per-burst journal pays on every PDU.
//   * Checkpoint + segment truncation (checkpoint.hpp): ack-driven trims
//     move in-memory cursors; a checkpoint record makes the horizon
//     durable and lets whole dead segments be dropped — space reclaim is
//     segment-granular, not per-ack.
//
// Durability invariant (what is durable when the early ACK fires): a
// record is in NVRAM the moment append() returns; a crash preserves
// every fully-appended record and at most one torn frame, which replay
// detects and discards. Records trimmed after the last checkpoint may be
// resurrected by replay (at-least-once above the checkpoint horizon);
// that is safe because streams replay burst-atomically onto idempotent
// sector writes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/buf.hpp"
#include "journal/checkpoint.hpp"
#include "journal/segment.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::journal {

struct Config {
  /// Segment capacity; the log rolls to a fresh segment when the active
  /// one cannot fit the next record (oversize records get a segment of
  /// their own).
  std::size_t segment_bytes = 256 * 1024;
  /// Fixed cost of one simulated NVRAM write (the flush/fence the device
  /// charges per write, independent of size) ...
  sim::Duration write_latency = sim::microseconds(4);
  /// ... plus this much per byte written (device bandwidth).
  double ns_per_byte = 0.25;
  /// Batch all records staged during the in-flight write into the next
  /// write (group commit). false = one NVRAM write per record, the
  /// per-burst baseline the bench compares against.
  bool group_commit = true;
  /// Auto-checkpoint once this many dead (trimmed) frame bytes have
  /// accumulated since the last checkpoint; 0 = explicit checkpoints
  /// only. Checkpoints are also when dead whole segments are reclaimed.
  std::size_t checkpoint_dead_bytes = 128 * 1024;
};

/// The journal device: one per (simulated) NVRAM DIMM — for the active
/// relay, one per middle-box VM, shared by every session and direction.
class Device {
 public:
  using CommitFn = std::function<void()>;

  struct ReplayStats {
    std::size_t recovered = 0;  // live records rebuilt into streams
    std::size_t skipped = 0;    // below the checkpoint horizon
    std::size_t torn = 0;       // invalid frames that ended the scan
    bool clean() const { return torn == 0; }
  };

  /// A deep copy of the device's NVRAM contents — what survives a power
  /// failure, exportable for the crash-point harness and fuzzers.
  struct Image {
    std::vector<Bytes> segments;
    std::size_t bytes() const {
      std::size_t total = 0;
      for (const Bytes& s : segments) total += s.size();
      return total;
    }
  };

  Device(sim::Executor executor, obs::Scope scope, Config config = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- streams (per-chain multiplexing) ---
  StreamId open_stream();
  /// Drop every live record of `stream` (session reset / teardown). The
  /// drop joins the checkpoint horizon so replay does not resurrect the
  /// dead stream.
  void drop_stream(StreamId stream);

  /// Append one record. The payload is stored into the active segment
  /// (the NVRAM copy — charged to the copy ledger) and indexed; the
  /// record is power-fail safe when this returns. `on_commit` fires when
  /// the device write pipeline has drained it (group commit latency).
  /// Returns the record's device-wide sequence number.
  std::uint64_t append(StreamId stream, const BufChain& payload,
                       std::uint64_t watermark, bool boundary,
                       CommitFn on_commit = {});

  /// Burst-atomic logical trim: drop `stream`'s acknowledged prefix up
  /// to the furthest burst boundary at or below `acked_watermark` —
  /// never splitting a burst, never touching the torn trailing burst.
  void trim(StreamId stream, std::uint64_t acked_watermark);

  /// Write a checkpoint record (durable trim horizon) and reclaim dead
  /// whole segments from the front of the log.
  void checkpoint();

  // --- per-stream accessors (null-safe: unknown stream reads as empty) ---
  std::vector<BufChain> stream_records(StreamId stream) const;
  std::size_t stream_entries(StreamId stream) const;
  std::size_t stream_bytes(StreamId stream) const;
  std::size_t stream_torn_tail_bytes(StreamId stream) const;
  std::size_t stream_complete_bytes(StreamId stream) const {
    return stream_bytes(stream) - stream_torn_tail_bytes(stream);
  }

  // --- device totals ---
  std::size_t live_bytes() const;    // payload bytes across live records
  std::size_t device_bytes() const;  // physical bytes held in segments
  std::size_t segment_count() const { return segments_.size(); }
  std::uint64_t appended_seq() const { return next_seq_ - 1; }
  std::uint64_t committed_seq() const { return committed_seq_; }
  /// No append is waiting on the write pipeline.
  bool flush_idle() const { return !flush_in_flight_ && pending_.empty(); }
  std::uint64_t checkpoints_written() const { return checkpoints_; }
  const Config& config() const { return config_; }

  // --- crash / recovery ---
  Image export_image() const;
  /// Power failure: volatile state (stream index, staged commit
  /// callbacks, in-flight write) is gone; segment bytes survive.
  void crash();
  /// Rebuild the stream index by scanning the segments: accept the valid
  /// CRC-framed prefix, apply the latest checkpoint horizon, truncate
  /// the torn tail. Emits replay_* telemetry.
  ReplayStats recover();
  /// Adopt a (possibly truncated/corrupted) NVRAM image and recover from
  /// it — the crash-point harness entry point.
  ReplayStats load(Image image);

 private:
  struct LiveRecord {
    std::uint64_t seq = 0;
    std::uint64_t watermark = 0;
    bool boundary = true;
    std::uint32_t segment_id = 0;
    std::size_t bytes = 0;  // payload bytes
    BufChain payload;       // refcounted; after recovery, segment copies
  };
  struct StreamState {
    std::deque<LiveRecord> records;
    std::size_t bytes = 0;
    std::size_t torn_tail_bytes = 0;
    std::uint64_t trim_cursor = 0;  // highest trimmed boundary watermark
    std::uint64_t last_seq = 0;
  };
  struct SegmentState {
    Segment segment;
    std::size_t live = 0;  // live records (stream + latest checkpoint)
    std::uint64_t min_seq = UINT64_MAX;
    std::uint64_t max_seq = 0;
  };
  struct PendingCommit {
    std::uint64_t seq = 0;
    sim::Time appended = 0;
    std::size_t frame_bytes = 0;
    CommitFn on_commit;
  };

  SegmentState& active_segment(std::size_t payload_len);
  void note_append(SegmentState& seg, std::uint64_t seq);
  void stage_commit(std::uint64_t seq, std::size_t frame_bytes, CommitFn cb);
  void schedule_flush();
  void complete_flush(std::size_t batch_records);
  void segment_release(std::uint32_t segment_id);
  void maybe_auto_checkpoint();
  void reclaim_segments();
  void update_gauges();
  Checkpoint horizon() const;

  sim::Executor sim_;
  obs::Scope scope_;
  // Per-record metrics of scope_, resolved on first use.
  obs::CounterHandle appends_{"appends"};
  obs::CounterHandle append_bytes_{"append_bytes"};
  obs::CounterHandle commits_{"commits"};
  obs::CounterHandle committed_records_{"committed_records"};
  obs::CounterHandle committed_bytes_{"committed_bytes"};
  obs::HistogramHandle commit_latency_{"commit_latency_ns"};
  obs::HistogramHandle group_records_{"group_records"};
  obs::HistogramHandle group_bytes_{"group_bytes"};
  obs::GaugeHandle device_bytes_gauge_{"device_bytes"};
  obs::GaugeHandle segments_gauge_{"segments"};
  Config config_;

  std::deque<SegmentState> segments_;
  std::map<StreamId, StreamState> streams_;
  /// Streams dropped whole, with the last seq they wrote (for pruning
  /// once no surviving segment can still hold their records).
  std::map<StreamId, std::uint64_t> dropped_streams_;

  std::uint32_t next_segment_id_ = 0;
  StreamId next_stream_ = 1;  // 0 is the meta stream
  std::uint64_t next_seq_ = 1;
  std::uint64_t committed_seq_ = 0;
  std::uint64_t epoch_ = 0;  // bumped by crash(); stale flushes no-op
  bool flush_in_flight_ = false;
  sim::CancelToken flush_token_;
  std::deque<PendingCommit> pending_;
  std::size_t dead_bytes_ = 0;  // trimmed frame bytes since last checkpoint
  bool has_checkpoint_segment_ = false;
  std::uint32_t checkpoint_segment_ = 0;  // holds the latest checkpoint
  std::uint64_t checkpoints_ = 0;
};

/// Per-chain handle over a shared Device — the drop-in replacement for
/// the old per-session RelayJournal. Default-constructed handles are
/// null (every accessor reads as empty) so holders can embed one
/// unconditionally and bind it when the device is known.
class Stream {
 public:
  Stream() = default;
  explicit Stream(Device& device)
      : device_(&device), id_(device.open_stream()) {}

  void append(BufChain wire, std::uint64_t watermark, bool boundary = true,
              Device::CommitFn on_commit = {}) {
    if (device_ != nullptr) {
      device_->append(id_, wire, watermark, boundary, std::move(on_commit));
    }
  }
  void trim(std::uint64_t acked_watermark) {
    if (device_ != nullptr) device_->trim(id_, acked_watermark);
  }
  std::vector<BufChain> unacknowledged() const {
    return device_ != nullptr ? device_->stream_records(id_)
                              : std::vector<BufChain>{};
  }
  std::size_t entries() const {
    return device_ != nullptr ? device_->stream_entries(id_) : 0;
  }
  std::size_t bytes() const {
    return device_ != nullptr ? device_->stream_bytes(id_) : 0;
  }
  std::size_t torn_tail_bytes() const {
    return device_ != nullptr ? device_->stream_torn_tail_bytes(id_) : 0;
  }
  std::size_t complete_bytes() const {
    return device_ != nullptr ? device_->stream_complete_bytes(id_) : 0;
  }

  /// Session reset: drop the old stream's records and continue as a
  /// fresh stream on the same device.
  void reset() {
    if (device_ != nullptr) {
      device_->drop_stream(id_);
      id_ = device_->open_stream();
    }
  }

  StreamId id() const { return id_; }
  Device* device() const { return device_; }

 private:
  Device* device_ = nullptr;
  StreamId id_ = 0;
};

}  // namespace storm::journal
