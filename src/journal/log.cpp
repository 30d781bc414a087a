#include "journal/log.hpp"

#include <algorithm>

namespace storm::journal {

Device::Device(sim::Executor executor, obs::Scope scope, Config config)
    : sim_(executor), scope_(std::move(scope)), config_(config) {
  if (config_.segment_bytes < kRecordOverhead + 1) {
    config_.segment_bytes = kRecordOverhead + 1;
  }
}

Device::~Device() { flush_token_.cancel(); }

// ------------------------------------------------------------- streams

StreamId Device::open_stream() {
  const StreamId id = next_stream_++;
  streams_.emplace(id, StreamState{});
  return id;
}

void Device::drop_stream(StreamId stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  StreamState& st = it->second;
  for (const LiveRecord& record : st.records) {
    segment_release(record.segment_id);
    dead_bytes_ += frame_size(record.bytes);
  }
  if (st.last_seq != 0) dropped_streams_[stream] = st.last_seq;
  streams_.erase(it);
  maybe_auto_checkpoint();
  update_gauges();
}

// ------------------------------------------------------------- append

Device::SegmentState& Device::active_segment(std::size_t payload_len) {
  if (segments_.empty() || !segments_.back().segment.fits(payload_len)) {
    if (!segments_.empty()) scope_.counter("segments_sealed").add();
    const std::size_t capacity =
        std::max(config_.segment_bytes, frame_size(payload_len));
    segments_.push_back(
        SegmentState{Segment(next_segment_id_++, capacity), 0});
    scope_.counter("segments_opened").add();
  }
  return segments_.back();
}

void Device::note_append(SegmentState& seg, std::uint64_t seq) {
  ++seg.live;
  seg.min_seq = std::min(seg.min_seq, seq);
  seg.max_seq = std::max(seg.max_seq, seq);
}

void Device::stage_commit(std::uint64_t seq, std::size_t frame_bytes,
                          CommitFn cb) {
  pending_.push_back(PendingCommit{seq, sim_.now(), frame_bytes,
                                   std::move(cb)});
  schedule_flush();
}

std::uint64_t Device::append(StreamId stream, const BufChain& payload,
                             std::uint64_t watermark, bool boundary,
                             CommitFn on_commit) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    // Adopted stream id (standby handoff, post-recovery append): learn it.
    it = streams_.emplace(stream, StreamState{}).first;
    next_stream_ = std::max(next_stream_, stream + 1);
  }
  StreamState& st = it->second;

  const std::size_t len = chain_size(payload);
  SegmentState& seg = active_segment(len);
  const std::uint64_t seq = next_seq_++;
  const std::uint8_t flags = boundary ? kBoundary : 0;
  const std::size_t frame =
      seg.segment.append(stream, seq, watermark, flags, payload);
  note_append(seg, seq);

  st.records.push_back(LiveRecord{seq, watermark, boundary,
                                  seg.segment.id(), len, payload});
  st.bytes += len;
  st.torn_tail_bytes = boundary ? 0 : st.torn_tail_bytes + len;
  st.last_seq = seq;

  appends_.in(scope_).add();
  append_bytes_.in(scope_).add(len);
  stage_commit(seq, frame, std::move(on_commit));
  update_gauges();
  return seq;
}

// --------------------------------------------------------- group commit

void Device::schedule_flush() {
  if (flush_in_flight_ || pending_.empty()) return;
  // Group commit: one simulated NVRAM write covers everything staged so
  // far; records arriving while it is in flight form the next group.
  // Baseline (group_commit=false): one write per record, serialized.
  const std::size_t batch =
      config_.group_commit ? pending_.size() : std::size_t{1};
  std::size_t batch_bytes = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    batch_bytes += pending_[i].frame_bytes;
  }
  flush_in_flight_ = true;
  const sim::Duration cost =
      config_.write_latency +
      static_cast<sim::Duration>(config_.ns_per_byte *
                                 static_cast<double>(batch_bytes));
  const std::uint64_t epoch = epoch_;
  flush_token_ = sim_.schedule_in(cost, [this, epoch, batch] {
    if (epoch_ != epoch) return;  // a crash invalidated this write
    complete_flush(batch);
  });
}

void Device::complete_flush(std::size_t batch_records) {
  flush_in_flight_ = false;
  const sim::Time now = sim_.now();
  std::size_t batch_bytes = 0;
  std::vector<CommitFn> callbacks;
  callbacks.reserve(batch_records);
  for (std::size_t i = 0; i < batch_records && !pending_.empty(); ++i) {
    PendingCommit& entry = pending_.front();
    committed_seq_ = entry.seq;
    batch_bytes += entry.frame_bytes;
    commit_latency_.in(scope_).record(
        static_cast<std::int64_t>(now - entry.appended));
    if (entry.on_commit) callbacks.push_back(std::move(entry.on_commit));
    pending_.pop_front();
  }
  commits_.in(scope_).add();
  committed_records_.in(scope_).add(batch_records);
  committed_bytes_.in(scope_).add(batch_bytes);
  group_records_.in(scope_).record(static_cast<std::int64_t>(batch_records));
  group_bytes_.in(scope_).record(static_cast<std::int64_t>(batch_bytes));
  // Callbacks run after the bookkeeping: one may append again (and the
  // next flush must see a consistent pipeline).
  for (CommitFn& cb : callbacks) cb();
  schedule_flush();
}

// ----------------------------------------------------------------- trim

void Device::trim(StreamId stream, std::uint64_t acked_watermark) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  StreamState& st = it->second;
  // Furthest acknowledged burst boundary; drop the whole prefix up to it
  // (never leaving a torn burst at the stream head).
  std::size_t drop = 0;
  for (std::size_t i = 0; i < st.records.size(); ++i) {
    if (st.records[i].watermark > acked_watermark) break;
    if (st.records[i].boundary) drop = i + 1;
  }
  if (drop == 0) return;
  for (std::size_t i = 0; i < drop; ++i) {
    LiveRecord& record = st.records.front();
    st.bytes -= record.bytes;
    st.trim_cursor = std::max(st.trim_cursor, record.watermark);
    segment_release(record.segment_id);
    dead_bytes_ += frame_size(record.bytes);
    st.records.pop_front();
  }
  maybe_auto_checkpoint();
  update_gauges();
}

void Device::segment_release(std::uint32_t segment_id) {
  for (SegmentState& seg : segments_) {
    if (seg.segment.id() == segment_id) {
      if (seg.live > 0) --seg.live;
      return;
    }
  }
}

// ----------------------------------------------------------- checkpoint

Checkpoint Device::horizon() const {
  Checkpoint cp;
  for (const auto& [id, st] : streams_) {
    if (st.trim_cursor > 0) cp.cursors[id] = st.trim_cursor;
  }
  for (const auto& [id, last_seq] : dropped_streams_) {
    (void)last_seq;
    cp.dropped.insert(id);
  }
  return cp;
}

void Device::checkpoint() {
  const Bytes payload = encode_checkpoint(horizon());
  SegmentState& seg = active_segment(payload.size());
  const std::uint64_t seq = next_seq_++;
  const std::size_t frame = seg.segment.append(
      kMetaStream, seq, 0, kCheckpoint,
      std::span<const std::uint8_t>(payload));
  note_append(seg, seq);
  // Only the latest checkpoint is live; the one it supersedes becomes
  // dead weight in its segment.
  if (has_checkpoint_segment_) segment_release(checkpoint_segment_);
  has_checkpoint_segment_ = true;
  checkpoint_segment_ = seg.segment.id();
  stage_commit(seq, frame, {});
  ++checkpoints_;
  scope_.counter("checkpoints").add();
  dead_bytes_ = 0;
  reclaim_segments();
  update_gauges();
}

void Device::maybe_auto_checkpoint() {
  if (config_.checkpoint_dead_bytes > 0 &&
      dead_bytes_ >= config_.checkpoint_dead_bytes) {
    checkpoint();
  }
}

void Device::reclaim_segments() {
  // Space reclaim is segment-granular and front-only (the log is a
  // queue): drop whole dead segments, never carve bytes out of one.
  while (segments_.size() > 1 && segments_.front().live == 0) {
    segments_.pop_front();
    scope_.counter("segments_reclaimed").add();
  }
  // Streams dropped long ago whose records cannot survive in any
  // remaining segment no longer need a tombstone in the horizon.
  if (!segments_.empty()) {
    const std::uint64_t floor_seq = segments_.front().min_seq;
    for (auto it = dropped_streams_.begin(); it != dropped_streams_.end();) {
      it = it->second < floor_seq ? dropped_streams_.erase(it) : std::next(it);
    }
  }
}

// ------------------------------------------------------------ accessors

std::vector<BufChain> Device::stream_records(StreamId stream) const {
  std::vector<BufChain> out;
  auto it = streams_.find(stream);
  if (it == streams_.end()) return out;
  out.reserve(it->second.records.size());
  for (const LiveRecord& record : it->second.records) {
    out.push_back(record.payload);
  }
  return out;
}

std::size_t Device::stream_entries(StreamId stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.records.size();
}

std::size_t Device::stream_bytes(StreamId stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.bytes;
}

std::size_t Device::stream_torn_tail_bytes(StreamId stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.torn_tail_bytes;
}

std::size_t Device::live_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, st] : streams_) total += st.bytes;
  return total;
}

std::size_t Device::device_bytes() const {
  std::size_t total = 0;
  for (const SegmentState& seg : segments_) total += seg.segment.size();
  return total;
}

void Device::update_gauges() {
  device_bytes_gauge_.in(scope_).set(
      static_cast<std::int64_t>(device_bytes()));
  segments_gauge_.in(scope_).set(static_cast<std::int64_t>(segments_.size()));
}

// -------------------------------------------------------- crash/recover

Device::Image Device::export_image() const {
  Image image;
  image.segments.reserve(segments_.size());
  for (const SegmentState& seg : segments_) {
    auto bytes = seg.segment.bytes();
    image.segments.emplace_back(bytes.begin(), bytes.end());
  }
  return image;
}

void Device::crash() {
  ++epoch_;  // in-flight NVRAM writes die with the power
  flush_token_.cancel();
  flush_in_flight_ = false;
  pending_.clear();
  streams_.clear();
  dropped_streams_.clear();
  for (SegmentState& seg : segments_) {
    seg.live = 0;
    seg.min_seq = UINT64_MAX;
    seg.max_seq = 0;
  }
  has_checkpoint_segment_ = false;
  dead_bytes_ = 0;
  scope_.counter("crashes").add();
}

Device::ReplayStats Device::load(Image image) {
  crash();
  segments_.clear();
  next_segment_id_ = 0;
  for (Bytes& bytes : image.segments) {
    segments_.push_back(
        SegmentState{Segment(next_segment_id_++, std::move(bytes)), 0});
  }
  return recover();
}

Device::ReplayStats Device::recover() {
  ReplayStats stats;
  // Idempotent: reset every piece of volatile state up front, so recover()
  // can run more than once over the same NVRAM (a standby exports the dead
  // box's journal, then the box itself restarts and replays it again).
  flush_token_.cancel();
  flush_in_flight_ = false;
  pending_.clear();
  for (SegmentState& seg : segments_) {
    seg.live = 0;
    seg.min_seq = UINT64_MAX;
    seg.max_seq = 0;
  }
  has_checkpoint_segment_ = false;
  dead_bytes_ = 0;
  // Pass 1: walk the segments in log order, collecting the valid record
  // prefix. The first invalid frame — torn write, bit flip, truncated
  // image — ends the log: everything after it is discarded (prefix
  // semantics), and the torn segment is truncated so appends continue
  // from the last valid frame.
  struct Scanned {
    std::size_t segment_index;
    RecordView view;
  };
  std::vector<Scanned> valid;
  std::size_t end = segments_.size();
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    ScanResult scan = segments_[i].segment.scan();
    for (const RecordView& view : scan.records) {
      valid.push_back(Scanned{i, view});
    }
    if (scan.torn) {
      ++stats.torn;
      segments_[i].segment.truncate(scan.valid_bytes);
      end = i + 1;
      break;
    }
    if (scan.valid_bytes < segments_[i].segment.size()) {
      // Clean end mid-segment: nothing after it can be log data.
      segments_[i].segment.truncate(scan.valid_bytes);
      end = i + 1;
      break;
    }
  }
  while (segments_.size() > end) segments_.pop_back();

  // Pass 2: the latest checkpoint in the prefix is the durable horizon.
  Checkpoint horizon;
  std::uint64_t horizon_seq = 0;
  for (const Scanned& rec : valid) {
    if (rec.view.stream == kMetaStream && rec.view.checkpoint()) {
      horizon = decode_checkpoint(rec.view.payload);
      horizon_seq = rec.view.seq;
    }
  }

  // Pass 3: rebuild the stream index from the surviving records.
  streams_.clear();
  dropped_streams_.clear();
  std::uint64_t max_seq = 0;
  StreamId max_stream = 0;
  for (const Scanned& rec : valid) {
    const RecordView& view = rec.view;
    max_seq = std::max(max_seq, view.seq);
    SegmentState& seg = segments_[rec.segment_index];
    if (view.stream == kMetaStream) {
      if (view.checkpoint() && view.seq == horizon_seq) {
        // Only the latest checkpoint stays live in its segment.
        note_append(seg, view.seq);
        has_checkpoint_segment_ = true;
        checkpoint_segment_ = seg.segment.id();
      }
      continue;
    }
    max_stream = std::max(max_stream, view.stream);
    if (horizon.covers(view.stream, view.watermark)) {
      ++stats.skipped;
      continue;
    }
    StreamState& st = streams_[view.stream];
    st.records.push_back(LiveRecord{
        view.seq, view.watermark, view.boundary(), seg.segment.id(),
        view.payload.size(), BufChain{Buf::copy(view.payload)}});
    st.bytes += view.payload.size();
    st.torn_tail_bytes =
        view.boundary() ? 0 : st.torn_tail_bytes + view.payload.size();
    st.last_seq = view.seq;
    auto cursor = horizon.cursors.find(view.stream);
    if (cursor != horizon.cursors.end()) st.trim_cursor = cursor->second;
    note_append(seg, view.seq);
    ++stats.recovered;
  }
  for (StreamId id : horizon.dropped) {
    // Tombstones persist until no surviving segment can hold the
    // stream's records; conservatively pin them to the newest seq.
    dropped_streams_[id] = max_seq;
    max_stream = std::max(max_stream, id);
  }
  for (const auto& [id, cursor] : horizon.cursors) {
    (void)cursor;
    max_stream = std::max(max_stream, id);
  }

  next_seq_ = std::max(next_seq_, max_seq + 1);
  next_stream_ = std::max(next_stream_, max_stream + 1);
  // Everything that survived in NVRAM is durable by definition.
  committed_seq_ = next_seq_ - 1;
  reclaim_segments();

  scope_.counter("replays").add();
  scope_.counter("replay_records_recovered").add(stats.recovered);
  scope_.counter("replay_records_skipped").add(stats.skipped);
  scope_.counter("replay_torn_records").add(stats.torn);
  update_gauges();
  return stats;
}

}  // namespace storm::journal
