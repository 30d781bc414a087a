#include "workload/minidb.hpp"

#include "common/log.hpp"

namespace storm::workload {

MiniDb::MiniDb(sim::Executor executor, block::BlockDevice& device,
               MiniDbConfig config)
    : sim_(executor), dev_(device), config_(config) {}

void MiniDb::init(std::function<void(Status)> done) {
  sim::spawn(sim::then(format(), std::move(done)));
}

sim::Task<Status> MiniDb::format() {
  // WAL header page + zeroed record area; records are written in large
  // batches to keep formatting fast.
  Bytes wal(block::kSectorSize, 0);
  wal[0] = 'W';
  wal[1] = 'A';
  wal[2] = 'L';
  Status status = co_await block::write(dev_, kWalLba, std::move(wal));
  if (!status.is_ok()) co_return status;
  for (std::uint32_t record = 0; record < config_.records;) {
    // Format in 256-sector batches to keep initialization fast.
    std::uint32_t n = std::min(256u, config_.records - record);
    Bytes batch(static_cast<std::size_t>(n) * block::kSectorSize, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      batch[static_cast<std::size_t>(i) * block::kSectorSize] =
          static_cast<std::uint8_t>((record + i) & 0xFF);
    }
    status = co_await block::write(dev_, record_lba(record), std::move(batch));
    if (!status.is_ok()) co_return status;
    record += n;
  }
  co_return Status::ok();
}

sim::Task<Status> MiniDb::transaction(Rng& rng) {
  // Pick the working set before the first suspension: `rng` belongs to
  // the caller and is not touched after it.
  std::vector<std::uint32_t> reads;
  for (unsigned i = 0; i < config_.reads_per_txn; ++i) {
    reads.push_back(static_cast<std::uint32_t>(rng.below(config_.records)));
  }
  std::vector<std::uint32_t> writes;
  for (unsigned i = 0; i < config_.writes_per_txn; ++i) {
    writes.push_back(static_cast<std::uint32_t>(rng.below(config_.records)));
  }
  const std::uint64_t txn_id = next_txn_id_++;
  // The WAL record and every updated page carry the transaction id.
  auto stamped = [txn_id] {
    Bytes page(block::kSectorSize, 0);
    for (int i = 0; i < 8; ++i) {
      page[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(txn_id >> (8 * i));
    }
    return page;
  };
  // Phase 1: read the record pages.
  for (std::uint32_t record : reads) {
    auto [status, page] = co_await block::read(dev_, record_lba(record), 1);
    if (!status.is_ok()) co_return status;
  }
  // Phase 2: WAL append (one sector describing the transaction).
  Status status = co_await block::write(dev_, kWalLba, stamped());
  if (!status.is_ok()) co_return status;
  // Phase 3: update the data pages.
  for (std::uint32_t record : writes) {
    status = co_await block::write(dev_, record_lba(record), stamped());
    if (!status.is_ok()) co_return status;
  }
  ++committed_;
  co_return Status::ok();
}

void MiniDb::transaction(Rng& rng, std::function<void(Status)> done) {
  sim::spawn(sim::then(transaction(rng), std::move(done)));
}

// ---------------------------------------------------------------- DbServer

DbServer::DbServer(cloud::Vm& vm, MiniDb& db, std::uint16_t port)
    : vm_(vm), db_(db), port_(port) {}

void DbServer::start() {
  vm_.node().tcp().listen(port_, [this](net::TcpConnection& conn) {
    auto session = std::make_shared<Session>();
    conn.set_on_data([this, &conn, session](Buf data) {
      // Each newline is one transaction request.
      for (std::uint8_t byte : data) {
        if (byte == '\n') ++session->pending;
      }
      if (!session->busy) sim::spawn(serve(conn, session));
    });
  });
}

sim::Task<void> DbServer::serve(net::TcpConnection& conn,
                                std::shared_ptr<Session> session) {
  session->busy = true;
  while (session->pending > 0) {
    --session->pending;
    // Small query-parse/plan cost on the DB VM's CPU.
    co_await sim::until<>([this](auto done) {
      vm_.cpu().run(sim::microseconds(30), std::move(done));
    });
    Status status = co_await db_.transaction(rng_);
    ++served_;
    conn.send(to_bytes(status.is_ok() ? "OK\n" : "ERR\n"));
  }
  session->busy = false;
}

// --------------------------------------------------------------- OltpClient

OltpClient::OltpClient(cloud::Vm& vm, net::SocketAddr server,
                       unsigned threads)
    : vm_(vm), server_(server), threads_(threads) {}

void OltpClient::start(sim::Time deadline, std::function<void()> done) {
  deadline_ = deadline;
  done_ = std::move(done);
  running_ = threads_;
  for (unsigned i = 0; i < threads_; ++i) {
    auto& conn = vm_.node().tcp().connect(server_, [] {});
    thread_loop(&conn);
  }
}

void OltpClient::thread_loop(net::TcpConnection* conn) {
  sim::Executor sim = vm_.node().executor();
  if (sim.now() >= deadline_) {
    conn->close();
    if (--running_ == 0 && done_) done_();
    return;
  }
  conn->send(to_bytes("TXN\n"));
  // One outstanding request per thread: wait for the reply line.
  conn->set_on_data([this, conn](Buf reply) {
    sim::Executor sim2 = vm_.node().executor();
    for (std::uint8_t byte : reply) {
      if (byte != '\n') continue;
      std::size_t bucket = static_cast<std::size_t>(
          sim2.now() / sim::seconds(1));
      if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
      ++buckets_[bucket];
      ++total_;
    }
    thread_loop(conn);
  });
}

}  // namespace storm::workload
