#include "core/active_relay.hpp"

#include <sstream>

#include "common/log.hpp"
#include "net/node.hpp"

namespace storm::core {

// ------------------------------------------------------------- ActiveRelay

ActiveRelay::ActiveRelay(cloud::Vm& mb_vm, net::SocketAddr upstream,
                         std::vector<StorageService*> services,
                         std::string volume, ActiveRelayCosts costs,
                         RelayFlowControl flow, journal::Config journal_config)
    : vm_(mb_vm), upstream_(upstream), services_(std::move(services)),
      volume_(std::move(volume)), costs_(costs), flow_(flow),
      scope_(telemetry().scope("relay." + vm_.name() + ".")),
      hop_(vm_.name()),
      journal_dev_(mb_vm.node().executor(),
                   telemetry().scope("relay." + vm_.name() + ".journal."),
                   journal_config) {
  // A resume threshold above the pause threshold could never be crossed
  // downward while paused — clamp rather than deadlock.
  flow_.low_watermark = std::min(flow_.low_watermark, flow_.high_watermark);
  for (StorageService* service : services_) {
    if (service != nullptr) {
      service->bind_host(
          ServiceHost{vm_.node().executor(), scope_, &journal_dev_});
    }
  }
}

obs::Registry& ActiveRelay::telemetry() {
  return vm_.node().executor().telemetry();
}

void ActiveRelay::start() {
  vm_.node().tcp().listen(iscsi::kIscsiPort, [this](net::TcpConnection& conn) {
    on_accept(conn);
  });
}

void ActiveRelay::on_accept(net::TcpConnection& conn) {
  // A reconnecting initiator re-uses its pinned source port (it must, or
  // the conntrack-steered path would break). If a session with that port
  // lost its downstream to a crash, adopt the new connection into it so
  // the journal and the already re-dialed upstream are reused instead of
  // creating a duplicate session.
  for (auto& existing : sessions_) {
    if (existing->bind_port == conn.remote().port &&
        existing->downstream == nullptr) {
      // Like the receive-window credit below, journaled responses are
      // owed to the previous downstream incarnation and void with it:
      // the new connection's ack count starts at zero, so records
      // watermarked for the old one could never trim, and the initiator
      // re-issues anything it never saw answered.
      reset_direction(existing->to_initiator);
      bind_downstream(*existing, conn);
      // If the upstream leg is dead too (its loss is what tore the
      // initiator's side down in the first place), resume fully: re-dial
      // and replay the journal. Otherwise the initiator's re-login would
      // pile up in the backlog with nobody ever draining it.
      if (existing->upstream == nullptr) {
        resume_session(*existing);
      }
      return;
    }
  }

  auto session = std::make_unique<Session>();
  Session* raw = session.get();
  session->bind_port = conn.remote().port;
  session->ctx = std::make_unique<SessionContext>(*this, *raw);
  // Both directions multiplex into the relay's shared journal device,
  // each on its own stream.
  session->to_target.journal = journal::Stream(journal_dev_);
  session->to_initiator.journal = journal::Stream(journal_dev_);
  sessions_.push_back(std::move(session));
  scope_.counter("sessions_accepted").add();

  bind_downstream(*raw, conn);
  dial_upstream(*raw);
}

void ActiveRelay::bind_downstream(Session& session,
                                  net::TcpConnection& conn) {
  Session* raw = &session;
  net::TcpConnection* cp = &conn;
  session.downstream = cp;
  // A fresh connection starts with a full receive window: credit owed to
  // a previous incarnation is void.
  session.to_target.uncredited = 0;
  session.to_target.paused = false;
  // Credit-based delivery (before set_on_data, so flushed pending bytes
  // are charged too): received bytes stay counted against the advertised
  // window until update_backpressure() releases them, which is what lets
  // the relay close the window back toward the initiator at the journal
  // high watermark.
  conn.set_credit_based(flow_.high_watermark > 0);
  conn.set_on_data([this, raw](Buf bytes) {
    on_stream_data(*raw, Direction::kToTarget, std::move(bytes));
  });
  conn.set_on_ack([this, raw, cp] {
    raw->to_initiator.journal.trim(cp->bytes_acked());
    update_journal_gauge();
    update_backpressure(*raw, Direction::kToInitiator);
  });
  conn.set_on_closed([this, raw, cp](Status status) {
    if (raw->downstream == cp) raw->downstream = nullptr;
    if (raw->failed) return;  // induced teardown: recovery handles it
    for (StorageService* service : services_) service->on_flow_closed(status);
    if (raw->upstream != nullptr) raw->upstream->abort();
  });
}

void ActiveRelay::dial_upstream(Session& session) {
  // The pseudo-client binds the flow's original source port so SDN
  // steering and later capture rules keep matching (paper Fig. 3 shows
  // vm1_port preserved along the whole chain).
  session.upstream = &vm_.node().tcp().connect(
      upstream_,
      [this, &session] {
        session.upstream_ready = true;
        if (!session.upstream_backlog.empty()) {
          BufChain backlog;
          backlog.swap(session.upstream_backlog);
          session.upstream->send(std::move(backlog));
        }
      },
      session.bind_port);
  session.to_initiator.uncredited = 0;
  session.to_initiator.paused = false;
  session.upstream->set_credit_based(flow_.high_watermark > 0);
  session.upstream->set_on_data([this, &session](Buf bytes) {
    on_stream_data(session, Direction::kToInitiator, std::move(bytes));
  });
  session.upstream->set_on_ack([this, &session] {
    session.to_target.journal.trim(session.upstream->bytes_acked());
    update_journal_gauge();
    update_backpressure(session, Direction::kToTarget);
  });
  session.upstream->set_on_closed([this, &session](Status status) {
    session.upstream_ready = false;
    session.upstream = nullptr;  // object is gone; adoption checks this
    if (!session.failed) {
      // Unplanned upstream loss: surface to services and drop the tenant
      // side as well (the initiator re-attaches; journal preserved).
      telemetry().record_event("relay " + vm_.name() +
                               ": unplanned upstream loss (" +
                               status.to_string() + ")");
      for (StorageService* service : services_) {
        service->on_flow_closed(status);
      }
      if (session.downstream != nullptr) session.downstream->abort();
    }
  });
}

void ActiveRelay::on_stream_data(Session& session, Direction dir,
                                 Buf bytes) {
  DirectionState& st = state(session, dir);
  if (flow_.high_watermark > 0) st.uncredited += bytes.size();
  std::vector<iscsi::Pdu> pdus;
  Status status = st.parser.feed(std::move(bytes), pdus);
  if (!status.is_ok()) {
    log_warn("active-relay") << vm_.name()
                             << ": parse error: " << status.to_string();
    telemetry().record_event("relay " + vm_.name() +
                             ": parse error: " + status.to_string());
    session.downstream->abort();
    if (session.upstream != nullptr) session.upstream->abort();
    return;
  }
  // Journal trim: everything the next hop acknowledged can be dropped.
  if (session.upstream != nullptr) {
    session.to_target.journal.trim(session.upstream->bytes_acked());
  }
  if (session.downstream != nullptr) {
    session.to_initiator.journal.trim(session.downstream->bytes_acked());
  }
  update_journal_gauge();
  const sim::Time now = vm_.node().executor().now();
  for (auto& pdu : pdus) {
    trace_relay_pdu(telemetry(), session.trace_session, hop_, dir, pdu,
                    st.queue.size());
    const std::size_t wire = iscsi::serialized_size(pdu);
    st.queue_bytes += wire;
    st.queue.push_back(QueuedPdu{now, wire, std::move(pdu)});
  }
  update_backpressure(session, dir);
  pump_queue(session, dir);
}

void ActiveRelay::update_journal_gauge() {
  journal_bytes_gauge_.in(scope_).set(
      static_cast<std::int64_t>(journal_bytes()));
}

// Re-evaluate one direction's ingress credit after any change to its
// journal or queue. Crossing the high watermark withholds credit (the
// ingress window closes as the uncredited bytes accumulate); draining
// below the low watermark releases everything withheld in one update,
// reopening the window. Below the watermark the credit is returned
// immediately, so early-ACK latency is untouched in the common case.
//
// The load deliberately excludes the journal's torn tail (the trailing
// incomplete burst): those bytes only drain once the burst's remaining
// PDUs arrive, and closing the window over them would make the pause
// permanent — the burst can neither complete (window shut) nor trim
// (burst-atomic journal). Counting complete bursts only means an open
// burst is always allowed to finish, bounding a direction's buffering at
// high_watermark + largest-burst + ingress TCP window (+ parse slop)
// instead of deadlocking.
void ActiveRelay::update_backpressure(Session& session, Direction dir) {
  DirectionState& st = state(session, dir);
  net::TcpConnection* ingress =
      dir == Direction::kToTarget ? session.downstream : session.upstream;
  if (flow_.high_watermark > 0) {
    const std::size_t load = st.journal.complete_bytes() + st.queue_bytes;
    if (!st.paused && load >= flow_.high_watermark) {
      st.paused = true;
      bp_pauses_.in(scope_).add();
      telemetry().record_event(
          "relay " + vm_.name() + ": backpressure pause (" +
          std::to_string(load) + " bytes buffered)");
    } else if (st.paused && load <= flow_.low_watermark) {
      st.paused = false;
      bp_resumes_.in(scope_).add();
    }
    if (!st.paused && ingress != nullptr && st.uncredited > 0) {
      const std::size_t credit = st.uncredited;
      st.uncredited = 0;
      ingress->consume(credit);
    }
  }
  std::size_t queued = 0;
  for (const auto& s : sessions_) {
    queued += s->to_target.queue_bytes + s->to_initiator.queue_bytes;
  }
  const std::size_t buffered = queued + journal_bytes();
  if (buffered > peak_buffered_) {
    peak_buffered_ = buffered;
    buffered_peak_gauge_.in(scope_).set(static_cast<std::int64_t>(buffered));
  }
  queue_bytes_gauge_.in(scope_).set(static_cast<std::int64_t>(queued));
}

void ActiveRelay::pump_queue(Session& session, Direction dir) {
  DirectionState& st = state(session, dir);
  if (st.processing || st.queue.empty()) return;
  st.processing = true;
  QueuedPdu entry = std::move(st.queue.front());
  st.queue.pop_front();
  st.queue_bytes -= std::min(entry.bytes, st.queue_bytes);
  iscsi::Pdu pdu = std::move(entry.pdu);
  const sim::Time enqueued = entry.enqueued;

  // Relay cost: parse/dispatch plus batched copy, then service costs —
  // all charged to the middle-box vCPUs. The source's TCP was already
  // ACKed on receipt, so none of this stalls the sender.
  sim::Duration cost =
      costs_.per_pdu +
      static_cast<sim::Duration>(costs_.ns_per_byte *
                                 static_cast<double>(pdu.data.size()));
  // One user/kernel crossing in, one out: the payload is copied twice
  // through the relay (socket -> user parse buffer -> socket).
  copied_bytes_.in(scope_).add(2 * pdu.data.size());

  const std::uint64_t epoch = session.epoch;
  auto continue_processing = [this, &session, dir, epoch, enqueued,
                              pdu = std::move(pdu)]() mutable {
    // A crash/resume reset the session while this was queued on the CPU:
    // the PDU belongs to the dead incarnation (the journal already holds
    // everything that must survive). Drop it.
    if (session.epoch != epoch) return;
    if (pdu.opcode == iscsi::Opcode::kLoginRequest) {
      session.set_login(pdu);
    }
    bool consume = false;
    sim::Duration service_cost = 0;
    if (dir == Direction::kToTarget) {
      for (StorageService* service : services_) {
        ServiceVerdict verdict = service->on_pdu(*session.ctx, dir, pdu);
        service_cost += verdict.cpu_cost;
        if (verdict.consume) {
          consume = true;
          break;
        }
      }
    } else {
      for (auto it = services_.rbegin(); it != services_.rend(); ++it) {
        ServiceVerdict verdict = (*it)->on_pdu(*session.ctx, dir, pdu);
        service_cost += verdict.cpu_cost;
        if (verdict.consume) {
          consume = true;
          break;
        }
      }
    }
    auto finish = [this, &session, dir, consume, epoch, enqueued,
                   pdu = std::move(pdu)]() mutable {
      if (session.epoch != epoch) return;
      if (!consume) {
        forward(session, dir, pdu);
        ++pdus_relayed_;
        pdus_relayed_counter_.in(scope_).add();
      } else {
        pdus_consumed_.in(scope_).add();
      }
      pdu_ns_.in(scope_).record(static_cast<std::int64_t>(
          vm_.node().executor().now() - enqueued));
      DirectionState& st3 = state(session, dir);
      st3.processing = false;
      // The PDU moved from the queue into the journal (or was consumed):
      // re-evaluate crediting with the new journal + queue load.
      update_backpressure(session, dir);
      pump_queue(session, dir);
    };
    if (service_cost > 0) {
      vm_.cpu().run(service_cost, std::move(finish));
    } else {
      finish();
    }
  };
  vm_.cpu().run(cost, std::move(continue_processing));
}

void ActiveRelay::forward(Session& session, Direction dir,
                          const iscsi::Pdu& pdu) {
  // Serialize once; the journal's live index and the TCP send queue share
  // the chunks by reference (the payload chunk still references the
  // received PDU's storage). The journal device additionally stores the
  // frame into its NVRAM segment — that store is the persistence image
  // replay recovers from, accounted on the journal's own byte counters,
  // not a data-path copy.
  BufChain wire = iscsi::serialize_chunks(pdu);
  DirectionState& st = state(session, dir);
  st.enqueued_bytes += chain_size(wire);
  // A PDU without the final flag is mid-burst (a write command whose
  // Data-Out tail follows): not a safe replay point.
  st.journal.append(wire, st.enqueued_bytes, pdu.is_final());
  update_journal_gauge();
  if (dir == Direction::kToTarget) {
    send_upstream(session, wire);
  } else {
    send_downstream(session, wire);
  }
}

void ActiveRelay::send_upstream(Session& session, const BufChain& wire) {
  if (!session.upstream_ready) {
    session.upstream_backlog.insert(session.upstream_backlog.end(),
                                    wire.begin(), wire.end());
    return;
  }
  session.upstream->send(wire);
}

void ActiveRelay::send_downstream(Session& session, const BufChain& wire) {
  if (session.downstream != nullptr) session.downstream->send(wire);
}

void ActiveRelay::SessionContext::inject_to_target(iscsi::Pdu pdu) {
  relay_.scope_.counter("pdus_injected").add();
  relay_.forward(session_, Direction::kToTarget, pdu);
}

void ActiveRelay::SessionContext::inject_to_initiator(iscsi::Pdu pdu) {
  relay_.scope_.counter("pdus_injected").add();
  relay_.forward(session_, Direction::kToInitiator, pdu);
}

sim::Simulator& ActiveRelay::SessionContext::simulator() {
  return relay_.vm_.node().simulator();
}

void ActiveRelay::fail_upstream() {
  for (auto& session : sessions_) {
    if (session->upstream != nullptr) {
      session->failed = true;
      session->upstream->abort();
      session->upstream_ready = false;
    }
  }
}

void ActiveRelay::recover_upstream() {
  for (auto& session : sessions_) {
    if (!session->failed) continue;
    resume_session(*session);
  }
}

void ActiveRelay::reset_direction(DirectionState& st) {
  journal::Stream stream = st.journal;
  st = DirectionState{};
  // Drop the dead incarnation's records from the device index and carry
  // on under a fresh stream id, still bound to the same device.
  stream.reset();
  st.journal = stream;
}

void ActiveRelay::resume_session(Session& session) {
  session.failed = false;
  ++session.epoch;  // invalidate CPU work queued before the reset
  // Collect unacknowledged PDUs before resetting the counters. The
  // backlog is stale (those bytes are all in the journal).
  std::vector<BufChain> replay = session.to_target.journal.unacknowledged();
  reset_direction(session.to_target);
  reset_direction(session.to_initiator);
  session.upstream_backlog.clear();
  session.upstream_ready = false;
  ++journal_replays_;
  scope_.counter("journal_replays").add();
  telemetry().record_event("relay " + vm_.name() + ": journal replay (" +
                           std::to_string(replay.size()) + " pdus)");
  dial_upstream(session);
  // Re-login first, then the unacknowledged tail.
  if (session.login_pdu) {
    forward(session, Direction::kToTarget, *session.login_pdu);
  }
  for (const BufChain& wire : replay) {
    session.to_target.enqueued_bytes += chain_size(wire);
    session.to_target.journal.append(wire, session.to_target.enqueued_bytes);
    send_upstream(session, wire);
  }
  update_journal_gauge();
}

void ActiveRelay::crash() {
  if (crashed_) return;
  crashed_ = true;
  vm_.node().set_down(true);
  telemetry().record_event("relay " + vm_.name() + ": CRASH (" +
                           std::to_string(sessions_.size()) + " sessions, " +
                           std::to_string(journal_bytes()) +
                           " journal bytes survive)");
  // Post-mortem aid: dump the recent-event ring so the lead-up to the
  // crash is visible in the log even when no telemetry JSON is written.
  std::ostringstream dump;
  telemetry().recorder().dump(dump);
  log_warn("active-relay") << vm_.name() << ": crashed\n" << dump.str();
  // Null the connection pointers before wiping the stack: the objects are
  // about to be destroyed, and a crashed node fires no close callbacks.
  for (auto& session : sessions_) {
    session->failed = true;
    session->upstream_ready = false;
    session->downstream = nullptr;
    session->upstream = nullptr;
    ++session->epoch;  // invalidate CPU work queued by the dead incarnation
  }
  vm_.node().tcp().reset();
  // Power failure hits the journal device too: the volatile stream index
  // and any in-flight NVRAM write die; only the segment bytes survive.
  journal_dev_.crash();
  // Services lose their volatile state with the VM: background work
  // (e.g. a replication rebuild in flight) must halt until restart.
  for (StorageService* service : services_) {
    if (service != nullptr) service->on_host_crashed();
  }
}

void ActiveRelay::restart() {
  if (!crashed_) return;
  crashed_ = false;
  vm_.node().set_down(false);
  // Replay the NVRAM segments before anything else: the recovered stream
  // index is what resume_session reads its unacknowledged tail from.
  const journal::Device::ReplayStats stats = journal_dev_.recover();
  telemetry().record_event(
      "relay " + vm_.name() + ": restart (journal replay recovered " +
      std::to_string(stats.recovered) + " records, skipped " +
      std::to_string(stats.skipped) + " below checkpoint, " +
      std::to_string(stats.torn) + " torn)");
  start();  // re-listen for the initiator's reconnection
  for (auto& session : sessions_) {
    if (session->failed) resume_session(*session);
  }
  // The journal index is back: services reload their journaled recovery
  // state (version maps, rebuild cursors) and resume background work.
  for (StorageService* service : services_) {
    if (service != nullptr) service->on_host_recovered();
  }
}

void ActiveRelay::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  vm_.node().tcp().stop_listening(iscsi::kIscsiPort);
  for (auto& session : sessions_) {
    session->failed = true;  // suppress cross-abort close handlers
    net::TcpConnection* down = session->downstream;
    net::TcpConnection* up = session->upstream;
    session->downstream = nullptr;
    session->upstream = nullptr;
    if (down != nullptr) down->abort();
    if (up != nullptr) up->abort();
  }
}

RelayJournalSnapshot ActiveRelay::export_journal() {
  // A crashed relay's volatile index is gone; the standby reads the dead
  // box's NVRAM, so rebuild the index from the segments first. recover()
  // is idempotent, so a later restart() replays the same state again.
  if (crashed_) journal_dev_.recover();
  RelayJournalSnapshot snapshot;
  for (const auto& session : sessions_) {
    RelayJournalSnapshot::SessionImage image;
    image.bind_port = session->bind_port;
    image.login_pdu = session->login_pdu;
    image.to_target_wires = session->to_target.journal.unacknowledged();
    snapshot.sessions.push_back(std::move(image));
  }
  return snapshot;
}

void ActiveRelay::adopt_sessions(RelayJournalSnapshot snapshot) {
  for (auto& image : snapshot.sessions) {
    auto session = std::make_unique<Session>();
    Session* raw = session.get();
    raw->bind_port = image.bind_port;
    raw->ctx = std::make_unique<SessionContext>(*this, *raw);
    if (image.login_pdu) raw->set_login(std::move(*image.login_pdu));
    raw->to_target.journal = journal::Stream(journal_dev_);
    raw->to_initiator.journal = journal::Stream(journal_dev_);
    // Seed the journal with the dead relay's unacknowledged tail; the
    // cumulative watermarks restart from zero because the upstream leg
    // is a brand-new connection.
    std::uint64_t watermark = 0;
    for (BufChain& wire : image.to_target_wires) {
      watermark += chain_size(wire);
      raw->to_target.journal.append(std::move(wire), watermark);
    }
    raw->to_target.enqueued_bytes = watermark;
    sessions_.push_back(std::move(session));
    scope_.counter("sessions_adopted").add();
    telemetry().record_event(
        "relay " + vm_.name() + ": adopted session (port " +
        std::to_string(raw->bind_port) + ", " +
        std::to_string(raw->to_target.journal.bytes()) + " journal bytes)");
    // resume_session re-dials upstream and replays login + journal; the
    // initiator's reconnection binds the downstream leg via on_accept.
    resume_session(*raw);
  }
  update_journal_gauge();
}

ActiveRelay::Session* ActiveRelay::find_session(std::uint16_t bind_port) {
  for (auto& session : sessions_) {
    if (session->bind_port == bind_port) return session.get();
  }
  return nullptr;
}

void ActiveRelay::teardown_session(Session& session) {
  session.failed = true;  // suppress cross-abort close handlers
  ++session.epoch;        // stale CPU callbacks drop themselves
  net::TcpConnection* down = session.downstream;
  net::TcpConnection* up = session.upstream;
  session.downstream = nullptr;
  session.upstream = nullptr;
  if (down != nullptr) down->abort();
  if (up != nullptr) up->abort();
  // Release the session's journal streams from the shared device — a
  // departed flow must not pin NVRAM (or the relay's quiescence) behind
  // the flows that stay.
  reset_direction(session.to_target);
  reset_direction(session.to_initiator);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == &session) {
      sessions_.erase(it);
      break;
    }
  }
  update_journal_gauge();
}

bool ActiveRelay::session_quiescent(std::uint16_t bind_port) const {
  for (const auto& session : sessions_) {
    if (session->bind_port != bind_port) continue;
    return session->to_target.queue.empty() &&
           session->to_initiator.queue.empty() &&
           !session->to_target.processing &&
           !session->to_initiator.processing &&
           session->to_target.journal.bytes() == 0 &&
           session->to_initiator.journal.bytes() == 0 &&
           session->upstream_backlog.empty();
  }
  return true;  // no session for this flow: nothing to drain
}

RelayJournalSnapshot ActiveRelay::extract_session(std::uint16_t bind_port) {
  RelayJournalSnapshot snapshot;
  Session* session = find_session(bind_port);
  if (session == nullptr) return snapshot;
  RelayJournalSnapshot::SessionImage image;
  image.bind_port = session->bind_port;
  image.login_pdu = session->login_pdu;
  image.to_target_wires = session->to_target.journal.unacknowledged();
  snapshot.sessions.push_back(std::move(image));
  scope_.counter("sessions_extracted").add();
  telemetry().record_event("relay " + vm_.name() +
                           ": extracted session (port " +
                           std::to_string(bind_port) + ", " +
                           std::to_string(snapshot.bytes()) +
                           " journal bytes hand off)");
  teardown_session(*session);
  flow_volumes_.erase(bind_port);
  return snapshot;
}

void ActiveRelay::drop_session(std::uint16_t bind_port) {
  Session* session = find_session(bind_port);
  if (session == nullptr) return;
  telemetry().record_event("relay " + vm_.name() + ": dropped session (port " +
                           std::to_string(bind_port) + ")");
  teardown_session(*session);
  flow_volumes_.erase(bind_port);
}

void ActiveRelay::register_volume(std::uint16_t bind_port,
                                  std::string volume) {
  flow_volumes_[bind_port] = std::move(volume);
}

bool ActiveRelay::quiescent() const {
  for (const auto& session : sessions_) {
    if (!session->to_target.queue.empty() ||
        !session->to_initiator.queue.empty() ||
        session->to_target.processing || session->to_initiator.processing ||
        session->to_target.journal.bytes() != 0 ||
        session->to_initiator.journal.bytes() != 0 ||
        !session->upstream_backlog.empty()) {
      return false;
    }
  }
  // The device write pipeline must have drained too — "quiescent" means
  // no journal write is still in flight.
  return journal_dev_.flush_idle();
}

bool ActiveRelay::sessions_established() const {
  for (const auto& session : sessions_) {
    if (session->downstream == nullptr || !session->upstream_ready) {
      return false;
    }
  }
  return true;
}

std::size_t ActiveRelay::journal_bytes() const {
  std::size_t total = 0;
  for (const auto& session : sessions_) {
    total += session->to_target.journal.bytes();
    total += session->to_initiator.journal.bytes();
  }
  return total;
}

std::size_t ActiveRelay::queue_bytes() const {
  std::size_t total = 0;
  for (const auto& session : sessions_) {
    total += session->to_target.queue_bytes;
    total += session->to_initiator.queue_bytes;
  }
  return total;
}

std::size_t ActiveRelay::paused_directions() const {
  std::size_t paused = 0;
  for (const auto& session : sessions_) {
    paused += session->to_target.paused ? 1 : 0;
    paused += session->to_initiator.paused ? 1 : 0;
  }
  return paused;
}

}  // namespace storm::core
