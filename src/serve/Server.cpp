//===- serve/Server.cpp - gdpd accept/dispatch loop -------------------------===//

#include "serve/Server.h"

#include "partition/PreparedCache.h"
#include "support/FaultInjector.h"
#include "support/StrUtil.h"

#include <chrono>

using namespace gdp;
using namespace gdp::serve;
using support::Diag;
using support::errorDiag;
using support::Socket;
using support::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

} // namespace

Server::Server(const ServerOptions &Opt, Service &Svc, Backend &B)
    : Opt(Opt), Svc(Svc), B(B),
      Pool(Opt.Threads > 0 ? Opt.Threads - 1 : 0) {}

bool Server::start(std::vector<Diag> &Diags) {
  return Listener.listen(Opt.Listen, Diags);
}

const support::SockAddr &Server::boundAddr() const {
  return Listener.boundAddr();
}

bool Server::sendFrame(Socket &Conn, Verb V, Status S,
                       const std::string &Payload) {
  if (support::faultAt("serve.reply")) {
    // Drop the response on the floor and close the connection: the client
    // sees EOF where a frame was due — exactly what a server crash between
    // executing a request and answering it looks like. The coordinator's
    // retry path must absorb this (the request may have executed!).
    Svc.registry().addCounter("serve.reply_faults", 1);
    Conn.close();
    return false;
  }
  std::string F = encodeFrame(V, S, Payload);
  return Conn.sendAll(F.data(), F.size(), Opt.IoTimeoutMs, nullptr);
}

std::string Server::pingBody() const {
  return formatStr(
      "{\"server\": \"gdpd\", \"role\": \"%s\", \"addr\": \"%s\", "
      "\"threads\": %u, \"max_inflight\": %llu, \"cache_capacity\": %llu, "
      "\"deterministic\": %s}\n",
      B.role(), Listener.boundAddr().str().c_str(), Opt.Threads,
      static_cast<unsigned long long>(Opt.MaxInflight),
      static_cast<unsigned long long>(
          PreparedProgramCache::global().capacity()),
      Svc.options().Deterministic ? "true" : "false");
}

std::string Server::statsBody(StatsFormat Fmt, Status &S) {
  // One merged snapshot: the local service registry plus whatever the
  // backend aggregates (a coordinator pulls each shard here). Gauges that
  // only exist at snapshot time are stamped in as counters.
  telemetry::StatsRegistry Snap;
  Snap.mergeFrom(Svc.registry());
  std::vector<Diag> Diags;
  bool AllSources = B.collectStats(Snap, Diags);
  Snap.addCounter("serve.inflight", Inflight.load(std::memory_order_relaxed));
  Snap.addCounter("serve.cache_capacity",
                  PreparedProgramCache::global().capacity());
  Snap.addCounter("serve.cache_resident",
                  PreparedProgramCache::global().size());
  Snap.addCounter("serve.threads", Opt.Threads);
  Snap.addCounter("serve.max_inflight", Opt.MaxInflight);
  if (!AllSources) {
    S = Status::Unavailable;
    return diagsBody(Diags);
  }
  S = Status::Ok;
  switch (Fmt) {
  case StatsFormat::Json:
    return Snap.toJson();
  case StatsFormat::Prometheus:
    return Snap.toPrometheus();
  case StatsFormat::Binary:
    return encodeRegistry(Snap);
  }
  S = Status::BadRequest;
  return diagsBody({errorDiag(StatusCode::UsageError, "serve.stats",
                              "unknown stats format")});
}

bool Server::handleFrame(Socket &Conn, const Frame &F) {
  auto Start = Clock::now();
  if (support::faultAt("serve.dispatch")) {
    Diag D = support::injectedFaultDiag("serve.dispatch");
    Svc.recordRequest(F.V, Status::InternalError, false, msSince(Start));
    sendFrame(Conn, F.V, Status::InternalError, diagsBody({D}));
    return false;
  }

  switch (F.V) {
  case Verb::Ping: {
    Svc.recordRequest(F.V, Status::Ok, false, msSince(Start));
    return sendFrame(Conn, F.V, Status::Ok, pingBody());
  }
  case Verb::Partition: {
    PartitionRequest Req;
    Diag D;
    if (!PartitionRequest::decode(F.Payload, Req, D)) {
      Svc.recordRequest(F.V, Status::BadRequest, false, msSince(Start));
      sendFrame(Conn, F.V, Status::BadRequest, diagsBody({D}));
      return false;
    }
    if (stopRequested()) {
      // Connections already admitted still answer, but new work on them
      // is turned away once the drain started.
      Svc.recordRequest(F.V, Status::ShuttingDown, false, msSince(Start));
      sendFrame(Conn, F.V, Status::ShuttingDown,
                diagsBody({errorDiag(StatusCode::Cancelled, "serve.admit",
                                     "server is draining")}));
      return false;
    }
    PartitionOutcome R = B.partition(Req, &Drain);
    Svc.recordRequest(F.V, R.S, R.CacheHit, msSince(Start));
    // Request-level failures (bad spec, deadline, …) leave the framing in
    // sync, so the connection stays open for the next request.
    return sendFrame(Conn, F.V, R.S, R.Body);
  }
  case Verb::Stats: {
    StatsFormat Fmt = StatsFormat::Json;
    if (!F.Payload.empty()) {
      uint8_t Raw = static_cast<uint8_t>(F.Payload[0]);
      if (Raw > static_cast<uint8_t>(StatsFormat::Binary)) {
        Svc.recordRequest(F.V, Status::BadRequest, false, msSince(Start));
        sendFrame(Conn, F.V, Status::BadRequest,
                  diagsBody({errorDiag(StatusCode::UsageError, "serve.stats",
                                       "unknown stats format byte")
                                 .with("format",
                                       static_cast<int64_t>(Raw))}));
        return false;
      }
      Fmt = static_cast<StatsFormat>(Raw);
    }
    Status S = Status::Ok;
    std::string Body = statsBody(Fmt, S);
    Svc.recordRequest(F.V, S, false, msSince(Start));
    return sendFrame(Conn, F.V, S, Body);
  }
  case Verb::Shutdown: {
    B.forwardShutdown();
    Svc.recordRequest(F.V, Status::Ok, false, msSince(Start));
    sendFrame(Conn, F.V, Status::Ok, "{\"stopping\": true}\n");
    requestStop();
    return false;
  }
  }
  Svc.recordRequest(F.V, Status::BadRequest, false, msSince(Start));
  sendFrame(Conn, F.V, Status::BadRequest,
            diagsBody({errorDiag(StatusCode::InputError, "serve.frame",
                                 "unknown verb")}));
  return false;
}

void Server::handleConnection(Socket Conn) {
  support::FaultScope Faults(Opt.Faults, "conn");
  FrameReader Reader;
  char Buf[4096];
  // One connection serves sequential requests until EOF, an error frame,
  // or a protocol violation. recvAll is sized by the decoder's wanted()
  // so a blocking read never overshoots into the next frame's bytes.
  bool MidFrame = false; // Bytes of the current frame already arrived.
  for (;;) {
    size_t Want = Reader.wanted();
    if (Want > 0) {
      // Wait for bytes in poll ticks so the drain can reap this
      // connection the moment it is idle *between* frames — a keep-alive
      // client must not stall shutdown for a full I/O timeout. A frame
      // already under way still gets IoTimeoutMs to finish.
      int Ready = 0;
      for (double WaitedMs = 0; WaitedMs < Opt.IoTimeoutMs;
           WaitedMs += 100) {
        if (!MidFrame && stopRequested())
          return;
        Ready = Conn.waitReadable(/*TimeoutMs=*/100);
        if (Ready != 0)
          break;
      }
      if (Ready <= 0)
        return; // I/O timeout or poll error.
      size_t Chunk = Want < sizeof(Buf) ? Want : sizeof(Buf);
      size_t Got = Conn.recvAll(Buf, Chunk, Opt.IoTimeoutMs, nullptr);
      if (Got == 0)
        return; // EOF (clean between frames, mid-frame disconnect inside).
      Reader.feed(Buf, Got);
      if (Got < Chunk)
        return; // recvAll already retried until timeout/EOF: give up so a
                // silent client cannot pin this worker forever.
      MidFrame = true;
    }
    Frame F;
    Diag D;
    int Rc = Reader.next(F, D);
    if (Rc == 0)
      continue;
    MidFrame = false;
    if (Rc < 0) {
      // Malformed stream: answer with the diagnostic, then drop the
      // connection (framing is unrecoverable once poisoned).
      Svc.recordRequest(Verb::Ping, Status::BadRequest, false, 0);
      sendFrame(Conn, Verb::Ping, Status::BadRequest, diagsBody({D}));
      return;
    }
    if (!handleFrame(Conn, F))
      return;
  }
}

int Server::run() {
  support::FaultScope Faults(Opt.Faults, "serve");
  std::vector<std::future<void>> Handlers;
  auto PruneHandlers = [&] {
    size_t Kept = 0;
    for (auto &H : Handlers)
      if (H.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        Handlers[Kept++] = std::move(H);
    Handlers.resize(Kept);
  };

  while (!stopRequested()) {
    bool TimedOut = false;
    Socket Conn = Listener.accept(/*TimeoutMs=*/100, TimedOut);
    if (!Conn.valid()) {
      if (TimedOut)
        PruneHandlers();
      continue;
    }
    if (support::faultAt("serve.accept")) {
      Diag D = support::injectedFaultDiag("serve.accept");
      Svc.registry().addCounter("serve.accept_faults", 1);
      std::string F = encodeFrame(Verb::Ping, Status::InternalError,
                                  diagsBody({D}));
      Conn.sendAll(F.data(), F.size(), /*TimeoutMs=*/1000, nullptr);
      continue;
    }
    if (Inflight.load(std::memory_order_relaxed) >= Opt.MaxInflight) {
      // Admission control: shed instead of queueing. The response frame
      // carries the ping verb because no request was read yet.
      Diag D = errorDiag(StatusCode::BudgetExhausted, "serve.admit",
                         "server at capacity; request shed")
                   .with("max_inflight",
                         static_cast<uint64_t>(Opt.MaxInflight));
      Svc.recordRequest(Verb::Ping, Status::Overloaded, false, 0);
      Svc.registry().addCounter("serve.shed", 1);
      std::string F = encodeFrame(Verb::Ping, Status::Overloaded,
                                  diagsBody({D}));
      Conn.sendAll(F.data(), F.size(), /*TimeoutMs=*/1000, nullptr);
      continue;
    }
    Inflight.fetch_add(1, std::memory_order_relaxed);
    auto Shared = std::make_shared<Socket>(std::move(Conn));
    Handlers.push_back(Pool.submit([this, Shared] {
      handleConnection(std::move(*Shared));
      Inflight.fetch_sub(1, std::memory_order_relaxed);
    }));
    PruneHandlers();
  }
  Listener.close();

  // Drain: give in-flight requests DrainMs to finish, then cancel their
  // evaluation budgets and wait for the wind-down.
  bool Clean = true;
  auto DrainStart = Clock::now();
  for (auto &H : Handlers) {
    double LeftMs = Opt.DrainMs - msSince(DrainStart);
    if (LeftMs < 0)
      LeftMs = 0;
    if (H.wait_for(std::chrono::milliseconds(
            static_cast<int64_t>(LeftMs))) != std::future_status::ready) {
      Clean = false;
      Drain.cancel(); // Stragglers exit at their next budget poll.
      break;
    }
  }
  for (auto &H : Handlers)
    H.wait();
  return Clean ? 0 : 3;
}
