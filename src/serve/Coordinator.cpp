//===- serve/Coordinator.cpp - Sharded request routing ----------------------===//

#include "serve/Coordinator.h"

#include "support/Budget.h"
#include "support/StrUtil.h"

#include <algorithm>

using namespace gdp;
using namespace gdp::serve;
using support::Diag;
using support::errorDiag;
using support::StatusCode;

uint64_t gdp::serve::routeHash(const std::string &Key) {
  uint64_t H = 14695981039346656037ULL;
  for (char C : Key) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

CoordinatorBackend::CoordinatorBackend(std::vector<support::SockAddr> Addrs,
                                       CoordinatorOptions O)
    : Opt(O), Epoch(std::chrono::steady_clock::now()) {
  for (auto &A : Addrs) {
    auto S = std::make_unique<Shard>(Opt.Breaker);
    S->Addr = A;
    S->C.setTimeoutMs(Opt.TimeoutMs);
    Shards.push_back(std::move(S));
  }
  if (Opt.Replicas < 1)
    Opt.Replicas = 1;
  if (Opt.Replicas > Shards.size())
    Opt.Replicas = static_cast<unsigned>(Shards.size());
  if (Opt.Retry.MaxRounds < 1)
    Opt.Retry.MaxRounds = 1;
  if (Opt.HealthCheckMs > 0)
    Health = std::thread([this] { healthLoop(); });
}

CoordinatorBackend::CoordinatorBackend(std::vector<support::SockAddr> Addrs,
                                       int TimeoutMs)
    : CoordinatorBackend(std::move(Addrs), [&] {
        CoordinatorOptions O;
        O.TimeoutMs = TimeoutMs;
        return O;
      }()) {}

CoordinatorBackend::~CoordinatorBackend() {
  {
    std::lock_guard<std::mutex> Lock(HealthMu);
    StopHealth = true;
  }
  HealthCv.notify_all();
  if (Health.joinable())
    Health.join();
}

double CoordinatorBackend::nowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

std::vector<size_t>
CoordinatorBackend::replicasFor(const std::string &Key) const {
  size_t S = Shards.size();
  size_t N = std::min<size_t>(Opt.Replicas, S);
  std::vector<size_t> Chain;
  Chain.reserve(N);
  size_t Head = shardFor(Key);
  for (size_t K = 0; K != N; ++K)
    Chain.push_back((Head + K) % S);
  return Chain;
}

void CoordinatorBackend::noteTransition(CircuitBreaker::Transition T) {
  using Tr = CircuitBreaker::Transition;
  if (T == Tr::None)
    return;
  Reg.addCounter(T == Tr::Opened ? "serve.breaker.open"
                                 : "serve.breaker.close",
                 1);
}

template <class Fn>
bool CoordinatorBackend::withShard(size_t I, std::vector<Diag> *Diags,
                                   Fn &&F) {
  Shard &S = *Shards[I];
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (!S.C.connected() && !S.C.connect(S.Addr, Opt.TimeoutMs, Diags))
    return false;
  if (F(S.C))
    return true;
  // One reconnect: the shard may have restarted or idled the connection
  // out since the last request routed here.
  if (Diags)
    Diags->clear();
  if (!S.C.connect(S.Addr, Opt.TimeoutMs, Diags))
    return false;
  return F(S.C);
}

bool CoordinatorBackend::attemptShard(size_t I, const PartitionRequest &Req,
                                      PartitionOutcome &Out,
                                      bool &GotResponse,
                                      std::vector<Diag> *Diags) {
  Shard &S = *Shards[I];
  Status St = Status::Unavailable;
  bool Transport = false;
  std::string Body;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!S.C.connected() && !S.C.connect(S.Addr, Opt.TimeoutMs, Diags)) {
      Transport = true;
    } else {
      St = S.C.partition(Req, Body, Diags);
      // Client::partition reports a transport failure as InternalError
      // with the connection closed; a genuine InternalError *response*
      // leaves it open. Both retry, but only a real response counts as
      // one (the final answer propagates the last response we saw).
      Transport = St == Status::InternalError && !S.C.connected();
    }
    if (Transport || retryableStatus(St))
      S.C.close(); // Flaky or poisoned: the next attempt reconnects fresh.
  }
  if (!Transport) {
    GotResponse = true;
    Out.S = St;
    Out.Body = std::move(Body);
  }
  if (!Transport && !retryableStatus(St)) {
    noteTransition(S.Breaker.onSuccess());
    return true;
  }
  noteTransition(S.Breaker.onFailure(nowMs()));
  Reg.addCounter(Transport ? "serve.retry.transport_errors"
                           : "serve.retry.status_errors",
                 1);
  return false;
}

PartitionOutcome CoordinatorBackend::partition(const PartitionRequest &Req,
                                               support::CancelToken *Drain) {
  const std::string Key = Req.key();
  const std::vector<size_t> Chain = replicasFor(Key);
  BackoffSchedule Back(Opt.Retry, routeHash(Key));

  // Budget-aware retrying: the request's own deadline bounds the whole
  // attempt sequence, and a server drain cancels it between attempts.
  support::Budget Bud;
  Bud.WallMsLimit = static_cast<double>(Req.DeadlineMs);
  Bud.Cancel = Drain;
  support::BudgetMeter Meter(Bud);
  auto Start = std::chrono::steady_clock::now();

  PartitionOutcome Out;
  Out.S = Status::Unavailable;
  std::vector<Diag> Diags;
  bool First = true, GotResponse = false, GiveUp = false;
  for (unsigned Round = 0; Round != Opt.Retry.MaxRounds && !GiveUp;
       ++Round) {
    for (size_t Pos = 0; Pos != Chain.size(); ++Pos) {
      size_t I = Chain[Pos];
      auto Dec = Shards[I]->Breaker.allow(nowMs());
      if (Dec == CircuitBreaker::Decision::Reject) {
        Reg.addCounter("serve.breaker.rejected", 1);
        continue;
      }
      if (Dec == CircuitBreaker::Decision::Probe)
        Reg.addCounter("serve.breaker.half_open", 1);
      if (!First)
        Reg.addCounter("serve.retry.attempts", 1);
      First = false;
      if (attemptShard(I, Req, Out, GotResponse, &Diags)) {
        if (Pos != 0) {
          Reg.addCounter("serve.failover.total", 1);
          Reg.recordValue(
              "serve.failover.latency_ms",
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count());
        }
        return Out;
      }
      if (Meter.remainingMs() <= 0) {
        GiveUp = true;
        break;
      }
    }
    if (GiveUp || Round + 1 == Opt.Retry.MaxRounds)
      break;
    // Exponential backoff with deterministic jitter — but never a sleep
    // the deadline cannot absorb; failing fast beats answering late.
    double Delay = Back.delayMs(Round);
    if (Delay >= Meter.remainingMs())
      break;
    Reg.addCounter("serve.retry.backoff.count", 1);
    Reg.recordValue("serve.retry.backoff_ms", Delay);
    auto Until = std::chrono::steady_clock::now() +
                 std::chrono::duration<double, std::milli>(Delay);
    // Sleep in short ticks so a drain cancellation is honored promptly.
    while (std::chrono::steady_clock::now() < Until) {
      if (Drain && Drain->cancelled()) {
        GiveUp = true;
        break;
      }
      auto Left = Until - std::chrono::steady_clock::now();
      auto Chunk = std::chrono::steady_clock::duration(
          std::chrono::milliseconds(20));
      std::this_thread::sleep_for(Left < Chunk ? Left : Chunk);
    }
  }

  if (GotResponse && Out.S != Status::Unavailable)
    return Out; // Propagate the shard's own last word (e.g. Overloaded).

  Diags.push_back(errorDiag(StatusCode::Internal, "coord.route",
                            "no replica available")
                      .with("shard", static_cast<uint64_t>(shardFor(Key)))
                      .with("addr", Shards[shardFor(Key)]->Addr.str())
                      .with("replicas",
                            static_cast<uint64_t>(Chain.size())));
  Out.S = Status::Unavailable;
  Out.Body = diagsBody(Diags);
  Reg.addCounter("serve.route.unavailable", 1);
  return Out;
}

bool CoordinatorBackend::collectStats(telemetry::StatsRegistry &Into,
                                      std::vector<Diag> &Diags) {
  bool AllReached = true;
  for (size_t I = 0; I != Shards.size(); ++I) {
    std::string Blob;
    bool Reached = withShard(I, &Diags, [&](Client &C) {
      return C.stats(StatsFormat::Binary, Blob, &Diags) == Status::Ok;
    });
    Diag D;
    if (!Reached || !decodeRegistryInto(Blob, Into, D)) {
      if (!Reached)
        Diags.push_back(errorDiag(StatusCode::Internal, "coord.stats",
                                  "shard stats unavailable")
                            .with("shard", static_cast<uint64_t>(I))
                            .with("addr", Shards[I]->Addr.str()));
      else
        Diags.push_back(std::move(D));
      AllReached = false;
      continue;
    }
    Into.addCounter(formatStr("coord.shard.%llu.reports",
                              static_cast<unsigned long long>(I)),
                    1);
  }
  // The coordinator's own serving stats (retry/failover/breaker) plus the
  // live breaker state per shard (0 closed, 1 open, 2 half-open).
  Into.mergeFrom(Reg);
  for (size_t I = 0; I != Shards.size(); ++I)
    Into.addCounter(formatStr("serve.breaker.state.%llu",
                              static_cast<unsigned long long>(I)),
                    static_cast<uint64_t>(breakerState(I)));
  return AllReached;
}

void CoordinatorBackend::forwardShutdown() {
  for (size_t I = 0; I != Shards.size(); ++I)
    withShard(I, nullptr, [](Client &C) { return C.shutdownServer(); });
}

void CoordinatorBackend::healthLoop() {
  std::unique_lock<std::mutex> Lock(HealthMu);
  while (!StopHealth) {
    HealthCv.wait_for(Lock, std::chrono::milliseconds(Opt.HealthCheckMs),
                      [&] { return StopHealth; });
    if (StopHealth)
      break;
    Lock.unlock();
    for (size_t I = 0; I != Shards.size(); ++I) {
      Shard &S = *Shards[I];
      // Only unhealthy shards get pinged: a closed breaker means request
      // traffic already proves liveness, and probing it would add load.
      if (S.Breaker.state() == CircuitBreaker::State::Closed)
        continue;
      if (S.Breaker.allow(nowMs()) != CircuitBreaker::Decision::Probe)
        continue;
      Reg.addCounter("serve.breaker.half_open", 1);
      bool Ok;
      {
        std::lock_guard<std::mutex> SLock(S.Mu);
        std::string Info;
        int ProbeTimeoutMs =
            std::min(Opt.TimeoutMs, std::max(Opt.HealthCheckMs, 100));
        Ok = S.C.connect(S.Addr, ProbeTimeoutMs, nullptr) &&
             S.C.ping(Info, nullptr);
        if (!Ok)
          S.C.close();
      }
      Reg.addCounter(Ok ? "serve.breaker.probe.ok"
                        : "serve.breaker.probe.fail",
                     1);
      noteTransition(Ok ? S.Breaker.onSuccess()
                        : S.Breaker.onFailure(nowMs()));
    }
    Lock.lock();
  }
}
