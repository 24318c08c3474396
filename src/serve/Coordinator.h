//===- serve/Coordinator.h - Sharded request routing ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `gdpd --coordinator`: a Backend that owns one persistent client per
/// worker shard and routes each partition request to the shard that owns
/// its key (stable FNV-1a hash of the request key modulo the shard
/// count — the same spec always lands on the same shard, so each shard's
/// prepared-program cache stays hot for its slice of the key space,
/// RSCoordinator-style; see ROADMAP.md).
///
/// **Fault tolerance** (docs/SERVING.md, "Failure semantics"): each hash
/// slot maps to an ordered *replica chain* of `Replicas` shards — the
/// owner plus the next shards around the ring. A request tries the chain
/// in order and fails over on transport-shaped failures (unreachable,
/// dropped reply, Overloaded, ShuttingDown, InternalError); between
/// passes it backs off exponentially with deterministic jitter
/// (serve/Failover.h), never sleeping past the request's deadline.
/// Request-shaped failures (bad spec, EvalFailed, DeadlineExceeded) are
/// final and return immediately. Each shard sits behind a circuit
/// breaker: after `FailureThreshold` consecutive failures the shard is
/// skipped outright until a half-open probe — issued by the first
/// eligible request or the background health prober — succeeds. All of
/// it is surfaced as `serve.retry.*` / `serve.failover.*` /
/// `serve.breaker.*` counters and quantiles in the coordinator's stats
/// snapshot, with each shard's live breaker state as
/// `serve.breaker.state.<i>`.
///
/// Stats requests fan out: every shard returns its registry in the binary
/// wire format and the coordinator merges them exactly (LogHistogram
/// buckets add losslessly), then layers its own serving stats on top — a
/// cluster-wide p99 is computed from the union of every shard's samples,
/// not approximated from per-shard quantiles. Shutdown forwards to every
/// shard before the coordinator itself drains: one request tears down the
/// whole cluster.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SERVE_COORDINATOR_H
#define GDP_SERVE_COORDINATOR_H

#include "serve/Client.h"
#include "serve/Failover.h"
#include "serve/Server.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gdp {
namespace serve {

/// Stable FNV-1a (64-bit) of a request key — the routing hash. Not
/// std::hash, whose value may differ between libraries/processes.
uint64_t routeHash(const std::string &Key);

/// Coordinator configuration (the fault-tolerance half of the gdpd flag
/// surface; defaults match a single-attempt pre-failover coordinator
/// closely enough that a 1-replica cluster behaves as before, just with
/// retries where a lone reconnect used to be).
struct CoordinatorOptions {
  /// Per-exchange I/O and connect timeout.
  int TimeoutMs = 30000;
  /// Replica-chain length per hash slot (clamped to the shard count).
  unsigned Replicas = 1;
  /// Retry/backoff policy across the replica chain.
  RetryPolicy Retry;
  /// Per-shard circuit-breaker tuning.
  BreakerOptions Breaker;
  /// Background health-probe period for open breakers, in milliseconds
  /// (0 disables the prober; recovery then rides on request probes).
  int HealthCheckMs = 1000;
};

/// Routes requests across worker shards over the gdpd protocol.
class CoordinatorBackend : public Backend {
public:
  /// \p Shards are the worker addresses; connections are lazy (first
  /// request to a shard connects it).
  CoordinatorBackend(std::vector<support::SockAddr> Shards,
                     CoordinatorOptions Opt);

  /// Compatibility constructor: defaults with a custom timeout.
  CoordinatorBackend(std::vector<support::SockAddr> Shards, int TimeoutMs);

  ~CoordinatorBackend() override;

  /// The shard index that owns \p Key (head of its replica chain).
  size_t shardFor(const std::string &Key) const {
    return static_cast<size_t>(routeHash(Key) % Shards.size());
  }

  /// The ordered replica chain for \p Key: the owning shard, then the
  /// next Replicas-1 shards around the ring.
  std::vector<size_t> replicasFor(const std::string &Key) const;

  PartitionOutcome partition(const PartitionRequest &Req,
                             support::CancelToken *Drain) override;
  bool collectStats(telemetry::StatsRegistry &Into,
                    std::vector<support::Diag> &Diags) override;
  void forwardShutdown() override;
  const char *role() const override { return "coordinator"; }

  size_t numShards() const { return Shards.size(); }
  unsigned replicas() const { return Opt.Replicas; }

  /// Live breaker state of shard \p I (tests, stats stamping).
  CircuitBreaker::State breakerState(size_t I) const {
    return Shards[I]->Breaker.state();
  }

  /// The coordinator's own serving registry (retry/failover/breaker
  /// counters) — merged into every stats snapshot; the chaos harness
  /// reads it directly.
  const telemetry::StatsRegistry &localStats() const { return Reg; }

private:
  /// One shard connection: a mutex-guarded persistent client (requests to
  /// the same shard serialize; different shards proceed in parallel) plus
  /// its circuit breaker (internally locked — the health prober and
  /// request path consult it without taking Mu).
  struct Shard {
    support::SockAddr Addr;
    std::mutex Mu;
    Client C;
    CircuitBreaker Breaker;

    explicit Shard(const BreakerOptions &B) : Breaker(B) {}
  };

  /// Runs \p Fn with the shard's client connected (reconnecting once if
  /// needed) under its lock. False if the shard is unreachable. Stats and
  /// shutdown fan-out use this; the partition path runs the full
  /// retry/failover policy instead.
  template <class Fn>
  bool withShard(size_t I, std::vector<support::Diag> *Diags, Fn &&F);

  /// One attempt against shard \p I: connect if needed, exchange, and
  /// classify. True when \p Out holds a final (non-retryable) response;
  /// \p GotResponse is set whenever a real response frame arrived (even a
  /// retryable one — the final answer propagates the last response seen).
  bool attemptShard(size_t I, const PartitionRequest &Req,
                    PartitionOutcome &Out, bool &GotResponse,
                    std::vector<support::Diag> *Diags);

  /// Milliseconds since construction (the breaker clock).
  double nowMs() const;

  /// Books a breaker transition into the registry.
  void noteTransition(CircuitBreaker::Transition T);

  /// Pings shards whose breaker is due a half-open probe.
  void healthLoop();

  std::vector<std::unique_ptr<Shard>> Shards;
  CoordinatorOptions Opt;
  telemetry::StatsRegistry Reg;
  std::chrono::steady_clock::time_point Epoch;

  std::thread Health;
  std::mutex HealthMu;
  std::condition_variable HealthCv;
  bool StopHealth = false;
};

} // namespace serve
} // namespace gdp

#endif // GDP_SERVE_COORDINATOR_H
