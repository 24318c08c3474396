//===- serve/Daemon.h - gdpd process lifecycle ------------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon shell shared by the `gdpd` binary and `gdptool serve`: flag
/// parsing, role assembly (shard vs. coordinator), SIGINT/SIGTERM-driven
/// graceful drain, and the readiness line. Kept in the library so the two
/// entry points cannot drift apart and tests can drive the exact
/// production lifecycle in-process.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SERVE_DAEMON_H
#define GDP_SERVE_DAEMON_H

#include "serve/Server.h"
#include "support/Socket.h"

#include <string>
#include <vector>

namespace gdp {
namespace serve {

/// Everything the gdpd flag surface configures.
struct DaemonOptions {
  support::SockAddr Listen;
  bool HaveListen = false;
  /// Coordinator mode: route across these worker shards.
  bool Coordinator = false;
  std::vector<support::SockAddr> Shards;
  /// True concurrency (--threads; default $GDP_THREADS, else 1).
  unsigned Threads = 0;
  /// Raw --affinity value; empty = flag absent ($GDP_AFFINITY decides).
  /// Validated in runDaemon so a bad value is a configuration failure
  /// (structured UsageError diag, exit 2).
  std::string Affinity;
  size_t MaxInflight = 64;    ///< --max-inflight admission gate.
  size_t CacheCap = 0;        ///< --cache-cap (0 = keep the default, 32).
  uint64_t DefaultDeadlineMs = 0; ///< --deadline-ms for deadline-less requests.
  bool Deterministic = false; ///< --deterministic response bodies.
  int IoTimeoutMs = 30000;    ///< --io-timeout-ms per-frame I/O.
  int DrainMs = 5000;         ///< --drain-ms shutdown grace.
  /// Coordinator fault tolerance (--replicas and friends; rejected
  /// without --coordinator so a misconfigured shard fails loudly).
  unsigned Replicas = 1;          ///< --replicas replica-chain length.
  uint64_t BreakerThreshold = 3;  ///< --breaker-threshold failures to open.
  int BreakerCooldownMs = 1000;   ///< --breaker-cooldown-ms before probing.
  int HealthCheckMs = 1000;       ///< --health-check-ms probe period (0 off).
};

/// Parses one `--flag[=value]` into \p O. Returns false with \p Err set
/// when the flag is recognized but malformed; unrecognized flags also
/// fail, naming the flag. The usage text lives with the tools.
bool parseDaemonArg(const std::string &Arg, DaemonOptions &O,
                    std::string &Err);

/// Runs one daemon to completion: bind, announce readiness on stdout
/// ("gdpd: <role> listening on <addr>"), serve until SIGINT/SIGTERM or a
/// Shutdown verb, drain, flush metrics. Returns the process exit code:
/// 0 clean drain, 2 bind/configuration failure, 3 stragglers cancelled.
int runDaemon(const DaemonOptions &O);

} // namespace serve
} // namespace gdp

#endif // GDP_SERVE_DAEMON_H
