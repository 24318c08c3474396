//===- tools/gdpd.cpp - GDP partitioning daemon -----------------------------===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `gdpd`: serves IR-partitioning requests over the length-prefixed
/// binary protocol of docs/SERVING.md. A plain instance is a *shard*
/// (executes requests locally through the warm prepared-program cache);
/// `--coordinator` instances route requests across `--shard` workers by
/// key hash and merge their statistics exactly.
///
//===----------------------------------------------------------------------===//

#include "serve/Daemon.h"

#include <cstdio>
#include <string>

namespace {

void usage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: gdpd --listen=ADDR [options]\n"
      "  ADDR is HOST:PORT (\":0\" = kernel-assigned port, announced on\n"
      "  stdout) or unix:/path.\n"
      "options:\n"
      "  --coordinator           route requests across --shard workers\n"
      "  --shard=ADDR            a worker address (repeat; coordinator only)\n"
      "  --threads=N             serving concurrency (default $GDP_THREADS,\n"
      "                          else 1)\n"
      "  --affinity[=V]          pin serving-pool workers to cores (default\n"
      "                          $GDP_AFFINITY, else off); V is 1/on/true\n"
      "                          or 0/off/false, anything else is a\n"
      "                          UsageError config failure (exit 2)\n"
      "  --max-inflight=N        admission gate: connections served at\n"
      "                          once; more are shed with an overloaded\n"
      "                          status (default 64)\n"
      "  --cache-cap=N           prepared-program cache entries (default 32)\n"
      "  --deadline-ms=N         default per-request deadline (0 = none)\n"
      "  --deterministic         zero wall-clock fields in responses\n"
      "  --io-timeout-ms=N       per-frame socket timeout (default 30000)\n"
      "  --drain-ms=N            shutdown grace for in-flight requests\n"
      "                          (default 5000)\n"
      "fault tolerance (coordinator only; docs/SERVING.md):\n"
      "  --replicas=N            replica-chain length per hash slot: a\n"
      "                          request fails over to the next N-1 shards\n"
      "                          around the ring (default 1 = no failover)\n"
      "  --breaker-threshold=N   consecutive failures that open a shard's\n"
      "                          circuit breaker (default 3)\n"
      "  --breaker-cooldown-ms=N open-breaker cooldown before a half-open\n"
      "                          probe is allowed (default 1000)\n"
      "  --health-check-ms=N     background health-probe period for open\n"
      "                          breakers (default 1000; 0 disables — \n"
      "                          recovery then rides on request probes)\n"
      "exit codes: 0 clean drain, 1 usage error, 2 bind/config failure,\n"
      "            3 stragglers cancelled at shutdown\n"
      "Stop with SIGINT/SIGTERM (graceful drain) or the protocol's\n"
      "shutdown verb ('gdptool request --server=ADDR --shutdown').\n");
}

} // namespace

int main(int argc, char **argv) {
  gdp::serve::DaemonOptions Opt;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      return 0;
    }
    std::string Err;
    if (!gdp::serve::parseDaemonArg(Arg, Opt, Err)) {
      std::fprintf(stderr, "gdpd: error: %s\n", Err.c_str());
      usage(stderr);
      return 1;
    }
  }
  // GDP_FAULTS applies to the daemon like to every other tool: runDaemon
  // installs the plan's serve scopes (docs/ROBUSTNESS.md).
  return gdp::serve::runDaemon(Opt);
}
