// P01 — crypto substrate throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/auth_share.h"
#include "crypto/chacha20.h"
#include "crypto/commitment.h"
#include "crypto/hmac.h"
#include "crypto/lamport.h"
#include "crypto/mac.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "crypto/shamir.h"
#include "experiments/report.h"

namespace fairsfe {
namespace {

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = bytes_of("key material");
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_ChaCha20Keystream(benchmark::State& state) {
  const Bytes key(32, 1);
  const Bytes nonce(12, 2);
  for (auto _ : state) {
    ChaCha20 c(key, nonce);
    benchmark::DoNotOptimize(c.keystream(static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20Keystream)->Arg(64)->Arg(4096);

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  Fp a = Fp::random(rng);
  const Fp b = Fp::random(rng);
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_OneTimeMac(benchmark::State& state) {
  Rng rng(2);
  const MacKey k = MacKey::random(rng);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac_tag(k, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_OneTimeMac)->Arg(32)->Arg(1024);

void BM_Commitment(benchmark::State& state) {
  Rng rng(3);
  const Bytes msg(64, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(commit(msg, rng));
  }
}
BENCHMARK(BM_Commitment);

void BM_AuthShare2(benchmark::State& state) {
  Rng rng(4);
  const Bytes secret(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth_share2(secret, rng));
  }
}
BENCHMARK(BM_AuthShare2)->Arg(8)->Arg(256);

void BM_AuthReconstruct2(benchmark::State& state) {
  Rng rng(5);
  const Bytes secret(64, 0x44);
  const AuthSharing2 sh = auth_share2(secret, rng);
  const Bytes opening = sh.share2.opening_to_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth_reconstruct2(sh.share1, opening));
  }
}
BENCHMARK(BM_AuthReconstruct2);

void BM_ShamirShare(benchmark::State& state) {
  Rng rng(6);
  const Bytes secret(32, 0x55);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_share_bytes(secret, n / 2 + 1, n, rng));
  }
}
BENCHMARK(BM_ShamirShare)->Arg(4)->Arg(16)->Arg(64);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(7);
  const Bytes secret(32, 0x66);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shares = shamir_share_bytes(secret, n / 2 + 1, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct_bytes(shares, n / 2 + 1));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(4)->Arg(16);

void BM_LamportGen(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamport_gen(rng));
  }
}
BENCHMARK(BM_LamportGen);

void BM_LamportSignVerify(benchmark::State& state) {
  Rng rng(9);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes msg = bytes_of("the output value");
  for (auto _ : state) {
    const Bytes sig = lamport_sign(kp.signing_key, msg);
    benchmark::DoNotOptimize(lamport_verify(kp.verification_key, msg, sig));
  }
}
BENCHMARK(BM_LamportSignVerify);

}  // namespace
}  // namespace fairsfe

// Same CLI surface as fairbench: --json and --filter are
// translated onto google-benchmark's flags, anything unrecognized passes
// through to benchmark::Initialize untouched.
int main(int argc, char** argv) {
  const fairsfe::bench::Args args = fairsfe::bench::parse_args(argc, argv);
  std::vector<std::string> fwd;
  fwd.emplace_back(argv[0]);
  if (!args.json_path.empty()) {
    fwd.emplace_back("--benchmark_out=" + args.json_path);
    fwd.emplace_back("--benchmark_out_format=json");
  }
  if (!args.filter.empty()) {
    fwd.emplace_back("--benchmark_filter=" + args.filter);
  }
  for (const std::string& extra : args.passthrough) fwd.push_back(extra);
  std::vector<char*> fwd_argv;
  fwd_argv.reserve(fwd.size());
  for (std::string& s : fwd) fwd_argv.push_back(s.data());
  int fwd_argc = static_cast<int>(fwd_argv.size());
  benchmark::Initialize(&fwd_argc, fwd_argv.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
