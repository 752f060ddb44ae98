// Kernel and path rates of the traced run, at the sizes the workloads use.
#include <vector>

#include "bench.h"
#include "crypto/auth_share.h"
#include "crypto/chacha20.h"
#include "crypto/field.h"
#include "crypto/mac.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "workloads.h"

namespace perfbench {
namespace fs = fairsfe;
namespace {

// Median over three repetitions of `reps` calls of `op`, in calls per second.
template <typename Op>
double rate(std::size_t reps, Op op) {
  std::vector<double> rates;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) op(i);
    rates.push_back(static_cast<double>(reps) / seconds_since(t0));
  }
  return median(rates);
}

// Keeps results observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

}  // namespace

Result run_crypto_probe() {
  Result r;
  fs::Rng rng(11);
  r.set("crypto.rng_draws_per_s", rate(400000, [&](std::size_t i) {
          g_sink = g_sink + rng.below(2 + (i & 63));
        }), "1/s");

  const fs::Bytes key(fs::ChaCha20::kKeySize, 7);
  const fs::Bytes nonce(fs::ChaCha20::kNonceSize, 1);
  fs::ChaCha20 chacha(key, nonce);
  std::vector<std::uint8_t> buf(4096);
  r.set("crypto.chacha20_mb_per_s", rate(4000, [&](std::size_t) {
          chacha.fill(buf.data(), buf.size());
          g_sink = g_sink + buf[0];
        }) * static_cast<double>(buf.size()) / 1e6, "MB/s");

  const fs::Rng master(12);
  r.set("crypto.fork_at_per_s", rate(50000, [&](std::size_t i) {
          fs::Rng child = master.fork_at("run", i);
          g_sink = g_sink + child.u64();
        }), "1/s");

  const fs::Bytes msg(256, 3);
  r.set("crypto.sha256_mb_per_s", rate(40000, [&](std::size_t) {
          g_sink = g_sink + fs::sha256(msg)[0];
        }) * static_cast<double>(msg.size()) / 1e6, "MB/s");

  const fs::MacKey mac_key = fs::MacKey::random(rng);
  const fs::Bytes short_msg(16, 5);
  r.set("crypto.mac_tag_per_s", rate(200000, [&](std::size_t) {
          g_sink = g_sink + fs::mac_tag(mac_key, short_msg)[0];
        }), "1/s");

  const fs::Bytes word(8, 9);
  r.set("crypto.field_codec_per_s", rate(200000, [&](std::size_t) {
          const std::vector<fs::Fp> f = fs::bytes_to_field(word);
          g_sink = g_sink + fs::fp_to_bytes(f[0])[0];
        }), "1/s");

  r.set("crypto.auth_share2_per_s", rate(50000, [&](std::size_t) {
          const fs::AuthSharing2 s = fs::auth_share2(word, rng);
          g_sink = g_sink + s.share1.summand[0];
        }), "1/s");
  return r;
}

Result run_mpc_probe(const Options& opt) {
  Result r;
  const GmwTarget t = gmw_targets().front();  // millionaires_16, two parties
  std::vector<double> batch_s;
  std::vector<double> triples_per_s;
  GmwPrepared p;
  for (int k = 0; k < 3; ++k) {
    p = prepare_gmw(t, opt.seed + k);
    batch_s.push_back(p.batch_s);
    triples_per_s.push_back(static_cast<double>(p.triples) / p.batch_s);
  }
  r.set("mpc.preproc.batch_s", median(batch_s), "s");
  r.set("mpc.preproc.triples_per_s", median(triples_per_s), "1/s");

  const char* names[] = {"mpc.inline_runs_per_s", "mpc.offline_runs_per_s",
                         "mpc.sliced_runs_per_s"};
  const GmwPath paths[] = {GmwPath::kInline, GmwPath::kOffline, GmwPath::kSliced};
  for (int i = 0; i < 3; ++i) {
    std::vector<double> rates;
    std::vector<double> us_per_word;
    for (int k = 0; k < 3; ++k) {
      const GmwJobResult res = run_gmw_job(t, p, paths[i], opt.seed + k, 1);
      r.tally(res.pinned);
      rates.push_back(static_cast<double>(res.est.runs) / res.wall_s);
      us_per_word.push_back(res.wall_s * 1e6 / (static_cast<double>(res.est.runs) / 64.0));
    }
    r.set(names[i], median(rates), "1/s");
    if (paths[i] == GmwPath::kSliced) r.set("mpc.sliced_us_per_word", median(us_per_word), "us");
  }
  return r;
}

}  // namespace perfbench
