// Lamport one-time signatures over SHA-256.
//
// The multi-party protocol ΠOptnSFE (paper §4.2 / App. B) has the SFE phase
// sign the single output value y; the broadcast phase then rejects forged
// announcements. Since exactly one message is ever signed per key pair, a
// one-time scheme gives the existential unforgeability the paper requires of
// [GMR88]-style signatures (see DESIGN.md §6).
//
// Key layout: sk = 256 pairs of 32-byte preimages, vk = their hashes.
// Sign(m): h = SHA-256(m); reveal preimage sk[i][h_i] for each bit i.
#pragma once

#include <array>
#include <optional>

#include "crypto/bytes.h"

namespace fairsfe {

class Rng;

// TAINT-SOURCE(key): signing_key preimages; disclosure forges signatures
struct LamportKeyPair {
  Bytes signing_key;       ///< 2*256*32 bytes of preimages
  Bytes verification_key;  ///< 2*256*32 bytes of hashes
};

/// Generate a fresh one-time key pair.
LamportKeyPair lamport_gen(Rng& rng);

/// Sign a message (reveals 256 preimages; 256*32 bytes).
Bytes lamport_sign(const Bytes& signing_key, ByteView msg);

/// Verify a signature against a verification key.
bool lamport_verify(ByteView verification_key, ByteView msg, ByteView sig);

/// lamport_verify with a memo of the last triple that verified. Verifying is
/// a pure function of (vk, msg, sig), so a call byte-equal to that triple
/// returns true after a compare instead of 256 compressions; anything else,
/// down to a one-bit change, is verified in full, and a failure is never
/// cached. Not thread-safe: ΠOptnSFE and Lemma 18 share one instance among
/// the parties (and probe clones) of one run, which all execute on that
/// run's engine thread.
class LamportVerifier {
 public:
  bool verify(ByteView verification_key, ByteView msg, ByteView sig);

 private:
  bool cached_ = false;  ///< (vk_, msg_, sig_) verified
  Bytes vk_;
  Bytes msg_;
  Bytes sig_;
};

}  // namespace fairsfe
