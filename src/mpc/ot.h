// Ideal 1-out-of-2 bit oblivious transfer, as a hybrid functionality hub.
//
// GMW evaluates AND gates via pairwise OTs; the protocol is designed in the
// OT-hybrid model (standard since GMW87). The hub multiplexes arbitrarily
// many logical OT instances per round, keyed by a caller-chosen label:
// the sender submits (label, m0, m1), the receiver submits (label, c), and
// one round later the receiver gets (label, m_c). The sender learns nothing
// about c; the receiver learns nothing about m_{1-c} — trivially true here
// because the hub simply never emits them.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/functionality.h"

namespace fairsfe::mpc {

/// Wire formats for bit-OT traffic (party -> kFunc and kFunc -> party).
Bytes encode_ot_send(std::uint64_t label, bool m0, bool m1);
Bytes encode_ot_choose(std::uint64_t label, bool c);
Bytes encode_ot_result(std::uint64_t label, bool mc);

struct OtResult {
  std::uint64_t label = 0;
  bool value = false;
};
/// Parse a kFunc->receiver OT result; nullopt if payload is something else.
std::optional<OtResult> decode_ot_result(ByteView payload);

/// String-OT variants (used by the Yao garbled-circuit substrate to transfer
/// wire labels). Same pairing semantics, byte-string messages.
Bytes encode_ot_send_str(std::uint64_t label, ByteView m0, ByteView m1);
Bytes encode_ot_choose_str(std::uint64_t label, bool c);
Bytes encode_ot_result_str(std::uint64_t label, ByteView mc);

struct OtStrResult {
  std::uint64_t label = 0;
  Bytes value;
};
std::optional<OtStrResult> decode_ot_result_str(ByteView payload);

/// The hub functionality. Pairs sender/receiver submissions by label; replies
/// to the receiver next round. Unmatched submissions persist (a late
/// counterpart still completes the transfer).
class OtHub final : public sim::IFunctionality {
 public:
  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  struct Pending {
    bool has_messages = false;
    std::pair<Bytes, Bytes> str;   // string-OT m0, m1
    std::pair<bool, bool> bit{};   // bit-OT m0, m1: no heap block per transfer
    std::optional<bool> choice;
    sim::PartyId receiver = 0;
    bool is_string = false;
    bool delivered = false;
  };
  // Never iterated: accessed only by label lookup, and delivery drains the
  // ordered ready_ vector below, so hash order is never protocol-visible.
  std::unordered_map<std::uint64_t, Pending> pending_;  // LINT-ALLOW(unordered-container): lookup-only; delivery order comes from ready_
  /// Labels whose pair completed this round, in completion order. Delivery
  /// drains this list instead of rescanning every instance the hub has ever
  /// seen; delivered entries stay in pending_ as replay tombstones.
  std::vector<std::uint64_t> ready_;
};

/// Sanctioned way to install the ideal-OT hub as an execution's hybrid slot.
/// Code outside src/mpc/ must call this (or mpc::make_gmw_functionality)
/// rather than naming OtHub directly — lint rule direct-ot-access keeps the
/// online phase from minting its own correlations behind the
/// PreprocessingProvider API's back.
std::unique_ptr<sim::IFunctionality> make_ot_functionality();

}  // namespace fairsfe::mpc
