#include "mpc/ot.h"

namespace fairsfe::mpc {

namespace {
constexpr std::uint8_t kTagSend = 10;
constexpr std::uint8_t kTagChoose = 11;
constexpr std::uint8_t kTagResult = 12;
constexpr std::uint8_t kTagSendStr = 13;
constexpr std::uint8_t kTagChooseStr = 14;
constexpr std::uint8_t kTagResultStr = 15;
}  // namespace

Bytes encode_ot_send(std::uint64_t label, bool m0, bool m1) {
  Writer w;
  w.u8(kTagSend).u64(label).u8(m0 ? 1 : 0).u8(m1 ? 1 : 0);
  return w.take();
}

Bytes encode_ot_choose(std::uint64_t label, bool c) {
  Writer w;
  w.u8(kTagChoose).u64(label).u8(c ? 1 : 0);
  return w.take();
}

Bytes encode_ot_result(std::uint64_t label, bool mc) {
  Writer w;
  w.u8(kTagResult).u64(label).u8(mc ? 1 : 0);
  return w.take();
}

std::optional<OtResult> decode_ot_result(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagResult) return std::nullopt;
  const auto label = r.u64();
  const auto v = r.u8();
  if (!label || !v || !r.at_end()) return std::nullopt;
  return OtResult{*label, *v != 0};
}

Bytes encode_ot_send_str(std::uint64_t label, ByteView m0, ByteView m1) {
  Writer w;
  w.u8(kTagSendStr).u64(label).blob(m0).blob(m1);
  return w.take();
}

Bytes encode_ot_choose_str(std::uint64_t label, bool c) {
  Writer w;
  w.u8(kTagChooseStr).u64(label).u8(c ? 1 : 0);
  return w.take();
}

Bytes encode_ot_result_str(std::uint64_t label, ByteView mc) {
  Writer w;
  w.u8(kTagResultStr).u64(label).blob(mc);
  return w.take();
}

std::optional<OtStrResult> decode_ot_result_str(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagResultStr) return std::nullopt;
  const auto label = r.u64();
  const auto v = r.blob();
  if (!label || !v || !r.at_end()) return std::nullopt;
  return OtStrResult{*label, *v};
}

std::vector<sim::Message> OtHub::on_round(sim::FuncContext& /*ctx*/, int /*round*/,
                                          sim::MsgView in) {
  // Completion is detected as submissions land: the message that supplies the
  // second half of a pair pushes its label onto ready_. Guards keep
  // first-submission-wins semantics (a duplicate half never sets the field,
  // so it never enqueues).
  for (const sim::Message& m : in) {
    Reader r(m.payload);
    const auto tag = r.u8();
    if (!tag) continue;
    if (*tag == kTagSend) {
      // ANALYZE-HANDLES(ot_send)
      const auto label = r.u64();
      const auto m0 = r.u8();
      const auto m1 = r.u8();
      if (!label || !m0 || !m1 || !r.at_end()) continue;
      Pending& p = pending_[*label];
      if (!p.has_messages) {
        p.has_messages = true;
        p.bit = {*m0 != 0, *m1 != 0};
        if (p.choice && !p.delivered) ready_.push_back(*label);
      }
    } else if (*tag == kTagSendStr) {
      // ANALYZE-HANDLES(ot_send_str)
      const auto label = r.u64();
      const auto m0 = r.blob();
      const auto m1 = r.blob();
      if (!label || !m0 || !m1 || !r.at_end()) continue;
      Pending& p = pending_[*label];
      if (!p.has_messages) {
        p.has_messages = true;
        p.str = {*m0, *m1};
        p.is_string = true;
        if (p.choice && !p.delivered) ready_.push_back(*label);
      }
    } else if (*tag == kTagChoose || *tag == kTagChooseStr) {
      // ANALYZE-HANDLES(ot_choose) ANALYZE-HANDLES(ot_choose_str)
      const auto label = r.u64();
      const auto c = r.u8();
      if (!label || !c || !r.at_end()) continue;
      Pending& p = pending_[*label];
      if (!p.choice) {
        p.choice = (*c != 0);
        p.receiver = m.from;
        if (p.has_messages && !p.delivered) ready_.push_back(*label);
      }
    }
  }

  std::vector<sim::Message> out;
  out.reserve(ready_.size());
  for (const std::uint64_t label : ready_) {
    Pending& p = pending_[label];
    if (p.is_string) {
      const Bytes& mc = *p.choice ? p.str.second : p.str.first;
      out.push_back(sim::Message{sim::kFunc, p.receiver, encode_ot_result_str(label, mc)});
    } else {
      const bool mc = *p.choice ? p.bit.second : p.bit.first;
      out.push_back(sim::Message{sim::kFunc, p.receiver, encode_ot_result(label, mc)});
    }
    p.delivered = true;
  }
  ready_.clear();
  return out;
}

std::unique_ptr<sim::IFunctionality> make_ot_functionality() {
  return std::make_unique<OtHub>();
}

}  // namespace fairsfe::mpc
