#include "sim/functionality.h"

namespace fairsfe::sim {

bool gate_deliveries(FuncContext& ctx, std::vector<Message>& deliveries) {
  std::vector<Message> corrupted_outputs;
  for (const Message& m : deliveries) {
    if (ctx.corrupted().count(m.to)) corrupted_outputs.push_back(m);
  }
  const bool abort = ctx.adversary_abort_gate(corrupted_outputs);
  for (Message& m : deliveries) {
    if (abort && !ctx.corrupted().count(m.to)) m.payload = encode_func_abort();
  }
  return abort;
}

Bytes encode_func_input(ByteView input) {
  Writer w;
  w.u8(functag::kInput).blob(input);
  return w.take();
}

std::optional<Bytes> decode_func_input(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != functag::kInput) return std::nullopt;
  const auto body = r.blob();
  if (!body || !r.at_end()) return std::nullopt;
  return body;
}

Bytes encode_func_output(ByteView output) {
  Writer w;
  w.u8(functag::kOutput).blob(output);
  return w.take();
}

Writer func_output_writer(std::size_t output_capacity) {
  Writer w(1 + kBlobPrefixSize + output_capacity);
  w.u8(functag::kOutput).u32(0);
  return w;
}

Bytes seal_func_output(Bytes frame) {
  store_le(frame.data() + 1, frame.size() - 1 - kBlobPrefixSize, kBlobPrefixSize);
  return frame;
}

Bytes encode_func_abort() {
  Writer w;
  w.u8(functag::kAbort);
  return w.take();
}

std::optional<Bytes> decode_func_output(ByteView payload) {
  const auto body = decode_func_output_view(payload);
  if (!body) return std::nullopt;
  return Bytes(body->begin(), body->end());
}

std::optional<ByteView> decode_func_output_view(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  // Abort frames carry functag::kAbort and decode to nullopt here; every
  // party treats that as the functionality's abort signal.
  // ANALYZE-HANDLES(func_abort)
  if (!tag || *tag != functag::kOutput) return std::nullopt;
  const auto body = r.blob_view();
  if (!body || !r.at_end()) return std::nullopt;
  return body;
}

bool is_func_abort(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  return tag && *tag == functag::kAbort && r.at_end();
}

}  // namespace fairsfe::sim
