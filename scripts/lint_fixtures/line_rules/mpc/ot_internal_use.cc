// direct-ot-access is scoped to everything OUTSIDE src/mpc: this fixture
// lints as src/mpc/ot_internal_use.cc, where the hub is the implementation
// domain (the OtDrivenProvider runs its rounds, the factories construct it),
// so no line below is a finding. The decode gives this universe's ot_send
// encodes their receiver, as in src/mpc, so orphan-message-kind stays quiet.

void internal_hub_use() {
  auto* hub = new fairsfe::mpc::OtHub();
  auto msg = fairsfe::mpc::encode_ot_send(7, true, false);
  auto sent = fairsfe::mpc::decode_ot_send(msg);
  (void)hub;
  (void)sent;
}
