// unordered-iteration through an object: the range source of a range-for is
// the last identifier of its `.`/`->` chain, so iterating a member reached
// through another object is flagged like iterating it directly.
#include <cstdint>
#include <unordered_map>

struct Table {
  std::unordered_map<std::uint64_t, int> slots_;  // EXPECT(unordered-container)
};

struct Owner {
  Table* table = nullptr;
};

void sweep(Table& r, Owner* o) {
  for (const auto& kv : r.slots_) (void)kv;  // EXPECT(unordered-iteration)
  for (auto& kv : o->table->slots_) kv.second = 0;  // EXPECT(unordered-iteration)
  for (auto& kv : o -> table -> slots_) kv.second = 0;  // EXPECT(unordered-iteration)
}
