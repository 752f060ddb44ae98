// Source half of the cross-TU unordered-iteration corpus: `slots_` is declared
// with an unordered type only in the included header, so the finding below
// needs the header's declarations joined in across TUs.
#include "sim/registry.h"

void Registry::sweep() {
  for (auto& kv : slots_) kv.second = 0;  // EXPECT(unordered-iteration)
}
