// Header half of the cross-TU unordered-iteration corpus: the map is declared
// here, and registry.cc (which includes this header) iterates it.
#include <cstdint>
#include <unordered_map>

class Registry {
 public:
  void sweep();

 private:
  std::unordered_map<std::uint64_t, int> slots_;  // EXPECT(unordered-container)
};
