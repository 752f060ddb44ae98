// Regression corpus for raw strings: the quote inside R"(...)" below is part
// of the literal. A character-level stripper that does not know raw strings
// reads it as opening an ordinary string, swallows the next line, and misses
// the banned call there. The token stream ends the literal at its `)"`.
const char* kUsage = R"(usage: --filter "exp1)";
int g() { return rand(); }  // EXPECT(nondeterminism)
