// A directive's trailing comment is folded into the directive's token; an
// allow there must still suppress the directive's own finding.
#include <cassert>  // LINT-ALLOW(bare-assert): fixture proves directive-line allows work

int f();
