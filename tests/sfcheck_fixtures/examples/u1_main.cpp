// U1 fixture: the product root. Names use_value, Widget and Base::run.
#include "util/u1_lib.hpp"

int main() {
  apply(use_value);
  Widget w;
  Base* b = make_base();
  return b->run() + lookup(3) + call_with_default();
}
