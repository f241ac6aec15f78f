#include "util/u1_lib.hpp"

namespace {
int make_table() { return 7; }
const int kTable = make_table();
}  // namespace

int pool_default() { return 0; }
int call_with_default(int alt) { return alt; }
Base* make_base() { static Derived d; return &d; }
int use_value(int x) { return x; }
int apply(int (*fn)(int)) { return fn(1); }
int lookup(int i) { return i + kTable; }

int never_called() { return 1; }
int kept_for_a_test() { return 2; }  // sfcheck:allow(U1): test_u1_fixture reads it
int reasonless() { return 3; }  // sfcheck:allow(U1):
