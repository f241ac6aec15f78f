// U1 fixture: uses that name nothing at the point where they run.
#pragma once

int pool_default();
int call_with_default(int alt = pool_default());

struct Base {
  virtual ~Base() = default;
  virtual int run() { return 0; }
};
struct Derived : Base {
  int run() override { return 1; }
};
Base* make_base();

class Widget {
 public:
  Widget() {}
  ~Widget() { shutdown(); }

 private:
  void shutdown() {}
};

int use_value(int x);
int apply(int (*fn)(int));
int lookup(int i);
