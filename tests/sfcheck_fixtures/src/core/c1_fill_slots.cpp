// C1 fixture: a compute-phase lambda handed to SlotComputer::fill_slots
// is a task entry -- its slot writes are fine, its store call is not.
#include <vector>

void run_c1_fill_slots(SlotComputer& compute, std::vector<double>& slots, Ctx& ctx) {
  compute.fill_slots(order, [&](std::size_t k) {
    slots[k] = 2.0 * static_cast<double>(k);
    ctx.store->put(k);
  });
}
