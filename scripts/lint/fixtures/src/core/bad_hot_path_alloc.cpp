// Seeded violations for the no-hot-path-alloc rule. The annotated
// hot-path functions (pop_run*, on_pulse_run, lane_receive, insert_*,
// *_insert, broadcast*, schedule/post_fire_only*, on_event_batch,
// lane_commit) must not construct allocations; identically-shaped code in
// a non-hot function is legal.
#include <cstdlib>
#include <functional>
#include <memory>

namespace fixture {

struct Entry {
  double at = 0.0;
  int payload = 0;
};

class Queue {
 public:
  void insert_ladder(const Entry& entry) {
    auto* copy = new Entry(entry);              // EXPECT-LINT: no-hot-path-alloc
    scratch_ = copy;
  }

  int pop_run_batch() {
    void* raw = std::malloc(64);                // EXPECT-LINT: no-hot-path-alloc
    std::free(raw);
    return 0;
  }

  void on_pulse_run(int n) {
    std::function<void(int)> f = [](int) {};    // EXPECT-LINT: no-hot-path-alloc
    f(n);
  }

  void lane_receive(double at) {
    auto owned = std::make_unique<Entry>();     // EXPECT-LINT: no-hot-path-alloc
    owned->at = at;
  }

  void quorum_insert(int level) {
    auto shared = std::make_shared<Entry>();    // EXPECT-LINT: no-hot-path-alloc
    shared->payload = level;
  }

  // Cold-path setup: the same constructs are legal outside the annotated
  // hot function list.
  void configure(int n) {
    scratch_ = new Entry[static_cast<unsigned>(n)];
    hook_ = std::function<void()>([] {});
  }

  void insert_narrow(const Entry& entry) {
    // ftgcs-lint: allow(no-hot-path-alloc) fixture: proves waivers suppress
    scratch_ = new Entry(entry);
  }

 private:
  Entry* scratch_ = nullptr;
  std::function<void()> hook_;
};

}  // namespace fixture
