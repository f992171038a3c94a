// The counterpart of good_spawn_under_lock.cpp: a lambda invoked inline,
// or handed to anything but a thread constructor, runs on the calling
// thread under m_, so pump() re-acquiring m_ self-deadlocks.
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fx {

class Crew {
 public:
  void grow();
  void grow_deferred();

 private:
  void pump();
  void run_now(const std::function<void()>& task);

  std::mutex m_;
  std::vector<std::thread> workers_;
  unsigned live_ = 0;
};

void Crew::pump() {
  std::lock_guard<std::mutex> g(m_);
  ++live_;
}

void Crew::run_now(const std::function<void()>& task) { task(); }

void Crew::grow() {
  std::lock_guard<std::mutex> g(m_);
  [this] { pump(); }();  // expect: lock-order
}

void Crew::grow_deferred() {
  std::lock_guard<std::mutex> g(m_);
  run_now([this] { pump(); });  // expect: lock-order
}

}  // namespace fx
