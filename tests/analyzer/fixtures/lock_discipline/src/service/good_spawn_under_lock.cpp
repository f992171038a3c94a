// Threads spawned while m_ is held, as a worker pool grows. Each lambda
// runs on its new thread, which only blocks on m_ until grow() returns:
// loop() re-acquiring m_ and the helper's dispatch are not made under
// m_, the watcher's guard on cfg_ is not nested inside m_, and neither
// cfg_ acquisition is part of what grow() does while resize() holds
// cfg_. (Under src/service/ because raw std::thread is only allowed
// there.)
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>
#include "util/parallel.hpp"

namespace fx {

class Spawner {
 public:
  void grow(unsigned wanted);
  void resize(unsigned wanted);

 private:
  void loop();
  void retune();

  std::mutex m_;    // guards workers_, watcher_, live_
  std::mutex cfg_;  // guards wanted_
  std::vector<std::thread> workers_;
  std::thread watcher_;
  unsigned live_ = 0;
  unsigned wanted_ = 0;
};

void Spawner::loop() {
  std::lock_guard<std::mutex> g(m_);
  ++live_;
}

void Spawner::retune() {
  std::lock_guard<std::mutex> g(cfg_);
  ++wanted_;
}

void Spawner::grow(unsigned wanted) {
  std::lock_guard<std::mutex> g(m_);
  while (workers_.size() < wanted) {
    workers_.emplace_back([this] { loop(); });
  }
  watcher_ = std::thread([this] {
    std::lock_guard<std::mutex> w(cfg_);
    ++wanted_;
  });
  std::thread helper([this] {
    retune();
    util::parallel_for(0, 64, [](std::size_t) {});
  });
  helper.detach();
}

void Spawner::resize(unsigned wanted) {
  std::lock_guard<std::mutex> g(cfg_);
  wanted_ = wanted;
  grow(wanted);
}

}  // namespace fx
