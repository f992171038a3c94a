// Two classes with a method of the same name: the lock is held across
// the one that dispatches (Scatter::drain through a member receiver),
// while the bare call to Journal's own non-dispatching drain is fine.
#include <cstddef>
#include <mutex>
#include "util/parallel.hpp"

namespace fx {

class Scatter {
 public:
  void drain(std::size_t n);
};

void Scatter::drain(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [](std::size_t) {});
}

class Journal {
 public:
  void append(std::size_t n);

 private:
  void drain(std::size_t n);

  std::mutex m_;
  std::size_t count_ = 0;
  Scatter scatter_;
};

void Journal::drain(std::size_t n) { count_ -= n; }

void Journal::append(std::size_t n) {
  std::lock_guard<std::mutex> g(m_);
  count_ += n;
  drain(n);
  scatter_.drain(n);  // expect: lock-across-dispatch
}

}  // namespace fx
