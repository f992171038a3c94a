// The lock is held across a dispatch reached through a smart pointer:
// the receiver's pointee type (Scatter), not std::unique_ptr, decides
// which drain runs.
#include <cstddef>
#include <memory>
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

class Relay {
 public:
  void forward(std::size_t n);

 private:
  std::mutex m_;
  std::unique_ptr<Scatter> scatter_;
};

void Relay::forward(std::size_t n) {
  std::lock_guard<std::mutex> g(m_);
  scatter_->drain(n);  // expect: lock-across-dispatch
}

}  // namespace fx
