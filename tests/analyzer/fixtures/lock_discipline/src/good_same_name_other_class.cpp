// Two classes with a method of the same name, only one of which
// dispatches: holding a lock across Ledger::step is fine, because the
// call graph follows Ledger::step, not every function named `step`.
#include <cstddef>
#include <mutex>
#include "util/parallel.hpp"

namespace fx {

class Fanout {
 public:
  void step(std::size_t n);
};

void Fanout::step(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [](std::size_t) {});
}

class Ledger {
 public:
  void record(std::size_t n);

 private:
  void step(std::size_t n);

  std::mutex m_;
  std::size_t total_ = 0;
};

void Ledger::step(std::size_t n) { total_ += n; }

void Ledger::record(std::size_t n) {
  std::lock_guard<std::mutex> g(m_);
  step(n);
}

}  // namespace fx
