// Stand-in for the repository's util::parallel_for, so that calls to it
// resolve to a repo function here as they do in src/.
#pragma once
#include <cstddef>

namespace fx::util {

template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace fx::util
