#include "memory/main_memory.h"

#include <algorithm>

namespace safespec::memory {

std::uint64_t MainMemory::read64(Addr addr) const {
  const std::uint64_t* word = words_.find(word_of(addr));
  return word == nullptr ? 0 : *word;
}

void MainMemory::write64(Addr addr, std::uint64_t value) {
  words_[word_of(addr)] = value;
}

std::vector<std::pair<Addr, std::uint64_t>> MainMemory::nonzero_words()
    const {
  std::vector<std::pair<Addr, std::uint64_t>> out;
  out.reserve(words_.size());
  words_.for_each([&out](Addr word, std::uint64_t value) {
    if (value != 0) out.emplace_back(word << 3, value);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace safespec::memory
