// Process-wide tables derived from configuration values.
//
// Some tables depend only on a few configuration values and cost more to
// build than the run that reads them (a rack-day's on-demand fetch memo,
// the working-set distribution's solved parameters). Interned builds each
// one once per process for each distinct key and keeps it until exit: a
// value never changes after it is built, so the returned reference stays
// valid and any thread may read it without further synchronization.

#ifndef OASIS_SRC_COMMON_INTERNED_H_
#define OASIS_SRC_COMMON_INTERNED_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace oasis {

template <typename Key, typename Value>
class Interned {
 public:
  // The value built for `key`, built with build() on the first request. A
  // process sees few distinct keys, so the lookup is a scan.
  template <typename Build>
  const Value& Get(const Key& key, Build&& build) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [k, value] : entries_) {
      if (k == key) {
        return *value;
      }
    }
    entries_.emplace_back(key, std::make_unique<const Value>(build()));
    return *entries_.back().second;
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<Key, std::unique_ptr<const Value>>> entries_;
};

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_INTERNED_H_
