// Environment helpers shared by the test binaries.

#ifndef OASIS_TESTS_TEST_ENV_H_
#define OASIS_TESTS_TEST_ENV_H_

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/common/knobs.h"

namespace oasis {
namespace testing {

// Sets (or, with nullptr, unsets) an environment variable for one scope and
// restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    Set(value);
  }
  ~EnvGuard() { Set(old_ ? old_->c_str() : nullptr); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

  void Set(const char* value) {
    if (value != nullptr) {
      setenv(name_.c_str(), value, 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

// A fuzz loop's trial count, capped by OASIS_FUZZ_TRIALS (CI's Release leg
// bounds it; the sanitizer legs run the full default depth).
inline int FuzzTrials(int default_trials) {
  return static_cast<int>(std::min<uint64_t>(
      knobs::Int(knobs::Knob::kFuzzTrials).value_or(default_trials), default_trials));
}

}  // namespace testing
}  // namespace oasis

#endif  // OASIS_TESTS_TEST_ENV_H_
