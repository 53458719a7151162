// Fixture: dbs3-guarded-member-init must fire on every seeded line.
// -Wthread-safety covers locked access, not construction: a scalar left
// uninitialized reads garbage until the first locked write.

#include "dbs3_stubs.h"

namespace dbs3 {

// No constructor at all: the members are never written before first use.
class NoConstructorAtAll {
 private:
  Mutex mu_;
  size_t pending_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
  bool draining_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
};

// A constructor exists but skips one member.
class ConstructorSkipsOne {
 public:
  ConstructorSkipsOne() : pending_(0) {}

 private:
  Mutex mu_;
  size_t pending_ GUARDED_BY(mu_);
  int64_t high_water_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
};

// A braced init list is read like a parenthesized one: it covers only
// the members it names.
class BracedConstructorSkipsOne {
 public:
  BracedConstructorSkipsOne() : pending_{0} {}

 private:
  Mutex mu_;
  size_t pending_ GUARDED_BY(mu_);
  int64_t high_water_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
};

// Raw pointers are scalars too: an indeterminate pointer is worse than an
// indeterminate counter.
class UninitializedGuardedPointer {
 private:
  Mutex mu_;
  Tuple* head_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
};

// The first member after an access specifier is judged like any other.
class GuardedMemberFirstInSection {
 private:
  size_t pending_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
  Mutex mu_;
};

// Scalars behind a name: a std::-qualified type, an enum and aliases of a
// scalar are judged by what they name, wherever in the corpus the enum or
// alias is declared.
enum class Phase { kIdle, kRunning };
using Micros = int64_t;
typedef uint32_t Epoch;

class ScalarsBehindAName {
 private:
  Mutex mu_;
  std::size_t reserved_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
  Phase phase_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
  Micros waited_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
  Epoch epoch_ GUARDED_BY(mu_);  // DBS3-TIDY: dbs3-guarded-member-init
};

}  // namespace dbs3
